"""S13 clean twin: every suppression carries its rationale in-line."""


def program(comm):  # spmdlint: disable=S4 -- demo: bytes are booked under the caller's phase
    comm.charge_touch(16)


SEEN = []


def collect(comm):
    SEEN.append(comm.size)  # spmdlint: disable=S3 -- demo: every rank appends the same value and the driver reads only the length
