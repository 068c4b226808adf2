"""S13 fixture: suppression directives without a written rationale.

The suppressions *work* (S4/S3 stay silent) but each directive is
itself flagged — and S13 bypasses suppression, so not even
``disable=all`` can silence the demand for a rationale.
"""


def program(comm):  # spmdlint: disable=S4 # EXPECT: S13
    comm.charge_touch(16)


SEEN = []


def collect(comm):
    SEEN.append(comm.size)  # spmdlint: disable=S3 # EXPECT: S13
