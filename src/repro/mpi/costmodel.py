"""The α–β communication cost model and machine profiles.

The paper evaluates on NERSC Perlmutter and analyses communication with the
standard α–β (latency–inverse-bandwidth) model of Thakur, Rabenseifner and
Gropp [43]: transmitting an ``n``-word message costs ``α + β·n``.  Because
this reproduction runs on a single machine, *all* reported runtimes are
virtual: every rank owns a virtual clock (:mod:`repro.mpi.clock`) that is
advanced by the formulas below whenever it communicates, and by the
calibrated per-flop costs whenever it computes.

The absolute constants are Perlmutter-flavoured but only their *ratios*
matter for the paper's conclusions (algorithm orderings, the SpMM
crossover near 50 % sparsity, the SPA/hash crossover near d = 1024, and the
latency-dominated flattening of strong scaling).  DESIGN.md §2 records this
substitution.

Collective cost formulas (per participating rank, ``q`` ranks total)
--------------------------------------------------------------------
====================  ====================================================
barrier               ``ceil(log2 q) · α``
bcast / reduce        ``ceil(log2 q)·α + 2·β·m``     (scatter–allgather [43])
allreduce             ``2·(ceil(log2 q)·α + 2·β·m)``          (reduce+bcast)
gather / scatter      ``ceil(log2 q)·α + β·m_total``          (tree, pipelined)
allgatherv            ``ceil(log2 q)·α + β·m_recv_total``     (recursive dbl.)
alltoall(v)           ``α + (q−1)·γ + β·max(m_sent, m_recv)``
point-to-point        ``α + β·m``
====================  ====================================================

Large-message broadcasts/reductions use the scatter–allgather schedule of
[43] (latency ``log q``, volume ``≈ 2m`` independent of ``q``), which is
what MPICH switches to beyond the eager threshold.

The all-to-all charges LogP-style *overhead* ``γ`` per partner rather than
the full wire latency α: nonblocking sends to all partners are injected
back-to-back and overlap on the fabric, so a rank pays the network latency
once plus a per-message CPU/NIC injection cost.  (A strictly sequential
pairwise exchange — ``(q−1)·α`` — would mis-predict irregular algorithms
like TS-SpGEMM by an order of magnitude at scale.)

``m`` denotes message bytes.  The alltoallv formula matches the paper's
§III-E analysis of the pairwise-exchange algorithm used by MPI
implementations for long messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


def _ceil_log2(q: int) -> int:
    """Number of rounds of a binomial/recursive-doubling schedule."""
    if q <= 1:
        return 0
    return int(math.ceil(math.log2(q)))


#: Per-kernel compute-cost multipliers over ``spgemm_flop_time`` (which is
#: calibrated for a cache-resident batched SPA).  Measured on the
#: ``bench_micro_kernels`` workload (~38K semiring products, best-of wall
#: clock; see docs/kernels.md): ratios of each kernel's per-product time
#: to the batched SPA's.  These replace the blunt SPA/hash dichotomy when
#: the charging site knows which registry kernel actually ran — a forced
#: ``--kernel esc-vectorized`` run is now modelled ~4× slower per flop
#: than a SPA run, matching what the wall clock shows, instead of being
#: charged as if it were a SPA.  Unknown kernels (user-registered) fall
#: back to the accumulator-based rule.
KERNEL_COMPUTE_SCALE = {
    "spa": 1.0,            # 824 µs  (the calibration baseline)
    "scipy": 1.7,          # 1.43 ms — scipy's compiled routines on the raw arrays
    "esc-vectorized": 4.4,  # 3.66 ms — lexsort + reduceat
}


def accumulator_for(d: int) -> str:
    """The accumulator charged for output width ``d`` when no calibrated
    kernel constant applies — §III-C: "For d > 1024, we opt for a
    hash-based SpGEMM"."""
    return "spa" if d <= 1024 else "hash"


@dataclass(frozen=True)
class MachineProfile:
    """Calibrated constants describing one simulated machine.

    Parameters
    ----------
    alpha:
        Message latency in seconds.  Perlmutter's Slingshot-11 inter-node
        latency is a few microseconds.
    gamma:
        Per-message injection overhead (LogP's ``o``): the CPU/NIC cost of
        posting one nonblocking send/receive, paid per partner in
        all-to-all exchanges.  A few hundred nanoseconds.
    beta:
        Seconds per byte transferred (inverse bandwidth).  ~25 GB/s per NIC.
    spgemm_flop_time:
        Seconds per semiring multiply-add in a row-Gustavson SpGEMM with a
        cache-resident SPA.  Sparse flops are memory-bound; with 16 OpenMP
        threads per process the paper's platform sustains on the order of
        1e9 useful sparse flops/s per process.
    hash_flop_penalty:
        Multiplier over ``spgemm_flop_time`` for hash-accumulator flops
        (hashing beats SPA only once the SPA spills the cache).
    spa_cache_entries:
        SPA length (= d) beyond which the dense accumulator no longer fits
        the fast cache and SPA flops slow down by ``spa_spill_penalty``.
        The paper reports the crossover at d = 1024 (§III-C).
    spa_spill_penalty:
        SPA slowdown factor once spilled.
    spmm_flop_time:
        Seconds per flop for dense-accumulate SpMM (CSR × dense); streaming
        dense rows is faster per flop than sparse accumulation (§V-C).
    symbolic_discount:
        Fraction of a numeric SpGEMM flop charged for a *symbolic*
        (pattern-only) flop; the tile mode-selection step (§III-D) is
        symbolic, touching indices but no values.
    cache_bytes:
        Working-set size beyond which streaming through the received ``B``
        subset stops being cache-resident.  Used by the closed-form model
        (:mod:`repro.model`) to capture why the untiled 1-D algorithm
        degrades at moderate ``d`` while tiling keeps per-round footprints
        small (Fig 5 / Fig 8).
    mem_time:
        Seconds per byte for bulk local data movement (packing/unpacking,
        merging); models memory bandwidth.
    threads:
        In-node OpenMP threads per process (Table IV: 16).  Already folded
        into the per-flop constants; kept for reporting.
    """

    name: str = "perlmutter-cpu"
    alpha: float = 3.0e-6
    gamma: float = 2.0e-7
    beta: float = 1.0 / 25.0e9
    spgemm_flop_time: float = 1.0e-9
    hash_flop_penalty: float = 2.5
    spa_cache_entries: int = 1024
    spa_spill_penalty: float = 3.0
    spmm_flop_time: float = 2.0e-10
    symbolic_discount: float = 0.3
    mem_time: float = 1.0 / 100.0e9
    cache_bytes: float = 4.0e7
    threads: int = 16
    #: Checkpoint/recovery constants (the resilience layer,
    #: docs/resilience.md).  A checkpoint streams one rank's block payload
    #: to its replica home (neighbor ring or driver shadow) at roughly
    #: NIC bandwidth plus a small fixed cost for initiating the replica
    #: write; recovery streams it back and reinstalls it.  Charged under
    #: the dedicated ``checkpoint``/``recover`` phases so the overhead is
    #: visible in every report instead of silently free.
    checkpoint_alpha: float = 2.0e-5
    checkpoint_beta: float = 1.0 / 10.0e9
    recover_alpha: float = 5.0e-5
    recover_beta: float = 1.0 / 10.0e9

    # ------------------------------------------------------------------
    # compute costs
    # ------------------------------------------------------------------
    def spgemm_time(
        self,
        flops: int,
        *,
        d: int,
        accumulator: Optional[str] = None,
        kernel: Optional[str] = None,
    ) -> float:
        """Virtual seconds for ``flops`` semiring multiply-adds.

        ``d`` is the output row length (the SPA length).  When ``kernel``
        names a registry kernel with a calibrated constant
        (:data:`KERNEL_COMPUTE_SCALE`), that per-kernel multiplier is
        charged — the SPA-family kernels additionally pay the
        ``spa_spill_penalty`` once their dense scratch row (``d`` entries)
        no longer fits the fast cache, the paper's §III-C crossover.
        Otherwise the coarse ``accumulator`` dichotomy applies:
        ``"spa"``, ``"hash"`` or ``"esc"`` (expand-sort-compress, charged
        like hash); by default §III-C's choice for ``d``
        (:func:`accumulator_for`).
        """
        if flops <= 0:
            return 0.0
        per = self.spgemm_flop_time
        scale = KERNEL_COMPUTE_SCALE.get(kernel) if kernel is not None else None
        if scale is not None:
            per *= scale
            if kernel == "spa" and d > self.spa_cache_entries:
                per *= self.spa_spill_penalty
            return flops * per
        accumulator = accumulator or accumulator_for(d)
        if accumulator == "spa":
            if d > self.spa_cache_entries:
                per *= self.spa_spill_penalty
        elif accumulator in ("hash", "esc"):
            per *= self.hash_flop_penalty
        else:
            raise ValueError(f"unknown accumulator kind: {accumulator!r}")
        return flops * per

    def spmm_time(self, flops: int) -> float:
        """Virtual seconds for a CSR × dense multiply of ``flops`` flops."""
        return max(flops, 0) * self.spmm_flop_time

    def sddmm_time(self, flops: int) -> float:
        """Virtual seconds for ``flops`` SDDMM multiply-adds.

        An SDDMM streams dense rows and accumulates one dot product per
        stored pattern entry — the same dense-accumulate access pattern as
        SpMM, so it shares ``spmm_flop_time``.  Distributed SDDMMs must
        also charge the *rows they fetch* (as communication): the old
        driver-side-coefficients simplification computed them uncharged,
        which under-modelled every fused SDDMM→SpGEMM epoch.
        """
        return max(flops, 0) * self.spmm_flop_time

    def symbolic_time(self, flops: int, *, kernel: Optional[str] = None) -> float:
        """Virtual seconds for ``flops`` pattern-only (symbolic) operations.

        ``kernel`` applies the same calibrated per-kernel multiplier as
        :meth:`spgemm_time` — the symbolic pattern products run on a real
        registry kernel too (batched SPA for the boolean default, whose
        multiplier is 1.0, so default-path charges are unchanged).
        """
        per = self.spgemm_flop_time * self.symbolic_discount
        scale = KERNEL_COMPUTE_SCALE.get(kernel) if kernel is not None else None
        if scale is not None:
            per *= scale
        return max(flops, 0) * per

    def touch_time(self, nbytes: int) -> float:
        """Virtual seconds to stream ``nbytes`` through memory (merge/pack)."""
        return max(nbytes, 0) * self.mem_time

    def checkpoint_time(self, nbytes: int) -> float:
        """Virtual seconds to write one rank's ``nbytes`` checkpoint."""
        return self.checkpoint_alpha + self.checkpoint_beta * max(nbytes, 0)

    def recover_time(self, nbytes: int) -> float:
        """Virtual seconds to restore one rank's ``nbytes`` from a replica."""
        return self.recover_alpha + self.recover_beta * max(nbytes, 0)

    # ------------------------------------------------------------------
    # communication costs (per rank)
    # ------------------------------------------------------------------
    def p2p(self, nbytes: int) -> float:
        return self.alpha + self.beta * max(nbytes, 0)

    def barrier(self, q: int) -> float:
        return _ceil_log2(q) * self.alpha

    def bcast(self, q: int, nbytes: int) -> float:
        if q <= 1:
            return 0.0
        return _ceil_log2(q) * self.alpha + 2 * self.beta * max(nbytes, 0)

    def reduce(self, q: int, nbytes: int) -> float:
        if q <= 1:
            return 0.0
        return _ceil_log2(q) * self.alpha + 2 * self.beta * max(nbytes, 0)

    def allreduce(self, q: int, nbytes: int) -> float:
        return 2 * self.reduce(q, nbytes)

    def gather(self, q: int, total_nbytes: int) -> float:
        return _ceil_log2(q) * self.alpha + self.beta * max(total_nbytes, 0)

    def scatter(self, q: int, total_nbytes: int) -> float:
        return _ceil_log2(q) * self.alpha + self.beta * max(total_nbytes, 0)

    def allgather(self, q: int, total_recv_nbytes: int) -> float:
        return _ceil_log2(q) * self.alpha + self.beta * max(total_recv_nbytes, 0)

    def alltoallv(self, q: int, sent_nbytes: int, recv_nbytes: int) -> float:
        """Overlapped nonblocking exchange for one rank of an all-to-all:
        one wire latency, γ injection overhead per partner, β volume."""
        if q <= 1:
            return 0.0
        return (
            self.alpha
            + (q - 1) * self.gamma
            + self.beta * max(sent_nbytes, recv_nbytes, 0)
        )

    def alltoallv_fused(self, q: int, sections) -> float:
        """One *fused* exchange carrying several tagged sections.

        ``sections`` is an iterable of per-section ``(sent, recv)`` byte
        pairs.  The rank pays the wire latency α once and one γ injection
        per partner — the payloads to a given peer travel as a single
        combined message — while each section keeps its own
        ``β·max(sent, recv)`` bandwidth term.  Summing the per-section β
        terms (rather than taking the max of the sums) means fusion is
        never charged *cheaper in volume* than the separate exchanges it
        replaces: only the α·rounds and γ·partners·rounds latency terms
        shrink, which is exactly the fused communication layer's claim.
        """
        if q <= 1:
            return 0.0
        bandwidth = sum(self.beta * max(s, r, 0) for s, r in sections)
        return self.alpha + (q - 1) * self.gamma + bandwidth


#: Default profile used by the library (Perlmutter CPU partition).
PERLMUTTER = MachineProfile()

#: The benchmark profile.  The simulator runs matrices ~1000× smaller than
#: the paper's (Table V web crawls do not fit one machine), which shrinks
#: per-rank communication *volumes* by the same factor while per-message
#: latencies stay fixed — toy-scale runs would therefore be latency/compute
#: bound and hide the volume effects the paper measures.  Scaling β up (and
#: the per-flop times down, reflecting 16 OpenMP threads) restores the
#: paper's volume-to-compute ratio so measured orderings are comparable.
#: DESIGN.md §2 records this substitution; EXPERIMENTS.md quotes both this
#: profile's measurements and the closed-form model at full scale.
SCALED_PERLMUTTER = MachineProfile(
    name="perlmutter-scaled",
    beta=1.0 / 1.0e9,
    spgemm_flop_time=5.0e-10,
    spmm_flop_time=1.0e-10,
)

#: A higher-latency commodity-cluster profile, used by ablation benches to
#: show how the local/remote crossover shifts when latency dominates.
ETHERNET_CLUSTER = MachineProfile(
    name="ethernet-cluster",
    alpha=50.0e-6,
    gamma=2.0e-6,
    beta=1.0 / 1.2e9,
)

PROFILES = {p.name: p for p in (PERLMUTTER, SCALED_PERLMUTTER, ETHERNET_CLUSTER)}


def get_profile(name: str) -> MachineProfile:
    """Look up a named machine profile.

    Raises ``KeyError`` with the available names when unknown.
    """
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine profile {name!r}; available: {sorted(PROFILES)}"
        ) from None
