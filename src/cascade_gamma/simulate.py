"""Monte Carlo engines for the cascade-size distribution.

Two engines sample the same object through one generation loop:

- continuous: iterate X_{n+1} ~ Gamma(2 X_n, p) from X_0 = 1 and add
  the generations up; once a generation falls below SimConfig.epsilon
  (1e-9) the subcritical remainder x 2p/(1 - 2p) is added in
  expectation, which keeps the estimator exactly unbiased;
- discrete: atoms of mass delta = 1/m reproduce as NB(r*, q*) counts,
  a whole generation per draw through negative-binomial additivity,
  until a generation is empty.

The walk mode, the first passage to zero of S_t = m + sum_{i<=t} (V_i - 1)
with V_i ~ NB(r*, q*) i.i.d., runs on the discrete engine.  By the Dwass
(1969) hitting-time identity its first-passage time is the total atom
count, and from position k a stride of k steps is exactly one
NB(k r*, q*) generation draw.  Walk and discrete campaigns with equal
seeds therefore give equal numbers.

Both engines censor a trial on the same event, total mass above cap, and
censored trials never enter the sums or the histogram.

Reproducibility contract: trials are processed in fixed chunks of
CHUNK_TRIALS, chunk i drawing from its own PCG64 stream spawned as
(seed, i).  Campaign results are therefore identical for any worker
count.  A campaign returns a SimSummary of exact sums and counts; which
of its values are written, and under what names, cascade_gamma.cli
alone decides.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from ._lazy import np
from ._record import Record
from .continuum import _CRITICAL_P, ModelParams
from .discrete import DiscretizationParams, _integer
from .errors import DomainError

__all__ = [
    "CHUNK_TRIALS",
    "HIST_LO",
    "HIST_HI",
    "HIST_BINS",
    "HIST_EDGES",
    "SimConfig",
    "SimSummary",
    "run_campaign",
]

CHUNK_TRIALS = 16384

HIST_LO = 1.0
HIST_HI = 50.0
# Built at import, which loads a lazily bound numpy on the importing thread,
# before run_campaign starts any pool thread (see _lazy).  Edge j is
# (20 + j) / 20 rounded once, as the discrete engines' masses atoms / m
# are, so a mass on an edge is that edge's double and opens its bin.
HIST_EDGES = np.arange(20.0 * HIST_LO, 20.0 * HIST_HI + 1.0) / 20.0
HIST_BINS = HIST_EDGES.size - 1  # 980 bins 0.05 wide; mass above HIST_HI is overflow


_MODES = ("continuous", "discrete", "walk")


class SimConfig(Record):
    """Campaign description, immutable: the chunks, run on threads, share this one object.

    m is the atom count of the discretized engines and must be absent
    for the continuous one.  cap bounds the accumulated mass of one
    trial before it is censored; with m, max(1, 2p) cap m must stay
    below 2**62.  workers is an execution detail: it never affects the
    drawn numbers.  epsilon is not a field: the continuous engine always
    stops a trial once a generation falls to it or below.
    """

    __slots__ = ("mode", "p", "trials", "seed", "m", "cap", "workers")

    epsilon = 1e-9

    def __init__(self, mode: str, p: float, trials: int, seed: int, m: int | None = None,
                 cap: float = 1e6, workers: int = 1):
        if mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
        p = ModelParams(p).p
        trials = _integer(trials, "trials")
        seed = _integer(seed, "seed")
        workers = _integer(workers, "workers")
        if trials < 1:
            raise DomainError(f"trials must be >= 1, got {trials}")
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {seed}")
        if workers < 1:
            raise DomainError(f"workers must be >= 1, got {workers}")
        cap_value = float(cap)
        if not (math.isfinite(cap_value) and cap_value > 1.0):
            raise DomainError(f"cap must be finite and > 1, got {cap!r}")
        if mode == "continuous":
            if m is not None:
                raise DomainError("continuous mode takes no atom count m")
        else:
            if m is None:
                raise DomainError(f"{mode} mode requires the atom count m")
            m = _integer(m, "m")
            DiscretizationParams(p, m)  # validates m against p
            # A live generation holds at most cap m atoms and draws about
            # 2p times as many; numpy's Poisson sampler and the int64
            # totals take counts below 2**63.
            if not max(1.0, 2.0 * p) * cap_value * m < 2.0**62:
                raise DomainError(f"{mode} mode needs max(1, 2p) cap m < 2**62, got p = {p!r}, "
                                  f"cap = {cap_value!r}, m = {m}")
        super().__init__(mode, p, trials, seed, m, cap_value, workers)


def _rng_stream(seed: int, stream_index: int) -> np.random.Generator:
    """Deterministic generator for one chunk: PCG64 spawned at (seed, index)."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(stream_index,))
    return np.random.Generator(np.random.PCG64(sequence))


def _generations(start, offspring, cap, floor):
    """Run every trial generation by generation; return (last, total, censored).

    start is generation 0 of each trial and offspring(alive) draws the
    next generation of the given trials.  A trial stops once its total
    exceeds cap, which censors it, or a generation is no larger than
    floor; last holds its final generation.  start itself becomes last,
    so the loop holds two chunk-sized arrays, not three: a third one
    raised the peak memory of two-thread campaigns.
    """
    alive = start
    total = start.copy()
    idx = np.arange(start.size)  # the live trials, ascending
    while idx.size:
        born = offspring(alive[idx])
        alive[idx] = born
        grown = total[idx] + born
        total[idx] = grown
        idx = idx[(grown <= cap) & (born > floor)]
    return alive, total, total > cap  # totals only grow and are never NaN


class SimSummary(Record):
    """Mergeable campaign statistics over the finite (uncensored) trials.

    Sums are held as Fractions of the chunk-level float sums, so merging
    and the variance's sum_z_sq - sum_z^2 / n are exact.  run_campaign
    merges in chunk order anyway, so order-independence is not why: in
    floats that difference cancels once mean^2 >> variance, as at small
    p, where the variance is 2 p^2 / (1 - 2p)^3 against a mean near one.
    The histogram counts the finite trials' masses in the 0.05-wide
    bins of HIST_EDGES on [1, 50], the last one closed; overflow counts
    the rest, the masses above 50.  trials is n_finite + n_censored.
    """

    __slots__ = ("n_finite", "n_censored", "sum_z", "sum_z_sq", "bin_counts")

    # Identity equality: a summary equals only itself.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n_finite: int, n_censored: int, sum_z: Fraction, sum_z_sq: Fraction,
                 bin_counts: np.ndarray):
        if min(n_finite, n_censored) < 0:
            raise DomainError("summary counters must be nonnegative")
        counts = np.asarray(bin_counts, dtype=np.int64)
        if counts.shape != (HIST_BINS,):
            raise DomainError(f"bin_counts must have shape ({HIST_BINS},)")
        if counts.min(initial=0) < 0:
            raise DomainError("bin_counts must be nonnegative")
        if int(counts.sum()) > n_finite:
            raise DomainError("histogram counts more masses than finite trials")
        super().__init__(n_finite, n_censored, sum_z, sum_z_sq, counts)

    @property
    def overflow(self) -> int:
        return self.n_finite - int(self.bin_counts.sum())

    @property
    def trials(self) -> int:
        return self.n_finite + self.n_censored

    @property
    def finite_fraction(self) -> float:
        return self.n_finite / self.trials

    @property
    def mean(self) -> float | None:
        if self.n_finite == 0:
            return None
        return float(self.sum_z / self.n_finite)

    @property
    def variance(self) -> float | None:
        """Unbiased sample variance of the finite trials' mass."""
        if self.n_finite < 2:
            return None
        n = self.n_finite
        spread = self.sum_z_sq - self.sum_z * self.sum_z / n
        if spread < 0:  # exact arithmetic; only rounded inputs can graze zero
            spread = Fraction(0)
        return float(spread / (n - 1))

    @property
    def se_mean(self) -> float | None:
        variance = self.variance
        if variance is None or self.n_finite == 0:
            return None
        return math.sqrt(variance / self.n_finite)

    def merge(self, other: "SimSummary") -> "SimSummary":
        return SimSummary(
            n_finite=self.n_finite + other.n_finite,
            n_censored=self.n_censored + other.n_censored,
            sum_z=self.sum_z + other.sum_z,
            sum_z_sq=self.sum_z_sq + other.sum_z_sq,
            bin_counts=self.bin_counts + other.bin_counts,
        )


def _chunk_mass(config: SimConfig, index: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Total mass and censoring flag of each trial of chunk index."""
    gen = _rng_stream(config.seed, index)
    if config.mode == "continuous":
        p = config.p
        # At huge p a draw times p overflows to inf, which censors its trial.
        with np.errstate(over="ignore"):
            last, z, censored = _generations(
                np.ones(size), lambda x: gen.standard_gamma(2.0 * x) * p, config.cap,
                config.epsilon)
        if p < _CRITICAL_P:
            finite = ~censored
            z[finite] += last[finite] * (2.0 * p / (1.0 - 2.0 * p))
        return z, censored
    params = DiscretizationParams(config.p, config.m)
    scale = params.q_star / (1.0 - params.q_star)
    _, atoms, censored = _generations(
        np.full(size, params.m, dtype=np.int64),
        lambda alive: gen.poisson(gen.standard_gamma(alive * params.r_star) * scale),
        config.cap * params.m, 0)
    # atoms / m, not atoms * delta: m * (1/m) rounds below 1 at m = 49, 98, ...,
    # and the founders alone must weigh exactly 1.
    return atoms / params.m, censored


def _run_chunk(task: tuple[SimConfig, int, int]) -> SimSummary:
    config, index, size = task
    z, censored = _chunk_mass(config, index, size)
    z_finite = z[~censored]
    if z_finite.size and float(z_finite.min()) < 1.0:
        raise DomainError("engine produced a total mass below the founder mass")
    return SimSummary(
        n_finite=int(z_finite.size),
        n_censored=size - int(z_finite.size),
        sum_z=Fraction(float(z_finite.sum())),
        sum_z_sq=Fraction(float(np.square(z_finite).sum())),
        # histogram leaves out the masses above HIST_HI: they are the overflow.
        bin_counts=np.histogram(z_finite, bins=HIST_EDGES)[0],
    )


def run_campaign(config: SimConfig) -> SimSummary:
    """Run every trial of the campaign and merge the chunk summaries.

    Chunk i always draws from _rng_stream(config.seed, i) whatever the
    scheduling, so any workers setting yields the same summary.
    """
    full, remainder = divmod(config.trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full + ([remainder] if remainder else [])
    tasks = [(config, index, size) for index, size in enumerate(sizes)]
    if config.workers == 1 or len(tasks) == 1:
        parts = [_run_chunk(task) for task in tasks]
    else:
        # Threads skip a process's fork and pickling; the Python glue holds the
        # interpreter lock, so 2 workers pay only on a free second core: a 13-chunk
        # campaign ran at 0.57-0.65x serial on a 2-core VM, 0.84-0.93x beside a busy one.
        with ThreadPoolExecutor(max_workers=min(config.workers, len(tasks))) as pool:
            parts = list(pool.map(_run_chunk, tasks))
    summary = parts[0]
    for part in parts[1:]:
        summary = summary.merge(part)
    if summary.trials != config.trials:
        raise DomainError("chunk accounting lost trials; this is a bug")
    return summary
