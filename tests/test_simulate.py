"""Unit tests for the Monte Carlo engines and campaign plumbing.

Statistical assertions use fixed seeds and 4-standard-error bands, so
they are deterministic reruns of draws that were checked to land well
inside the bands; each test notes where its draw landed.

The walk mode runs on the discrete engine (Dwass identity), so its
statistical reference is the per-step walk below, which retires one
atom per step and lives only in this file.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from cascade_gamma import (
    DiscretizationParams,
    DomainError,
    ModelParams,
    SimConfig,
    SimSummary,
    moments,
    run_campaign,
)
from cascade_gamma import cli, simulate
from cascade_gamma.simulate import CHUNK_TRIALS, HIST_BINS, HIST_EDGES, HIST_HI, _chunk_mass, _rng_stream

P_FINITE_06 = 0.49243218436184857  # exp(-decay gap) at p = 0.6, bisection oracle


class _NoOffspring:
    """Generator stub whose every brood is empty."""

    def gamma(self, shape, scale, size=None):
        return np.zeros(np.shape(shape) if size is None else size)

    def standard_gamma(self, shape):
        return np.zeros(np.shape(shape))

    def poisson(self, rate):
        assert not np.any(rate)
        return np.zeros(np.shape(rate), dtype=np.int64)


def _nb_sample(gen, r, q, size):
    """NB(r, q) draws as Poisson(L), L ~ Gamma(r, q / (1 - q))."""
    return gen.poisson(gen.gamma(r, q / (1.0 - q), size=size)).astype(np.int64)


def _per_step_walk(gen, count, params, cap):
    """Reference walk: one atom retired per step; returns (steps, censored).

    S_t = m + sum_{i<=t} (V_i - 1) with V_i ~ NB(r*, q*) i.i.d. first
    hits zero at the total atom count.  Each step moves the position by
    at least -1, so steps + position > cap m already implies a total
    above cap m: the censoring event is the discrete engine's.
    """
    cap_atoms = cap * params.m
    position = np.full(count, params.m, dtype=np.int64)
    steps = np.zeros(count, dtype=np.int64)
    censored = np.zeros(count, dtype=bool)
    active = np.ones(count, dtype=bool)
    while True:
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        doomed = (steps[idx] + position[idx]).astype(np.float64) > cap_atoms
        censored[idx[doomed]] = True
        active[idx[doomed]] = False
        idx = idx[~doomed]
        births = _nb_sample(gen, params.r_star, params.q_star, idx.size)
        position[idx] += births - 1
        steps[idx] += 1
        active[idx] = position[idx] > 0
    return steps, censored


def _binned(steps, censored, params):
    """Histogram counts plus overflow of the finite trials, as in a summary."""
    z = steps[~censored] * params.delta
    counts = np.histogram(z[z <= HIST_HI], bins=HIST_EDGES)[0]
    return np.append(counts, np.count_nonzero(z > HIST_HI))


# -------------------------------------------------------------- rng streams


def test_rng_stream_is_deterministic():
    a = _rng_stream(1234, 0).standard_normal(8)
    b = _rng_stream(1234, 0).standard_normal(8)
    c = _rng_stream(1234, 1).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ------------------------------------------------ reference walk step law


def test_nb_sample_geometric_atom():
    # Landed at z = +0.02.
    n = 50_000
    zeros = np.count_nonzero(_nb_sample(_rng_stream(104, 0), 1.0, 0.5, n) == 0) / n
    assert abs(zeros - 0.5) <= 4.0 * math.sqrt(0.25 / n)


def test_nb_sample_atomic_count_mean():
    # Landed at z = +1.68.
    params = DiscretizationParams(0.3, 100)
    n = 100_000
    counts = _nb_sample(_rng_stream(105, 0), params.r_star, params.q_star, n)
    variance = params.r_star * params.q_star / (1.0 - params.q_star) ** 2
    assert abs(counts.mean() - 0.6) <= 4.0 * math.sqrt(variance / n)


def test_nb_sample_pmf_chi_square():
    # Empirical counts against the analytic pmf over n <= 30, cells with
    # expected count < 10 pooled into the tail.  Landed at 30.1 on 31
    # df, z = (X - df)/sqrt(2 df) = -0.12; the 0.999 quantile is 61.1.
    params = DiscretizationParams(0.3, 100)
    r, q = params.r_star, params.q_star
    n_draws = 100_000
    draws = _nb_sample(_rng_stream(106, 0), r, q, n_draws)

    pmf = stats.nbinom.pmf(np.arange(0, 31), r, 1.0 - q)
    expected = np.append(pmf, 1.0 - pmf.sum()) * n_draws
    observed = np.append(
        np.bincount(np.minimum(draws, 31), minlength=32)[:31], np.sum(draws > 30)
    ).astype(float)
    keep = expected >= 10.0
    if not keep.all():
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    statistic = float(((observed - expected) ** 2 / expected).sum())
    critical = stats.chi2.ppf(0.999, df=len(expected) - 1)
    assert statistic <= critical


# ------------------------------------------------------------------ engines


def test_continuous_trial_is_deterministic():
    config = SimConfig(mode="continuous", p=0.3, trials=64, seed=7)
    first = _chunk_mass(config, 0, 64)
    again = _chunk_mass(config, 0, 64)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    z, censored = first
    assert (z > 1.0).all() and not censored.any()


# Two-chunk campaigns pinned draw for draw: float.hex of sum_z and
# sum_z_sq, n_censored and the sha256 of the little-endian int64 bin
# counts.  Any change to an engine that moves a draw shows here, and so
# does a numpy release that changes its gamma or Poisson sampler.  Walk
# runs the discrete engine, so its pin is the discrete one.
_DISCRETE_PIN = ("0x1.5ef599999999ap+14", "0x1.7565e66666666p+17", 14055,
                 "d10450fb0a8af3c299bafc624367b1f4e65f674bbc2e45ef72f66bc8a13d2e8a")


@pytest.mark.parametrize("mode, p, m, pin", [
    ("continuous", 0.3, None, ("0x1.8440da85638b2p+15", "0x1.5be2d04f0a1b9p+17", 0,
                               "f6ba5d0d80b30958ed4d077646645fce09cedce3fa394e1a81847295184b20f2")),
    ("discrete", 0.7, 10, _DISCRETE_PIN),
    ("walk", 0.7, 10, _DISCRETE_PIN),
])
def test_campaign_draws_are_frozen(mode, p, m, pin):
    config = SimConfig(mode=mode, p=p, m=m, trials=CHUNK_TRIALS + 3616, seed=20130415)
    summary = run_campaign(config)
    assert (
        float(summary.sum_z).hex(),
        float(summary.sum_z_sq).hex(),
        summary.n_censored,
        hashlib.sha256(summary.bin_counts.astype("<i8").tobytes()).hexdigest(),
    ) == pin


def test_continuous_trial_subcritical_mean():
    # Landed at z = +1.25.
    summary = run_campaign(SimConfig(mode="continuous", p=0.3, trials=20_000, seed=107))
    assert summary.n_censored == 0
    assert abs(summary.mean - moments(ModelParams(0.3)).mean) <= 4.0 * summary.se_mean


def test_continuous_trial_supercritical_censoring():
    # Every censored trial at cap 1e4 is an infinite cascade up to
    # e^{-300}.  Landed at z = +0.01.
    n = 20_000
    summary = run_campaign(SimConfig(mode="continuous", p=0.6, trials=n, seed=108, cap=1e4))
    se = math.sqrt(P_FINITE_06 * (1.0 - P_FINITE_06) / n)
    assert abs(summary.n_censored / n - (1.0 - P_FINITE_06)) <= 4.0 * se


def test_discrete_trial_mean():
    # Landed at z = -1.26.
    summary = run_campaign(SimConfig(mode="discrete", p=0.25, m=20, trials=20_000, seed=109))
    assert abs(summary.mean - 2.0) <= 4.0 * summary.se_mean


def test_walk_trial_mean_matches_discrete_law():
    # The reference walk against the exact mean 1/(1 - 2p).  Landed at
    # z = +0.12.
    params = DiscretizationParams(0.25, 20)
    n = 20_000
    steps, censored = _per_step_walk(_rng_stream(110, 0), n, params, 1e6)
    assert not censored.any()
    zs = steps * params.delta
    se = zs.std(ddof=1) / math.sqrt(n)
    assert abs(zs.mean() - 2.0) <= 4.0 * se


def test_walk_trial_no_offspring_stops_at_founder_count(monkeypatch):
    params = DiscretizationParams(0.3, 10)
    steps, censored = _per_step_walk(_NoOffspring(), 5, params, 1e6)
    assert steps.tolist() == [10] * 5
    assert not censored.any()
    # Both engines stop after one empty generation at the founder mass.
    monkeypatch.setattr(simulate, "_rng_stream", lambda seed, index: _NoOffspring())
    for mode, m in (("walk", 10), ("continuous", None)):
        z, censored = _chunk_mass(SimConfig(mode=mode, p=0.3, m=m, trials=5, seed=1), 0, 5)
        assert z.tolist() == [1.0] * 5
        assert not censored.any()


@pytest.mark.parametrize("mode", ["discrete", "walk"])
@pytest.mark.parametrize("m", [49, 98])
def test_founders_alone_weigh_exactly_one(mode, m):
    # m * (1/m) rounds to 0.9999999999999999 at these m, which once made
    # every founders-only trial fail the engine's founder-mass check.
    # About 0.3% (m = 49) and 0.09% (m = 98) of the trials are founders only.
    config = SimConfig(mode=mode, p=0.3, m=m, trials=20_000, seed=1)
    z, censored = _chunk_mass(config, 0, config.trials)
    assert not censored.any()
    assert z.min() == 1.0 and np.count_nonzero(z == 1.0) >= 5
    assert run_campaign(config).n_finite == config.trials


@pytest.mark.parametrize("m", [10, 20, 40, 49, 98])
def test_lattice_masses_fall_in_the_bin_their_edge_opens(m):
    # Every mass k/m of [1, 50), as the discrete engines compute it; the
    # bin is counted in integers.  Edges from np.linspace once put 7 of
    # m = 10's masses (k * delta) a bin low, and 161 of them as k / m.
    atoms = np.arange(m, 50 * m)
    counts = np.histogram(atoms / m, bins=HIST_EDGES)[0]
    assert counts.tolist() == np.bincount((atoms - m) * 20 // m, minlength=HIST_BINS).tolist()


def test_masses_on_and_above_the_top_edge(monkeypatch):
    # The last bin is closed, so a mass of exactly HIST_HI is counted in
    # it; the masses above, by one ulp or more, are the overflow.
    masses = np.array([1.0, 49.95, 50.0, math.nextafter(50.0, math.inf), 1e3])
    monkeypatch.setattr(simulate, "_chunk_mass", lambda config, index, size: (
        masses.copy(), np.zeros(size, dtype=bool)))
    config = SimConfig(mode="continuous", p=0.3, trials=masses.size, seed=1)
    summary = simulate._run_chunk((config, 0, masses.size))
    assert summary.bin_counts[0] == 1 and summary.bin_counts[-1] == 2
    assert int(summary.bin_counts.sum()) == 3 and summary.overflow == 2
    merged = summary.merge(summary)
    assert merged.overflow == merged.n_finite - int(merged.bin_counts.sum()) == 4


def test_walk_law_matches_reference_walk():
    # Two-sample chi-square on the binned law at p = 0.3, m = 10, cells
    # with a pooled expected count < 10 merged.  Landed at 108.4 on 100
    # df, z = (X - df)/sqrt(2 df) = +0.60; the 0.999 quantile is 149.4.
    params = DiscretizationParams(0.3, 10)
    n = 50_000
    reference = _binned(*_per_step_walk(_rng_stream(115, 0), n, params, 1e6), params)
    walk = run_campaign(SimConfig(mode="walk", p=0.3, m=10, trials=n, seed=116))
    campaign = np.append(walk.bin_counts, walk.overflow)
    pooled = reference + campaign
    keep = pooled >= 20
    a = np.append(reference[keep], reference[~keep].sum()).astype(float)
    b = np.append(campaign[keep], campaign[~keep].sum()).astype(float)
    statistic = float(((a - b) ** 2 / (a + b)).sum())
    critical = stats.chi2.ppf(0.999, df=len(a) - 1)
    assert statistic <= critical


def test_boundary_atom_frequency():
    # P{T = m} = (delta/p)^(2p/(p - delta)) -- 1/27 here.  It never tends
    # to one in any p -> 0 regime: with delta = p/2 it tends to 1/16.
    # T = m is mass exactly 1, the first histogram bin.  Reference walk
    # landed at z = -0.11, the walk campaign at z = -1.63.
    params = DiscretizationParams(0.3, 10)
    want = (params.delta / params.p) ** (2.0 * params.p / (params.p - params.delta))
    assert want == pytest.approx(1.0 / 27.0, rel=1e-13)
    n = 50_000
    se = math.sqrt(want * (1.0 - want) / n)
    steps, _ = _per_step_walk(_rng_stream(111, 0), n, params, 1e6)
    assert abs(np.count_nonzero(steps == 10) / n - want) <= 4.0 * se
    walk = run_campaign(SimConfig(mode="walk", p=0.3, m=10, trials=n, seed=117))
    assert abs(walk.bin_counts[0] / n - want) <= 4.0 * se


def test_censoring_event_agrees_across_engines():
    # The reference walk and the walk campaign both censor exactly on
    # {total atoms > cap m}.  Landed at z = -1.34.
    params = DiscretizationParams(0.6, 10)
    n = 20_000
    _, censored = _per_step_walk(_rng_stream(112, 0), n, params, 20.0)
    walk = run_campaign(SimConfig(mode="walk", p=0.6, m=10, trials=n, seed=113, cap=20.0))
    reference, campaign = censored.mean(), walk.n_censored / n
    pooled = 0.5 * (reference + campaign)
    assert abs(reference - campaign) <= 4.0 * math.sqrt(2.0 * pooled * (1.0 - pooled) / n)


# ------------------------------------------------------------------ config


@pytest.mark.parametrize("name", ["trials", "seed", "workers", "m"])
def test_sim_config_integers_take_numpy_integers_only(name):
    # Checked by operator.index: a bool, a float or a string is refused,
    # a numpy integer is stored as the int it holds.
    fields = dict(mode="discrete" if name == "m" else "continuous", p=0.3, trials=10, seed=1)
    for bad in (True, 2.0, 10.7, "10"):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            SimConfig(**{**fields, name: bad})
    value = getattr(SimConfig(**{**fields, name: np.int64(10)}), name)
    assert value == 10 and type(value) is int


def test_sim_config_validation():
    good = SimConfig(mode="continuous", p=0.3, trials=10, seed=1)
    assert good.m is None
    disc = SimConfig(mode="walk", p=0.3, trials=10, seed=1, m=10)
    assert disc.m == 10
    with pytest.raises(DomainError):
        SimConfig(mode="lattice", p=0.3, trials=10, seed=1)
    with pytest.raises(DomainError):
        SimConfig(mode="continuous", p=0.3, trials=10, seed=1, m=10)
    with pytest.raises(DomainError):
        SimConfig(mode="discrete", p=0.3, trials=10, seed=1)
    with pytest.raises(DomainError):
        SimConfig(mode="discrete", p=0.3, trials=10, seed=1, m=3)
    with pytest.raises(DomainError):
        SimConfig(mode="continuous", p=0.3, trials=0, seed=1)
    with pytest.raises(DomainError):
        SimConfig(mode="continuous", p=0.3, trials=10, seed=-1)
    with pytest.raises(DomainError):
        SimConfig(mode="continuous", p=0.3, trials=10, seed=2**64)
    with pytest.raises(DomainError):
        SimConfig(mode="continuous", p=0.3, trials=10, seed=1, cap=1.0)
    with pytest.raises(DomainError):
        SimConfig(mode="continuous", p=0.3, trials=10, seed=1, workers=0)


# ---------------------------------------------------------------- summaries


def _summaries_equal(a: SimSummary, b: SimSummary) -> bool:
    return (
        a.trials == b.trials
        and a.n_finite == b.n_finite
        and a.n_censored == b.n_censored
        and a.sum_z == b.sum_z
        and a.sum_z_sq == b.sum_z_sq
        and np.array_equal(a.bin_counts, b.bin_counts)
        and a.overflow == b.overflow
    )


def test_summary_invariants_are_enforced():
    counts = np.zeros(HIST_BINS, dtype=np.int64)
    counts[0] = 2
    sums = dict(sum_z=Fraction(3), sum_z_sq=Fraction(5))
    assert SimSummary(n_finite=2, n_censored=1, bin_counts=counts, **sums).overflow == 0
    # The finite trials the histogram leaves out are the overflow.
    assert SimSummary(n_finite=3, n_censored=0, bin_counts=counts, **sums).overflow == 1
    with pytest.raises(DomainError, match="more masses than finite trials"):
        SimSummary(n_finite=1, n_censored=1, bin_counts=counts, **sums)
    with pytest.raises(DomainError, match="nonnegative"):
        SimSummary(n_finite=2, n_censored=-1, bin_counts=counts, **sums)
    with pytest.raises(DomainError, match="nonnegative"):
        SimSummary(n_finite=2, n_censored=1, bin_counts=-counts, **sums)
    with pytest.raises(DomainError, match="shape"):
        SimSummary(n_finite=2, n_censored=1, bin_counts=counts[1:], **sums)


def test_summary_statistics_and_merge():
    config = SimConfig(mode="continuous", p=0.25, trials=40_000, seed=314)
    whole = run_campaign(config)
    assert whole.trials == 40_000
    assert whole.n_finite + whole.n_censored == whole.trials
    assert int(whole.bin_counts.sum()) + whole.overflow == whole.n_finite
    assert whole.se_mean is not None
    assert abs(whole.mean - 2.0) <= 4.0 * whole.se_mean

    exact = moments(ModelParams(0.25))
    spread = abs(whole.variance - exact.variance)
    assert spread <= 0.2 * exact.variance  # loose; variance of s^2 is fat here

    # Merge is exactly the whole-campaign summary, in either order.
    from cascade_gamma.simulate import _run_chunk

    parts = [_run_chunk((config, 0, 16_384)), _run_chunk((config, 1, 16_384)),
             _run_chunk((config, 2, 7_232))]
    forward = parts[0].merge(parts[1]).merge(parts[2])
    backward = parts[2].merge(parts[1].merge(parts[0]))
    assert _summaries_equal(forward, whole)
    assert _summaries_equal(backward, whole)
    assert forward.sum_z == backward.sum_z  # Fraction arithmetic, no rounding


def test_summary_small_count_edge_cases():
    one = run_campaign(SimConfig(mode="continuous", p=0.3, trials=1, seed=5))
    assert one.variance is None and one.se_mean is None
    assert one.mean is not None


def _simulate_json(*argv: str) -> str:
    """The JSON payload that cli.main writes for simulate with argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["simulate", *argv]) == 0
    return out.getvalue()


def test_summary_json_dict_round_trip_fields():
    # The CLI's JSON payload of a summary: the config echo, the counts
    # and the histogram, read back as the summary's own fields.
    summary = run_campaign(SimConfig(mode="walk", p=0.3, trials=500, seed=9, m=10))
    payload = json.loads(_simulate_json("--mode", "walk", "--p", "0.3", "--trials", "500",
                                        "--seed", "9", "--m", "10"))
    assert payload["config"] == {"mode": "walk", "p": 0.3, "m": 10, "delta": 0.1, "trials": 500,
                                 "seed": 9, "cap": 1e6, "epsilon": 1e-9, "workers": 1}
    assert (payload["trials"], payload["n_finite"], payload["n_censored"]) == (
        500, summary.n_finite, summary.n_censored)
    assert (payload["mean"], payload["variance"], payload["se_mean"]) == (
        summary.mean, summary.variance, summary.se_mean)
    assert (payload["sum_z"], payload["sum_z_sq"]) == (float(summary.sum_z), float(summary.sum_z_sq))
    assert payload["finite_fraction"] == summary.finite_fraction
    assert payload["histogram"]["counts"] == summary.bin_counts.tolist()
    assert len(payload["histogram"]["counts"]) == HIST_BINS
    assert sum(payload["histogram"]["counts"]) + payload["histogram"]["overflow"] == summary.n_finite


# ---------------------------------------------------------------- campaigns


def test_campaign_workers_do_not_change_the_result():
    config1 = SimConfig(mode="continuous", p=0.3, trials=40_000, seed=2718, workers=1)
    config3 = SimConfig(mode="continuous", p=0.3, trials=40_000, seed=2718, workers=3)
    serial = run_campaign(config1)
    parallel = run_campaign(config3)
    assert _summaries_equal(serial, parallel)


def test_campaign_threads_share_chunks_and_end_with_the_call():
    # Three chunks on two threads, one of which runs two, with the
    # interpreter switching threads as often as it can.
    base = dict(mode="continuous", p=0.3, trials=40_000, seed=2718)
    serial = run_campaign(SimConfig(workers=1, **base))
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_campaign(SimConfig(workers=2, **base))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert _summaries_equal(serial, parallel)


def test_campaign_raises_a_worker_failure(monkeypatch):
    def failing(task):
        if task[1] == 1:
            raise DomainError("chunk 1 failed")
        return real(task)

    real = simulate._run_chunk
    monkeypatch.setattr(simulate, "_run_chunk", failing)
    config = SimConfig(mode="continuous", p=0.3, trials=2 * 16384, seed=5, workers=2)
    with pytest.raises(DomainError, match="chunk 1 failed"):
        run_campaign(config)


def test_walk_and_discrete_campaigns_are_identical():
    # One engine serves both modes, so equal seeds give equal payloads
    # but for the mode echoed.
    for extra in (("--p", "0.3"), ("--p", "0.6", "--cap", "20")):
        base = ("--trials", "20000", "--m", "10", "--seed", "424242", *extra)
        branch = _simulate_json("--mode", "discrete", *base)
        walk = _simulate_json("--mode", "walk", *base)
        assert walk.count('"mode": "walk"') == 1
        assert walk.replace('"mode": "walk"', '"mode": "discrete"') == branch


def test_campaign_supercritical_finite_fraction():
    config = SimConfig(mode="continuous", p=0.6, trials=20_000, seed=31337)
    summary = run_campaign(config)
    se = math.sqrt(P_FINITE_06 * (1.0 - P_FINITE_06) / config.trials)
    assert abs(summary.finite_fraction - P_FINITE_06) <= 4.0 * se
