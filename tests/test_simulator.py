"""Monte-Carlo simulator tests: channel statistics, the MMSE combiner against
hand-computed small cases, stream determinism, and agreement with the
analytic distribution."""

import errno
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import sinrdist.simulator
from sinrdist import (
    EmpiricalDistribution,
    GaussianCluster,
    LinkConfig,
    PiecewisePowerLaw,
    PolynomialWithTail,
    PowerLaw,
    PsiEvaluator,
    SimConfig,
    SinrDistribution,
    campaign_truncation_radius,
    cdf_gamma,
    default_truncation_radius,
    draw_channels,
    draw_network,
    mean_count,
    mmse_sinr,
    psi_piecewise,
    psi_polynomial,
    psi_power_law,
    regularized_lower_gamma,
    run_campaign,
    run_trial,
    run_trials,
    sample_location,
    trial_rng,
    DiskRegion,
)
from sinrdist.intensity import ConfigError
from sinrdist.interference import _outer_term
from sinrdist.specfun import ANTENNAS_MAX

LINK = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=10.0, L=4)


# ---------------------------------------------------------------------------
# streams


def test_trial_rng_reproducible_and_distinct():
    a = trial_rng(42, 7).random(8)
    b = trial_rng(42, 7).random(8)
    np.testing.assert_array_equal(a, b)
    c = trial_rng(42, 8).random(8)
    d = trial_rng(43, 7).random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_trial_rng_seeds_outside_int64_get_their_own_streams():
    # key words of 2^63 or more went through float64: seeds -1 and -2 replayed
    # seed 0, and 2^63 + 1 and 2^63 + 2 each other, each with a RuntimeWarning
    seeds = [0, -1, -2, 2**63, 2**63 + 1, 2**63 + 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = {trial_rng(seed, 3).random(4).tobytes() for seed in seeds}
    assert len(draws) == len(seeds)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Given seed words, for numpy's own seeding of a bit generator."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words[:n_words]


class _Outputs:
    """Stands in for the Philox bit generator: its state is kept, not used,
    and its outputs are the words given."""

    def __init__(self, words):
        self.words = words

    def random_raw(self, n):
        return self.words[:n]


@pytest.mark.parametrize("seed", [0, 1, 123, 2**62 + 5, 2**63 - 1])
def test_trial_rng_keeps_the_streams_of_int64_seeds(seed):
    """The Philox key is (seed, index) in uint64 words: for int64 seeds the
    SFC64 seed words are those of Philox(key=[seed, index]), its first three
    outputs."""
    for index in (0, 7, 2**63 - 1):
        words = np.random.Philox(key=[seed, index]).random_raw(3)
        old = np.random.Generator(np.random.SFC64(_SeedWords(words)))
        assert trial_rng(seed, index).random(4).tobytes() == old.random(4).tobytes()


def test_trial_streams_take_numpys_own_sfc64_seeding():
    """Three seed words into the SFC64 state, a counter of 1 and 12 outputs
    discarded is what np.random.SFC64 does with a SeedSequence's words."""
    ss = np.random.SeedSequence(20111)
    rng = np.random.Generator(np.random.SFC64(0))
    sinrdist.simulator._key_trial(_Outputs(ss.generate_state(3, np.uint64)), rng, 0, 0)
    expected = np.random.SFC64(ss).random_raw(1000)
    assert rng.bit_generator.random_raw(1000).tobytes() == expected.tobytes()


def test_consecutive_trial_streams_start_independent():
    """The first normal of each of 1e4 consecutive trial streams: KS below
    the 5% critical value 1.36/sqrt(n), lag-1 correlation below 4/sqrt(n)."""
    n = 10_000
    z = np.array([trial_rng(1, t).standard_normal() for t in range(n)])
    assert scipy.stats.kstest(z, "norm").statistic < 1.36 / math.sqrt(n)
    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 4.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# network draws


def test_draw_network_empty_cases():
    rng = trial_rng(0, 0)
    assert draw_network(PowerLaw(rho=0.0, eps=0.0), 10.0, rng).size == 0


def test_draw_network_poisson_mean():
    model = PowerLaw(rho=0.01, eps=0.0)
    R = 20.0
    mu = mean_count(model, DiskRegion(R))
    rng = trial_rng(5, 0)
    draws = 10_000
    counts = [draw_network(model, R, rng).size for _ in range(draws)]
    sem = math.sqrt(mu / draws)
    assert abs(np.mean(counts) - mu) < 3.0 * sem
    assert np.all(np.asarray(counts) >= 0)


def test_draw_network_area_scaling():
    model = PowerLaw(rho=0.02, eps=0.0)
    assert mean_count(model, DiskRegion(20.0)) == pytest.approx(
        4.0 * mean_count(model, DiskRegion(10.0)), rel=1e-12
    )
    rng = trial_rng(6, 0)
    big = np.mean([draw_network(model, 20.0, rng).size for _ in range(4000)])
    small = np.mean([draw_network(model, 10.0, rng).size for _ in range(4000)])
    assert big / small == pytest.approx(4.0, rel=0.1)


def test_draw_network_radii_in_range():
    model = GaussianCluster(rho=1.0, v=5.0)
    radii = draw_network(model, 40.0, trial_rng(7, 0))
    assert np.all(radii > 0.0) and np.all(radii <= 40.0)


# ---------------------------------------------------------------------------
# channel draws


def test_draw_channels_shapes_and_variance():
    rng = trial_rng(8, 0)
    g_t, G = draw_channels(50_000, 2, rng)
    assert g_t.shape == (2,) and G.shape == (2, 50_000)
    power = np.abs(G) ** 2
    assert 0.98 < power.mean() < 1.02
    # real and imaginary parts carry half the power each
    assert 0.48 < (G.real**2).mean() < 0.52


def test_draw_channels_power_is_exponential():
    rng = trial_rng(9, 0)
    _, G = draw_channels(100_000, 1, rng)
    ks = scipy.stats.kstest(np.abs(G[0]) ** 2, "expon")
    assert ks.statistic < 0.01


def test_draw_channels_entries_uncorrelated():
    rng = trial_rng(10, 0)
    _, G = draw_channels(100_000, 2, rng)
    corr = np.corrcoef(G[0].real, G[1].real)[0, 1]
    assert abs(corr) < 0.01
    corr_iq = np.corrcoef(G[0].real, G[0].imag)[0, 1]
    assert abs(corr_iq) < 0.01


@pytest.mark.parametrize("n, L", [(0, 1), (1, 1), (7, 3), (3870, 10)])
def test_draw_channels_matches_four_call_construction(n, L):
    """Every normal lands in the slot the four-call construction gave it."""
    scale = 1.0 / math.sqrt(2.0)
    rng = trial_rng(31, n)
    ref_t = scale * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    ref_G = scale * (rng.standard_normal((L, n)) + 1j * rng.standard_normal((L, n)))
    after_ref = rng.random()
    rng = trial_rng(31, n)
    g_t, G = draw_channels(n, L, rng)
    assert g_t.tobytes() == ref_t.tobytes()
    assert G.shape == (L, n) and G.tobytes() == ref_G.tobytes()
    # the stream is left where the four calls left it
    assert rng.random() == after_ref


def test_draw_channels_validation():
    with pytest.raises(ValueError):
        draw_channels(5, 0, trial_rng(0, 0))
    with pytest.raises(ValueError):
        draw_channels(-1, 2, trial_rng(0, 0))


# ---------------------------------------------------------------------------
# MMSE combiner


def test_mmse_no_interferers_matched_filter():
    link = LinkConfig(alpha=4.0, sigma2=0.5, r_T=2.0, L=1)
    g_t = np.array([1.0 + 2.0j])
    got = mmse_sinr(np.empty(0), g_t, np.empty((1, 0)), link)
    expected = (abs(g_t[0]) ** 2 / 0.5) * 2.0**-4.0
    assert got == pytest.approx(expected, rel=1e-12)


def test_mmse_single_antenna_single_interferer():
    link = LinkConfig(alpha=3.0, sigma2=0.1, r_T=1.5, L=1)
    g_t = np.array([0.8 - 0.3j])
    G = np.array([[1.1 + 0.4j]])
    r = np.array([2.0])
    got = mmse_sinr(r, g_t, G, link)
    expected = abs(g_t[0]) ** 2 / (2.0**-3.0 * abs(G[0, 0]) ** 2 + 0.1) * 1.5**-3.0
    assert got == pytest.approx(expected, rel=1e-12)


def test_mmse_rank_one_update_formula():
    """L=2, one interferer: invert the covariance via the rank-one identity."""
    link = LinkConfig(alpha=4.0, sigma2=0.2, r_T=1.0, L=2)
    rng = trial_rng(123, 0)
    g_t, G = draw_channels(1, 2, rng)
    g_i = G[:, 0]
    r = np.array([1.7])
    p = 1.7**-4.0
    s2 = 0.2
    # (p g g^H + s2 I)^{-1} = (I - p g g^H / (s2 + p |g|^2)) / s2
    cross = np.vdot(g_i, g_t)
    quad = (
        np.vdot(g_t, g_t).real - p * abs(cross) ** 2 / (s2 + p * np.vdot(g_i, g_i).real)
    ) / s2
    expected = quad  # r_T = 1
    assert mmse_sinr(r, g_t, G, link) == pytest.approx(expected, rel=1e-10)


def test_mmse_shape_mismatch():
    link = LinkConfig(alpha=4.0, sigma2=0.1, r_T=1.0, L=2)
    with pytest.raises(ValueError):
        mmse_sinr(np.array([1.0, 2.0]), np.zeros(2, complex), np.zeros((2, 1), complex), link)


# fig3 / mc-field shape: PowerLaw(0.023, -0.5), alpha 4, sigma2 1e-12, r_T 10,
# L 10, truncated at the default radius for the grid maximum 1e8
FIELD_MODEL = PowerLaw(rho=0.023, eps=-0.5)
FIELD_LINK = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=10.0, L=10)


def _field_sim(trials, seed):
    R = default_truncation_radius(FIELD_MODEL, FIELD_LINK.alpha, 1e8)
    assert R == pytest.approx(1172.2876, rel=1e-7)
    return SimConfig(
        trials=trials, truncation_radius=R, seed=seed, link=FIELD_LINK, model=FIELD_MODEL
    )


# SINR of the drawn network and channels (the float64 radii and channel
# entries taken as exact) from a 50-digit mpmath Gram matrix and LU solve.
# (123, 347): nearest interferer at r = 8.0e-4 with power 2.4e12, Cholesky of
# the float covariance fails outright; (1, 16065): Cholesky succeeds but
# returned 13.37719, 7% high; (1, 7475): Cholesky was off by 4.2e-4;
# (1, 2597): kappa(cov) = 3.0e9 while the squared ratio of the extreme Cholesky
# pivots was only 5.8e7, and Cholesky was off by 6.1e-8.
@pytest.mark.parametrize(
    "seed, trial, expected",
    [
        (123, 347, 6.3393687928344567678),
        (1, 16065, 12.506150418517803028),
        (1, 7475, 3.4845008361954356333),
        (1, 2597, 9.7745692418152279796),
    ],
)
def test_mmse_ill_conditioned_trials_match_mpmath(seed, trial, expected):
    # the networks of the Philox stream that also drew an angle per
    # interferer: Poisson count, then sample_location's angles and radii,
    # then channels
    sim = _field_sim(trials=1, seed=seed)
    region = DiskRegion(sim.truncation_radius)
    rng = np.random.Generator(np.random.Philox(key=[seed, trial]))
    n = int(rng.poisson(mean_count(sim.model, region)))
    radii, _theta = sample_location(sim.model, region, rng, size=n)
    g_t, G = draw_channels(n, sim.link.L, rng)
    assert mmse_sinr(radii, g_t, G, sim.link) == pytest.approx(expected, rel=1e-9)


def test_mmse_qr_route_agrees_with_cholesky_route(monkeypatch):
    sim = _field_sim(trials=1, seed=5)
    cases = []
    for t in range(20):
        rng = trial_rng(sim.seed, t)
        radii = draw_network(sim.model, sim.truncation_radius, rng)
        cases.append((radii, *draw_channels(radii.size, sim.link.L, rng)))
    cholesky = [mmse_sinr(*case, sim.link) for case in cases]
    monkeypatch.setattr(sinrdist.simulator, "CONDITION_LIMIT", 0.0)
    qr = [mmse_sinr(*case, sim.link) for case in cases]
    np.testing.assert_allclose(qr, cholesky, rtol=1e-10, atol=0.0)


def test_mmse_qr_route_factors_blocks_of_at_least_L_rows(monkeypatch):
    """From L = 182 on the Gram's block is one interferer, and the QR route
    took its rows one at a time: 276 factorizations for n = 20 at L = 256."""
    L, n = 256, 20
    link = LinkConfig(alpha=4.0, sigma2=1.0, r_T=1.0, L=L)
    rng = trial_rng(11, 0)
    radii = 1.0 + rng.random(n)
    g_t, G = draw_channels(n, L, rng)
    cholesky = mmse_sinr(radii, g_t, G, link)
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    monkeypatch.setattr(sinrdist.simulator, "CONDITION_LIMIT", 0.0)
    assert mmse_sinr(radii, g_t, G, link) == pytest.approx(cholesky, rel=1e-10)
    assert 0 < len(calls) <= math.ceil((n + L) / L)


def test_cholesky_pass_returns_real_squared_norms():
    """The stacked pass gives g^H cov^-1 g as float64 forms >= 0; a member
    whose factorization fails gives 0 and is rejected."""
    rng = np.random.default_rng(8)
    B, L = 6, 5
    A = rng.standard_normal((B, L, 2 * L)) + 1j * rng.standard_normal((B, L, 2 * L))
    cov = A @ A.conj().swapaxes(-1, -2) + np.eye(L)
    g = rng.standard_normal((B, L)) + 1j * rng.standard_normal((B, L))
    cov[3] = 0.0
    quad, accepted = sinrdist.simulator._cholesky_quadratic_forms(cov, g)
    assert quad.dtype == np.float64
    assert accepted.tolist() == [k != 3 for k in range(B)]
    assert quad[3] == 0.0 and np.all(quad >= 0.0)
    for k in np.flatnonzero(accepted):
        expected = np.vdot(g[k], np.linalg.solve(cov[k], g[k])).real
        assert quad[k] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_mmse_singular_covariance_is_a_numerical_error():
    """No noise and fewer interferers than antennas: the SINR is unbounded."""
    link = LinkConfig(alpha=4.0, sigma2=0.0, r_T=1.0, L=3)
    g_t, G = draw_channels(2, 3, trial_rng(4, 0))
    with pytest.raises(ArithmeticError, match="singular"):
        mmse_sinr(np.array([1.0, 2.0]), g_t, G, link)


def test_mmse_more_antennas_never_hurt():
    """Same network and channel draws: the L=8 SINR dominates its L=4 prefix."""
    model = PowerLaw(rho=0.02372, eps=-0.5)
    link = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=5.0, L=8)
    R = 600.0
    s_wide, s_narrow = [], []
    for t in range(100):
        rng = trial_rng(77, t)
        radii = draw_network(model, R, rng)
        g_t, G = draw_channels(radii.size, 8, rng)
        s_wide.append(mmse_sinr(radii, g_t, G, link))
        s_narrow.append(mmse_sinr(radii, g_t[:4], G[:4], link))
    s_wide, s_narrow = np.array(s_wide), np.array(s_narrow)
    assert np.all(s_wide >= s_narrow * (1.0 - 1e-9))
    assert np.median(s_wide) > np.median(s_narrow)


# ---------------------------------------------------------------------------
# campaigns


def _small_sim(trials=64, seed=19):
    model = GaussianCluster.with_total_count(50.0, 500.0)
    link = LinkConfig(alpha=3.0, sigma2=1e-14, r_T=20.0, L=4)
    return SimConfig(
        trials=trials, truncation_radius=4000.0, seed=seed, link=link, model=model
    )


def test_sim_config_validation():
    ok = _small_sim()
    with pytest.raises(ValueError):
        SimConfig(trials=0, truncation_radius=1.0, seed=0, link=ok.link, model=ok.model)
    with pytest.raises(ValueError):
        SimConfig(trials=4, truncation_radius=math.inf, seed=0, link=ok.link, model=ok.model)
    with pytest.raises(ValueError):
        SimConfig(trials=4, truncation_radius=10.0, seed=0.5, link=ok.link, model=ok.model)


def test_run_trial_deterministic():
    sim = _small_sim()
    a = run_trial(sim, 3)
    b = run_trial(sim, 3)
    assert a.sinr == b.sinr and a.n_interferers == b.n_interferers
    assert a.sinr > 0


def test_campaign_independent_of_worker_count():
    sim = _small_sim()
    serial = run_trials(sim, workers=1)
    threaded = run_trials(sim, workers=3)
    assert [t.sinr for t in serial] == [t.sinr for t in threaded]
    assert [t.n_interferers for t in serial] == [t.n_interferers for t in threaded]


def test_field_campaign_bytes_independent_of_worker_count():
    """348 mc-field trials, trials 48, 84, 253 and 329 taking the QR route;
    84 and 329 (kappa_1(cov) = 2.7e8 and 2.9e8) against a 50-digit mpmath
    solve."""
    sim = _field_sim(trials=348, seed=123)
    record = sinrdist.simulator._run_record(sim, 1)
    assert np.flatnonzero(record["qr"]).tolist() == [48, 84, 253, 329]
    serial = record["sinr"]
    threaded = np.array([t.sinr for t in run_trials(sim, workers=2)])
    assert serial.tobytes() == threaded.tobytes()
    assert serial[84] == pytest.approx(11.489991204375844897, rel=1e-9)
    assert serial[329] == pytest.approx(5.7956509660116775523, rel=1e-9)


def _field_trial_bytes(sim, workers=1):
    return np.array([t.sinr for t in run_trials(sim, workers=workers)]).tobytes()


def test_campaign_is_run_trial_bit_for_bit_across_chunks_and_batches(two_cpus):
    """Serially the 348 trials make batches of 93 (four of them); two workers
    make two shares of 174; trials 48, 84, 253 and 329 take the QR route."""
    sim = _field_sim(trials=348, seed=123)
    assert sinrdist.simulator._batch_size(sim.link.L) == 93
    single = np.array([run_trial(sim, t).sinr for t in range(sim.trials)])
    for workers in (1, 2):
        assert _field_trial_bytes(sim, workers) == single.tobytes()
        samples = run_campaign(sim, workers=workers).samples
        assert samples.tobytes() == np.sort(single).tobytes()


def test_failed_stacked_factorization_gives_the_same_bytes(monkeypatch):
    """A stacked Cholesky that raises for the whole stack: the batch is
    factored one matrix at a time, with the same SINRs."""
    sim = _field_sim(trials=100, seed=123)
    expected = _field_trial_bytes(sim)
    cholesky = np.linalg.cholesky
    stacks = []

    def fails_on_stacks(a, *args, **kwargs):
        if a.ndim == 3 and len(a) > 1:
            stacks.append(len(a))
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", fails_on_stacks)
    assert _field_trial_bytes(sim) == expected
    assert stacks == [93, 7]


def test_shrunken_batch_budget_gives_the_same_bytes(monkeypatch):
    sim = _field_sim(trials=100, seed=123)
    expected = _field_trial_bytes(sim)
    sim_module, L = sinrdist.simulator, sim.link.L
    monkeypatch.setattr(sim_module, "BATCH_MATRIX_BYTES", 3 * sim_module.TRIAL_MATRIX_BYTES * L * L)
    assert sim_module._batch_size(L) == 3
    assert _field_trial_bytes(sim) == expected


def test_batch_matrices_stay_within_the_draw_limit():
    """A batch holds at least one trial, and more only within
    BATCH_MATRIX_BYTES: one trial at the largest campaign L, 3096."""
    sim_module = sinrdist.simulator
    batch = sim_module._batch_size
    assert [batch(L) for L in (1, 10, 68, 69, 3096)] == [9362, 93, 2, 1, 1]
    for L in (1, 4, 10, 32, 68, 69, 100, 1000, 3096):
        per_trial = sim_module.TRIAL_MATRIX_BYTES * L * L
        assert batch(L) * per_trial <= max(sim_module.BATCH_MATRIX_BYTES, per_trial)
        assert batch(L) * per_trial <= sim_module.MAX_DRAW_BYTES
    assert sim_module.TRIAL_MATRIX_BYTES * 3097**2 > sim_module.MAX_DRAW_BYTES


def test_campaign_trials_are_mmse_sinr_of_the_public_draws():
    """run_trial on its real block against mmse_sinr on draw_network and
    draw_channels from the same stream, QR-route trials included."""
    sim = _field_sim(trials=1, seed=123)
    campaign = [run_trial(sim, t).sinr for t in range(300)]
    record = np.empty(300, sinrdist.simulator.TRIAL_RECORD)
    sinrdist.simulator._run_chunk(sim, 0, 300, record)
    assert record["qr"].any()
    public = []
    for t in range(300):
        rng = trial_rng(sim.seed, t)
        radii = draw_network(sim.model, sim.truncation_radius, rng)
        public.append(mmse_sinr(radii, *draw_channels(radii.size, sim.link.L, rng), sim.link))
    np.testing.assert_allclose(campaign, public, rtol=1e-12, atol=0.0)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the campaign forks its workers")


@needs_fork
def test_campaign_record_carries_the_qr_route_through_the_pool(two_cpus):
    """fig3's campaign disk, seed 1: the forked child's share comes back with
    its QR-route trials marked, and the record is the one-worker record."""
    R = campaign_truncation_radius(FIELD_MODEL, FIELD_LINK)
    sim = SimConfig(trials=400, truncation_radius=R, seed=1, link=FIELD_LINK, model=FIELD_MODEL)
    serial = sinrdist.simulator._run_record(sim, 1)
    pooled = sinrdist.simulator._run_record(sim, 2)
    assert pooled.dtype == serial.dtype == sinrdist.simulator.TRIAL_RECORD
    assert pooled.tobytes() == serial.tobytes()
    qr = np.flatnonzero(pooled["qr"])
    assert qr.tolist() == [20, 24, 76, 109, 136, 218, 308, 318, 351, 353, 365, 367]
    assert pooled["sinr"][qr].tolist() == [run_trial(sim, t).sinr for t in qr]


@needs_fork
@pytest.mark.parametrize("workers", [2, 4])
def test_forked_shares_are_written_in_place_not_sent(monkeypatch, two_cpus, workers):
    """fig3's campaign disk, seed 1: each child fills its own rows of the
    shared record, so nothing is unpickled here and the record is the
    one-worker record byte for byte. Four processes read four allowed CPUs
    that cannot be set, so more processes than cores write at once."""
    R = campaign_truncation_radius(FIELD_MODEL, FIELD_LINK)
    sim = SimConfig(trials=400, truncation_radius=R, seed=1, link=FIELD_LINK, model=FIELD_MODEL)
    serial = sinrdist.simulator._run_record(sim, 1)
    if workers > 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    loads = []
    unpickle = pickle.loads

    def counting_loads(*args, **kwargs):
        loads.append(args)
        return unpickle(*args, **kwargs)

    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(sinrdist.simulator.pickle, "loads", counting_loads)
    pooled = sinrdist.simulator._run_record(sim, workers)
    assert len(forks) == workers - 1
    _assert_reaped(forks)
    assert loads == []
    assert pooled.tobytes() == serial.tobytes()


@needs_fork
def test_child_error_before_its_share_keeps_its_type(monkeypatch, two_cpus):
    """A child whose move to its CPU raises reports that error, with its
    traceback as a note, instead of exiting 0 with its rows unwritten."""
    move_apart = sinrdist.simulator._move_apart

    def fails_in_the_child(k):
        if k >= 1:
            raise RuntimeError(f"process {k} cannot move")
        move_apart(k)

    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(sinrdist.simulator, "_move_apart", fails_in_the_child)
    with pytest.raises(RuntimeError, match="process 1 cannot move") as info:
        run_campaign(_small_sim(trials=8), workers=2)
    _assert_reaped(forks)
    if hasattr(info.value, "add_note"):  # Python 3.11+
        (note,) = info.value.__notes__
        assert f"campaign worker process {forks[0]}" in note and "fails_in_the_child" in note


@needs_fork
def test_rows_no_process_wrote_are_an_error(monkeypatch, two_cpus):
    """A child that exits 0 without writing its share leaves those rows of
    the zero-filled record at SINR 0, which the record's sinr > 0 check
    reports by the share's first trial."""
    run_chunk = sinrdist.simulator._run_chunk

    def child_writes_nothing(sim, start, stop, record):
        if start < 4:
            run_chunk(sim, start, stop, record)

    monkeypatch.setattr(sinrdist.simulator, "_run_chunk", child_writes_nothing)
    with pytest.raises(ValueError, match=r"got 0\.0 in trial 4$"):
        run_campaign(_small_sim(trials=8), workers=2)


def _record_forks(monkeypatch):
    """Wrap os.fork to record the pid of each child a campaign forks."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    """Every pid is reaped: waitpid finds no such child. A child still
    running is killed before the assertion fails."""
    running = []
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        running.append(pid)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert running == []


@needs_fork
def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    """The cap is the CPUs this process may run on, not the machine's count;
    the affinity is patched to be read here and never set."""
    forks = _record_forks(monkeypatch)
    allowed = {0, 1}
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)
    sim = _small_sim(trials=16)
    serial = np.array([t.sinr for t in run_trials(sim, workers=1)])
    assert forks == []
    pooled = np.array([t.sinr for t in run_trials(sim, workers=64)])
    assert len(forks) == 1
    assert pooled.tobytes() == serial.tobytes()
    run_campaign(_small_sim(trials=1), workers=2)
    assert len(forks) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    allowed.discard(1)
    assert _field_trial_bytes(sim, workers=2) == serial.tobytes()
    assert len(forks) == 1
    _assert_reaped(forks)


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="the campaign forks its child onto a second allowed CPU",
)


def _record_affinity(monkeypatch, log):
    """Wrap os.sched_setaffinity to append the pid and the sorted mask of
    each call to the file log; a forked child inherits the wrapper."""
    setaffinity = os.sched_setaffinity

    def recording(pid, mask):
        with open(log, "a") as out:
            out.write(" ".join(map(str, [os.getpid(), *sorted(mask)])) + "\n")
        setaffinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recording)


def _affinity_calls(log):
    """{pid: [mask of each call, in order]} from the file _record_affinity writes."""
    calls = {}
    for line in log.read_text().splitlines() if log.exists() else []:
        pid, *mask = map(int, line.split())
        calls.setdefault(pid, []).append(mask)
    return calls


@needs_two_cpus
def test_each_campaign_process_moves_to_its_own_cpu_and_is_released(tmp_path, monkeypatch):
    """The caller moves to the first allowed CPU and the child to the
    second, and each allows every CPU again at once: they start apart and
    neither stays pinned. The bytes are the one-worker bytes."""
    log = tmp_path / "affinity"
    cpus = sorted(os.sched_getaffinity(0))
    sim = _field_sim(trials=200, seed=7)
    serial = _field_trial_bytes(sim)
    _record_affinity(monkeypatch, log)
    forks = _record_forks(monkeypatch)
    assert _field_trial_bytes(sim, workers=2) == serial
    _assert_reaped(forks)
    assert _affinity_calls(log) == {os.getpid(): [cpus[:1], cpus], forks[0]: [cpus[1:2], cpus]}
    assert sorted(os.sched_getaffinity(0)) == cpus


def _refuse_affinity(pid, mask):
    raise OSError(errno.EINVAL, "Invalid argument")


@needs_two_cpus
@pytest.mark.parametrize("platform", ["refuses", "lacks"])
def test_campaign_runs_where_affinity_cannot_be_set(monkeypatch, platform):
    sim = _field_sim(trials=200, seed=7)
    serial = _field_trial_bytes(sim)
    if platform == "refuses":
        monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    forks = _record_forks(monkeypatch)
    assert _field_trial_bytes(sim, workers=2) == serial
    assert len(forks) == 1
    _assert_reaped(forks)


@needs_two_cpus
def test_one_process_campaign_sets_no_affinity(tmp_path, monkeypatch):
    log = tmp_path / "affinity"
    _record_affinity(monkeypatch, log)
    run_trials(_field_sim(trials=200, seed=7), workers=1)
    run_campaign(_field_sim(trials=1, seed=7), workers=2)  # one trial: one process
    assert _affinity_calls(log) == {}


def test_campaign_without_fork_runs_serially(monkeypatch, two_cpus):
    sim = _small_sim(trials=16)
    serial = run_campaign(sim, workers=1).samples
    monkeypatch.delattr(os, "fork", raising=False)
    assert run_campaign(sim, workers=2).samples.tobytes() == serial.tobytes()
    pooled = sinrdist.simulator._run_pool(sim, 1)
    chunk = np.empty(sim.trials, sinrdist.simulator.TRIAL_RECORD)
    sinrdist.simulator._run_chunk(sim, 0, sim.trials, chunk)
    assert (pooled.dtype, pooled.tobytes()) == (chunk.dtype, chunk.tobytes())


@needs_fork
def test_no_child_outlives_a_failed_campaign(monkeypatch, two_cpus):
    """Trial 0, in the caller's share, fails while the child still runs its
    share: the child is killed and reaped before the error propagates."""
    draw_trial = sinrdist.simulator._draw_trial

    def fails_in_the_caller(sim, trial_index, *args):
        if trial_index == 0:
            raise FloatingPointError("trial 0 fails in the calling process")
        time.sleep(60)  # the child's share, still running when the caller fails
        return draw_trial(sim, trial_index, *args)

    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(sinrdist.simulator, "_draw_trial", fails_in_the_caller)
    start = time.monotonic()
    with pytest.raises(FloatingPointError, match="calling process"):
        run_campaign(_small_sim(trials=8), workers=2)
    assert len(forks) == 1
    _assert_reaped(forks)
    assert time.monotonic() - start < 30


# characters in the message of the error the child's share raises
CHILD_ERROR_CHARS = 2**17

CALLER_DIES = f"""
import os, signal
import sinrdist.simulator as simulator
from sinrdist import LinkConfig, PowerLaw, SimConfig

fork = os.fork


def fork_and_report():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


def caller_dies(sim, start, stop, record):
    if start == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    raise RuntimeError("x" * {CHILD_ERROR_CHARS})


os.fork, simulator._run_chunk = fork_and_report, caller_dies
link = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=10.0, L=2)
sim = SimConfig(trials=12000, truncation_radius=2.0, seed=1, link=link, model=PowerLaw(0.023, -0.5))
simulator._run_pool(sim, 2)
"""


def _gone(pid):
    """True once pid has exited (a zombie left to an init that does not
    reap counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@needs_fork
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc/<pid>/stat")
def test_child_of_a_killed_caller_does_not_block_on_its_pipe(tmp_path):
    """The caller is killed before it reads: the child's pickled error, over
    128 kB, overfills the pipe, and the child must get a broken pipe and
    exit, not block on a pipe it holds open itself. Output goes to files,
    which the child may hold open without stalling the run."""
    error = RuntimeError("x" * CHILD_ERROR_CHARS)
    assert len(pickle.dumps(error)) > 2**16  # a 64 kB pipe buffer
    src = str(Path(sinrdist.__file__).resolve().parents[1])
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as stdout, open(err, "w") as stderr:
        proc = subprocess.run(
            [sys.executable, "-c", CALLER_DIES],
            env={**os.environ, "PYTHONPATH": src},
            stdout=stdout,
            stderr=stderr,
            timeout=60,
        )
    assert proc.returncode == -signal.SIGKILL, err.read_text()
    (pid,) = map(int, out.read_text().split())
    deadline = time.monotonic() + 30
    try:
        while not _gone(pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _gone(pid)
    finally:
        if not _gone(pid):
            os.kill(pid, signal.SIGKILL)


@needs_fork
def test_child_error_keeps_its_type_and_carries_the_child_traceback(monkeypatch, two_cpus):
    draw_trial = sinrdist.simulator._draw_trial

    def fails_in_the_child(sim, trial_index, *args):
        if trial_index == 5:
            raise FloatingPointError("trial 5 fails in the child")
        return draw_trial(sim, trial_index, *args)

    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(sinrdist.simulator, "_draw_trial", fails_in_the_child)
    with pytest.raises(FloatingPointError, match="fails in the child") as info:
        run_campaign(_small_sim(trials=8), workers=2)
    _assert_reaped(forks)
    if hasattr(info.value, "add_note"):  # Python 3.11+
        (note,) = info.value.__notes__
        assert f"campaign worker process {forks[0]}" in note and "fails_in_the_child" in note


class _NeedsTwoArguments(Exception):
    """Pickles, but cannot be rebuilt from its one-string args."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


@needs_fork
@pytest.mark.parametrize(
    "error, name",
    [
        (lambda: ValueError(lambda: None), "ValueError"),
        (lambda: _NeedsTwoArguments(1, 2), "_NeedsTwoArguments"),
    ],
)
def test_unpicklable_child_error_is_a_child_process_error(monkeypatch, two_cpus, error, name):
    draw_trial = sinrdist.simulator._draw_trial

    def fails_at_trial_5(sim, trial_index, *args):
        if trial_index == 5:
            raise error()
        return draw_trial(sim, trial_index, *args)

    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(sinrdist.simulator, "_draw_trial", fails_at_trial_5)
    with pytest.raises(ChildProcessError, match=f"raised {name}: .*cannot be pickled"):
        run_campaign(_small_sim(trials=8), workers=2)
    _assert_reaped(forks)


@needs_fork
def test_worker_numerical_error_keeps_its_type(two_cpus):
    """No noise and fewer interferers than antennas, raised inside a worker."""
    model = GaussianCluster.with_total_count(2.0, 50.0)
    link = LinkConfig(alpha=3.0, sigma2=0.0, r_T=20.0, L=8)
    sim = SimConfig(trials=4, truncation_radius=400.0, seed=3, link=link, model=model)
    with pytest.raises(ArithmeticError, match="singular"):
        run_campaign(sim, workers=2)


@needs_fork
def test_dead_worker_is_a_child_process_error(monkeypatch, two_cpus):
    draw_trial = sinrdist.simulator._draw_trial

    def dies_at_trial_5(sim, trial_index, *args):
        if trial_index == 5:
            os._exit(3)
        return draw_trial(sim, trial_index, *args)

    monkeypatch.setattr(sinrdist.simulator, "_draw_trial", dies_at_trial_5)
    with pytest.raises(ChildProcessError, match="worker process died"):
        run_campaign(_small_sim(trials=8), workers=2)


def test_gram_block_shrinks_with_the_antenna_count():
    block = sinrdist.simulator._gram_block
    assert [block(L) for L in (1, 4, 10, 16)] == [256] * 4
    assert [block(L) for L in (17, 32, 64, 256, 1024)] == [226, 64, 16, 1, 1]
    for L in (17, 32, 64, 256):
        assert 2 * L * 2 * L * block(L) <= 262_144


@needs_fork
def test_wide_array_campaign_through_the_pool(two_cpus):
    """L = 32 takes 64-column Gram blocks; the pool gives the serial bytes."""
    link = LinkConfig(alpha=3.0, sigma2=1e-10, r_T=20.0, L=32)
    model = GaussianCluster.with_total_count(150.0, v=50.0)
    sim = SimConfig(trials=6, truncation_radius=400.0, seed=8, link=link, model=model)
    serial = run_trials(sim, workers=1)
    pooled = run_trials(sim, workers=2)
    assert [t.sinr for t in serial] == [t.sinr for t in pooled]
    assert min(t.n_interferers for t in serial) > sinrdist.simulator._gram_block(32)


def test_campaign_seed_sensitivity():
    a = run_campaign(_small_sim(seed=19))
    b = run_campaign(_small_sim(seed=20))
    assert not np.array_equal(a.samples, b.samples)


# ---------------------------------------------------------------------------
# empirical distribution


def test_empirical_distribution_basics():
    emp = EmpiricalDistribution(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(emp.samples, [1.0, 2.0, 3.0])
    assert emp.trials == 3
    assert emp.cdf(2.0) == pytest.approx(2.0 / 3.0)
    assert emp.cdf(0.5) == 0.0
    assert emp.cdf(3.0) == 1.0
    np.testing.assert_allclose(emp.cdf(np.array([1.0, 2.5])), [1.0 / 3.0, 2.0 / 3.0])
    assert emp.quantile(0.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.array([]))


def test_empirical_samples_are_readonly():
    emp = EmpiricalDistribution(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        emp.samples[0] = 5.0


def test_ks_distance_against_own_steps():
    emp = EmpiricalDistribution(np.array([0.1, 0.4, 0.9]))
    # against its own right-continuous ECDF the two-sided gap is exactly 1/n
    assert emp.ks_distance(emp.cdf) == pytest.approx(1.0 / 3.0)


def test_ks_distance_in_blocks_is_the_one_array_gap():
    """200,000 samples take four blocks: the reference sees at most KS_BLOCK
    samples at a time, and the gap is the one-array formula's, bit for bit."""
    emp = EmpiricalDistribution(np.random.default_rng(5).gamma(3.0, size=200_000))
    sizes = []
    gap = emp.ks_distance(lambda x: sizes.append(x.size) or regularized_lower_gamma(3, x))
    assert max(sizes) <= sinrdist.simulator.KS_BLOCK and sum(sizes) == emp.trials
    n, ref = emp.trials, regularized_lower_gamma(3, emp.samples)
    steps = np.arange(1, n + 1) / n
    assert gap == float(np.max(np.maximum(steps - ref, ref - (steps - 1.0 / n))))


def test_ks_distance_uniform_calibration():
    """The 1% critical value 1.63/sqrt(n) should rarely trip on true uniforms."""
    n = 10_000
    passed = 0
    for seed in range(10):
        emp = EmpiricalDistribution(np.random.default_rng(seed).random(n))
        if emp.ks_distance(lambda x: np.clip(x, 0.0, 1.0)) < 1.63 / math.sqrt(n):
            passed += 1
    assert passed >= 9


# ---------------------------------------------------------------------------
# simulated SINR against the analytic CDF


def test_campaign_matches_analytic_cdf():
    model = PowerLaw(rho=0.023, eps=-0.5)
    link = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=10.0, L=10)
    R = default_truncation_radius(model, 4.0, gamma_max=2e6)
    sim = SimConfig(trials=1500, truncation_radius=R, seed=2024, link=link, model=model)
    emp = run_campaign(sim, workers=2)
    dist = SinrDistribution(psi=PsiEvaluator(model, 4.0), link=link)
    ks = emp.ks_distance(lambda s: cdf_gamma(dist, s * link.r_T**link.alpha))
    assert ks < 1.63 / math.sqrt(sim.trials)


def test_oversized_campaign_draw_is_refused_before_drawing(monkeypatch):
    # 3.1e9 interferers per trial would need 4e11 B of channels at L = 4
    def no_draw(*args):
        raise AssertionError("a network was drawn")

    monkeypatch.setattr(sinrdist.simulator, "draw_network", no_draw)
    model = PowerLaw(rho=1e3, eps=0.0)
    sim = SimConfig(trials=4, truncation_radius=1000.0, seed=0, link=LINK, model=model)
    with pytest.raises(ConfigError, match="Poisson mean of 3.14159e\\+09 points"):
        run_campaign(sim)
    # 112 L^2 B of per-trial matrices pass 1 GiB from L = 3097 on, whatever the count
    link = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=10.0, L=3097)
    sim = SimConfig(trials=4, truncation_radius=1.0, seed=0, link=link, model=PowerLaw(rho=1e-3, eps=0.0))
    with pytest.raises(ConfigError, match="L = 3097 antennas"):
        run_campaign(sim)


def test_campaign_truncation_insensitive():
    sim = _small_sim(trials=1200)
    wider = SimConfig(
        trials=1200,
        truncation_radius=2.0 * sim.truncation_radius,
        seed=sim.seed + 1,
        link=sim.link,
        model=sim.model,
    )
    a = run_campaign(sim)
    b = run_campaign(wider)
    ks = scipy.stats.ks_2samp(a.samples, b.samples)
    assert ks.pvalue > 0.001


# ---------------------------------------------------------------------------
# default truncation radius


def test_truncation_piecewise_support():
    model = PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0)))
    assert default_truncation_radius(model, 3.0, 1e4) == 1000.0


def test_truncation_gaussian_factor():
    # a finite support is the radius: the Gaussian cluster's 12v
    assert default_truncation_radius(GaussianCluster(rho=1.0, v=500.0), 3.0, 1e6) == 6000.0


def test_truncation_power_law_tail_bound():
    model = PowerLaw(rho=0.023, eps=-0.5)
    alpha, gamma_max = 4.0, 2e6
    R = default_truncation_radius(model, alpha, gamma_max)
    total = psi_power_law(model.rho, model.eps, alpha, gamma_max)
    truncated = psi_piecewise(((model.rho, model.eps, R),), alpha, gamma_max)
    assert (total - truncated) / total <= 1.05e-3
    # tighter fractions push the radius out
    assert default_truncation_radius(model, alpha, gamma_max, tail_fraction=1e-4) > R


@pytest.mark.parametrize("alpha, gamma_max", [(3.0, 1e6), (4.0, 1e8)])
def test_truncation_polynomial_tail_bound(alpha, gamma_max):
    # a tail from R0 > 0: the exact outer term beyond R stays within the fraction
    R0, eps_tail = 110.0, -1.5
    rho0 = 0.005 * R0**-eps_tail  # continuous at R0
    model = PolynomialWithTail(coeffs=(0.005,), R0=R0, rho0=rho0, eps_tail=eps_tail)
    R = default_truncation_radius(model, alpha, gamma_max)
    assert R >= R0
    tail = _outer_term(model.rho0, eps_tail, alpha, gamma_max, R)
    assert tail <= 1e-3 * psi_polynomial(model.coeffs, R0, model.rho0, eps_tail, alpha, gamma_max)
    # a radius below R0 is never returned
    assert default_truncation_radius(model, alpha, 1e-6) == R0


def test_truncation_validation():
    model = PowerLaw(rho=0.023, eps=-0.5)
    with pytest.raises(ValueError):
        default_truncation_radius(model, 2.0, 1e4)
    with pytest.raises(ValueError):
        default_truncation_radius(model, 4.0, 0.0)
    with pytest.raises(ValueError):
        default_truncation_radius(model, 4.0, 1e4, tail_fraction=1.5)
    with pytest.raises(TypeError):
        default_truncation_radius(object(), 4.0, 1e4)


# ---------------------------------------------------------------------------
# campaign truncation radius


def test_campaign_radius_keeps_the_fixed_rules():
    piecewise = PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0)))
    assert campaign_truncation_radius(piecewise, FIELD_LINK) == 1000.0
    assert campaign_truncation_radius(GaussianCluster(rho=1.0, v=500.0), FIELD_LINK) == 6000.0


@settings(max_examples=25, deadline=None)
@given(
    tail=st.booleans(),
    L=st.floats(0.0, math.log(ANTENNAS_MAX)).map(lambda s: min(round(math.exp(s)), ANTENNAS_MAX)),
    alpha=st.floats(2.0, 6.0, exclude_min=True),
    shape=st.floats(0.01, 0.99),
    rho=st.floats(-6.0, 2.0).map(lambda e: 10.0**e),
)
def test_truncation_sizing_is_finite_or_a_typed_error(tail, L, alpha, shape, rho):
    """Over power laws and polynomials with a tail, at any L up to the cap:
    the campaign radius is finite and at least the tail's start r0, and its
    disk holds a mean count of at least 99% of x* = L + l + sqrt(l^2 + 2 L l),
    l = log 1e4 (at least the psi it holds at gamma*); or sizing raises
    ArithmeticError, never a bare ValueError."""
    if tail:
        eps = -2.0 + shape
        model = PolynomialWithTail(coeffs=(rho,), R0=100.0, rho0=rho * 100.0**-eps, eps_tail=eps)
    else:
        model = PowerLaw(rho=rho, eps=-2.0 + shape * alpha)  # eps < alpha - 2
    link = LinkConfig(alpha=alpha, sigma2=0.0, r_T=1.0, L=L)
    try:
        radius = campaign_truncation_radius(model, link)
    except ArithmeticError:
        return
    assert math.isfinite(radius) and radius >= model.algebraic_tail[2]
    ell = math.log(1e4)
    x = L + ell + math.sqrt(ell * ell + 2.0 * L * ell)
    assert mean_count(model, DiskRegion(radius)) >= 0.99 * x * (1.0 - 1e-9)
