"""Monte-Carlo simulator tests: channel statistics, the MMSE combiner against
hand-computed small cases, stream determinism, and agreement with the
analytic distribution."""

import math

import numpy as np
import pytest
import scipy.stats

from sinrdist import (
    EmpiricalDistribution,
    GaussianCluster,
    LinkConfig,
    PiecewisePowerLaw,
    PowerLaw,
    PsiEvaluator,
    SimConfig,
    SinrDistribution,
    cdf_gamma,
    default_truncation_radius,
    draw_channels,
    draw_network,
    mean_count,
    mmse_sinr,
    psi_piecewise,
    psi_power_law,
    run_campaign,
    run_trial,
    run_trials,
    trial_rng,
    DiskRegion,
)

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
    assert default_truncation_radius(GaussianCluster(rho=1.0, v=500.0), 3.0, 1e6) == 4000.0


def test_truncation_power_law_tail_bound():
    model = PowerLaw(rho=0.023, eps=-0.5)
    alpha, gamma_max = 4.0, 2e6
    R = default_truncation_radius(model, alpha, gamma_max)
    total = psi_power_law(model.rho, model.eps, alpha, gamma_max)
    truncated = psi_piecewise(((model.rho, model.eps, R),), alpha, gamma_max)
    assert (total - truncated) / total <= 1.05e-3
    # tighter fractions push the radius out
    assert default_truncation_radius(model, alpha, gamma_max, tail_fraction=1e-4) > R


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
