"""Monte Carlo population pipeline: sampling, the selective-labels stage,
empirical scores, and the environment classification."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screenlab import (
    DomainError,
    ModelConfig,
    UnsupportedModelError,
    classify_environment,
    gamma1,
    marginal_posterior_phi,
    mc_average_regret,
    expected_regret,
    run_stage_one,
    sample_population,
    score_s1,
    score_s2,
    verify_nonatomic,
)
from screenlab.population import (
    McRegretEstimate,
    Population,
    ScoreBin,
    _mean_and_se,
    empirical_scores,
)
from screenlab import scores
from screenlab.regret import _regret_values
from screenlab.scores import log_acceptance_threshold, score_pair
from conftest import BASELINE_DOC, FLAT_THETA_DOC, NONMONOTONE_PHI_DOC

# sizes around the package's sampling part of 65,536 applicants
PART_STRADDLING = [1, 2, 65_535, 65_536, 65_537, 200_003]


def one_shot_population(config, m: int, seed: int) -> Population:
    """The mixture draw in one call per stream: m uniforms for the bits,
    then an (m, 2) block of standard normals, from Philox keyed by seed."""
    signal = config.signal
    rng = np.random.Generator(np.random.Philox(key=seed))
    q = (rng.random(m) < config.payoffs.pi).astype(np.int8)
    z = rng.standard_normal((m, 2))
    cross_sd = signal.rho * signal.sigma_gamma
    resid_sd = signal.conditional_gamma_sd
    theta_noise = signal.sigma_theta * z[:, 0]
    gamma_noise = cross_sd * z[:, 0] + resid_sd * z[:, 1]
    qualified = q == 1
    theta = np.where(qualified, signal.mu_q[0], signal.mu_u[0]) + theta_noise
    gamma = np.where(qualified, signal.mu_q[1], signal.mu_u[1]) + gamma_noise
    return Population(q=q, theta=theta, gamma=gamma)


def traced_peak(fn, *args) -> int:
    """Bytes ``fn(*args)`` allocates at its peak over what it started
    with, as tracemalloc sees them (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSampling:
    def test_reproducible_across_calls(self, baseline):
        a = sample_population(baseline, 1000, seed=9)
        b = sample_population(baseline, 1000, seed=9)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.gamma, b.gamma)

    def test_seeds_decorrelate(self, baseline):
        a = sample_population(baseline, 1000, seed=9)
        b = sample_population(baseline, 1000, seed=10)
        assert not np.array_equal(a.theta, b.theta)

    def test_class_moments(self, baseline):
        pop = sample_population(baseline, 400_000, seed=1)
        assert abs(pop.q.mean() - 0.4) < 0.005
        qualified = pop.q == 1
        assert abs(pop.theta[qualified].mean() - 1.0) < 0.01
        assert abs(pop.theta[~qualified].mean() - 0.0) < 0.01
        assert abs(pop.gamma[qualified].std() - 1.0) < 0.01

    def test_signal_correlation_honored(self):
        config = ModelConfig.from_dict({**BASELINE_DOC, "rho": 0.55})
        pop = sample_population(config, 400_000, seed=2)
        unqualified = pop.q == 0
        r = np.corrcoef(pop.theta[unqualified], pop.gamma[unqualified])[0, 1]
        assert abs(r - 0.55) < 0.01

    def test_rejects_empty_population(self, baseline):
        with pytest.raises(DomainError):
            sample_population(baseline, 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**130],
                             ids=["negative", "2**128", "2**130"])
    def test_rejects_a_seed_outside_philox_keys(self, baseline, seed):
        """numpy's Philox raised an untyped ValueError for these keys."""
        for draw in (lambda: sample_population(baseline, 10, seed=seed),
                     lambda: mc_average_regret(baseline, 0.0, m=10, seed=seed)):
            with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\*\*128\)"):
                draw()

    def test_rejects_a_size_numpy_cannot_index(self, baseline):
        """numpy raised an untyped ValueError for this size."""
        with pytest.raises(DomainError, match="population size .* too large to allocate"):
            sample_population(baseline, 10**22, seed=1)

    def test_largest_philox_key_samples(self, baseline):
        assert len(sample_population(baseline, 10, seed=2**128 - 1)) == 10

    @pytest.mark.parametrize("m", PART_STRADDLING)
    def test_parts_draw_the_one_shot_stream(self, baseline, m):
        """Drawn in parts, the population is the one-shot draw bit for bit,
        on the baseline and with gamma's cross term (rho != 0)."""
        correlated = ModelConfig.from_dict({**BASELINE_DOC, "rho": -0.35})
        for config in (baseline, correlated):
            got, want = sample_population(config, m, 17), one_shot_population(config, m, 17)
            for name in ("q", "theta", "gamma"):
                assert same_bits(getattr(got, name), getattr(want, name)), name

    def test_peak_memory_per_applicant(self, baseline):
        """The whole normal block and the uniforms' float64 are never held:
        one-shot sampling peaked at 50 bytes per applicant."""
        m = 1_000_000
        assert traced_peak(sample_population, baseline, m, 3) <= 24 * m


class TestStageOne:
    def test_acceptance_matches_ratio_rule(self, baseline):
        pop = sample_population(baseline, 50_000, seed=3)
        data = run_stage_one(baseline, pop, tau=0.0)
        bar = log_acceptance_threshold(baseline.payoffs, 0.0)
        expected = (
            baseline.signal.log_likelihood_ratio(pop.theta, pop.gamma) > bar
        )
        np.testing.assert_array_equal(data.accepted, expected)

    def test_acceptance_matches_cutoff_rule(self, baseline):
        """Same region two ways: ratio above bar, or gamma above cutoff."""
        pop = sample_population(baseline, 50_000, seed=3)
        data = run_stage_one(baseline, pop, tau=-0.3)
        cutoff = np.asarray(gamma1(baseline, pop.theta, -0.3))
        np.testing.assert_array_equal(data.accepted, pop.gamma > cutoff)

    def test_selective_labels(self, baseline):
        """Rejected applicants carry no qualification label."""
        pop = sample_population(baseline, 20_000, seed=4)
        data = run_stage_one(baseline, pop, tau=0.2)
        assert bool(data.q_label.mask[~data.accepted].all())
        assert not data.q_label.mask[data.accepted].any()
        np.testing.assert_array_equal(
            np.asarray(data.q_label[data.accepted]), pop.q[data.accepted]
        )

    def test_acceptance_rate_tracks_s2(self, baseline):
        pop = sample_population(baseline, 200_000, seed=6)
        data = run_stage_one(baseline, pop, tau=0.0)
        predicted = float(np.mean(np.asarray(score_s2(baseline, pop.theta, 0.0))))
        assert abs(data.accepted.mean() - predicted) < 0.005


class TestEmpiricalScores:
    def test_bins_cover_everyone(self, baseline):
        pop = sample_population(baseline, 30_000, seed=7)
        data = run_stage_one(baseline, pop, tau=0.0)
        bins = empirical_scores(data, theta_bins=40)
        assert sum(b.n for b in bins) == 30_000
        assert sum(b.n_accepted for b in bins) == int(data.accepted.sum())

    def test_hats_track_analytic_scores(self, baseline):
        pop = sample_population(baseline, 300_000, seed=8)
        data = run_stage_one(baseline, pop, tau=0.0)
        for b in empirical_scores(data, theta_bins=25):
            mid = 0.5 * (b.theta_lo + b.theta_hi)
            if b.n >= 5_000:
                assert abs(b.s2_hat - float(score_s2(baseline, mid, 0.0))) < 0.05
            if b.n_accepted >= 200:
                assert abs(b.s1_hat - float(score_s1(baseline, mid, 0.0))) < 0.08

    def test_rejects_a_bin_count_numpy_cannot_index(self, baseline):
        data = run_stage_one(baseline, sample_population(baseline, 100, seed=7), tau=0.0)
        with pytest.raises(DomainError, match="bin count .* too large to allocate"):
            empirical_scores(data, theta_bins=10**22)

    def test_empty_s1_when_no_acceptances(self, baseline):
        pop = sample_population(baseline, 50_000, seed=9)
        data = run_stage_one(baseline, pop, tau=0.9)
        bins = empirical_scores(data, theta_bins=30)
        starved = [b for b in bins if b.n_accepted == 0]
        assert starved
        assert all(b.s1_hat is None and b.s1_se is None for b in starved)


def _masked_loop_scores(data, edges):
    """The per-bin boolean-mask loop that empirical_scores replaced."""
    bins = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi == edges[-1]:
            mask = (data.theta >= lo) & (data.theta <= hi)
        else:
            mask = (data.theta >= lo) & (data.theta < hi)
        n = int(mask.sum())
        if n == 0:
            continue
        accepted = data.accepted[mask]
        n_accepted = int(accepted.sum())
        s2_hat = n_accepted / n
        s1_hat = s1_se = None
        if n_accepted > 0:
            s1_hat = float(data.q_label.data[mask][accepted].mean())
            s1_se = float(np.sqrt(s1_hat * (1.0 - s1_hat) / n_accepted))
        bins.append(ScoreBin(
            theta_lo=float(lo), theta_hi=float(hi), n=n, n_accepted=n_accepted,
            s2_hat=float(s2_hat), s2_se=float(np.sqrt(s2_hat * (1.0 - s2_hat) / n)),
            s1_hat=s1_hat, s1_se=s1_se,
        ))
    return bins


def _bincount_scores(data, theta_bins):
    """The per-applicant searchsorted and three bincounts that
    empirical_scores replaced."""
    edges = np.unique(np.quantile(data.theta, np.linspace(0.0, 1.0, theta_bins + 1)))
    if len(edges) < 2:
        return []
    k_bins = len(edges) - 1
    index = np.searchsorted(edges, data.theta, side="right") - 1
    index[data.theta == edges[-1]] = k_bins - 1
    hired = data.accepted
    counts = np.bincount(index, minlength=k_bins).tolist()
    accepted_counts = np.bincount(index[hired], minlength=k_bins).tolist()
    qualified_sums = np.bincount(
        index[hired], weights=data.q_label.data[hired], minlength=k_bins
    ).tolist()
    bins = []
    for k in range(k_bins):
        n, n_accepted = counts[k], accepted_counts[k]
        if n == 0:
            continue
        s2_hat = n_accepted / n
        s1_hat = s1_se = None
        if n_accepted > 0:
            s1_hat = qualified_sums[k] / n_accepted
            s1_se = float(np.sqrt(s1_hat * (1.0 - s1_hat) / n_accepted))
        bins.append(ScoreBin(
            theta_lo=float(edges[k]), theta_hi=float(edges[k + 1]), n=n,
            n_accepted=n_accepted, s2_hat=float(s2_hat),
            s2_se=float(np.sqrt(s2_hat * (1.0 - s2_hat) / n)), s1_hat=s1_hat, s1_se=s1_se,
        ))
    return bins


class TestEmpiricalScoresOracle:
    """Binning by sorted counts equals the per-bin mask loop and the
    bincount binning it replaced, field by field."""

    @pytest.mark.parametrize("seed", [3, 19, 2024])
    @pytest.mark.parametrize("tau", [0.0, 0.9])
    def test_sorted_counts_equal_the_bincount_binning(self, baseline, seed, tau):
        """Edges and counts to the bit (repr tells -0.0 and ints apart), at
        tau = 0.9 with starved bins."""
        data = run_stage_one(baseline, sample_population(baseline, 60_000, seed), tau)
        got = empirical_scores(data, theta_bins=50)
        assert repr(got) == repr(_bincount_scores(data, 50))

    @pytest.mark.parametrize("bins", [7, 50])
    def test_ties_at_an_edge(self, baseline, bins):
        """Thetas on a 0.25 grid repeat, so edges fall on runs of ties,
        which belong to the bin above an inner edge and to the last bin at
        the top edge.  (+ 0.0 turns -0.0 into 0.0: equal values of other
        bits may sort either way, where no two sampled thetas are equal.)"""
        pop = sample_population(baseline, 20_000, seed=8)
        theta = np.round(pop.theta * 4) / 4 + 0.0
        coarse = Population(q=pop.q, theta=theta, gamma=pop.gamma)
        data = run_stage_one(baseline, coarse, 0.0)
        got = empirical_scores(data, theta_bins=bins)
        assert sum(b.n for b in got) == len(data)
        assert any(b.theta_lo in set(data.theta.tolist()) for b in got)
        assert repr(got) == repr(_bincount_scores(data, bins))
        assert got == _masked_loop_scores(
            data, np.unique(np.quantile(data.theta, np.linspace(0.0, 1.0, bins + 1))))

    def test_quantile_bins_with_starved_bins(self, baseline):
        data = run_stage_one(baseline, sample_population(baseline, 40_000, seed=9), 0.9)
        edges = np.unique(np.quantile(data.theta, np.linspace(0.0, 1.0, 31)))
        got = empirical_scores(data, theta_bins=30)
        assert any(b.s1_hat is None for b in got)
        assert got == _masked_loop_scores(data, edges)

    def test_one_distinct_theta_spans_no_bin(self, baseline):
        """A single distinct theta gives one quantile edge and no bin."""
        pop = sample_population(baseline, 50, seed=21)
        theta = np.full(len(pop), 0.25)
        data = run_stage_one(baseline, Population(q=pop.q, theta=theta, gamma=pop.gamma), 0.0)
        assert empirical_scores(data, theta_bins=10) == []


class TestMcAverageRegret:
    def test_matches_quadrature_within_three_se(self, baseline):
        for tau in (-0.5, 0.0, 0.5):
            estimates = mc_average_regret(baseline, tau, m=200_000, seed=12)
            for est, exact in zip(estimates, expected_regret(baseline, tau), strict=True):
                assert abs(est.value - exact) < 3 * est.standard_error

    def test_records_its_inputs(self, baseline):
        estimates = mc_average_regret(baseline, 0.1, m=1000, seed=3)
        assert [(est.algo, est.tau, est.m, est.seed) for est in estimates] == [
            ("s1", 0.1, 1000, 3), ("s2", 0.1, 1000, 3),
        ]

    @pytest.mark.parametrize("m", [1, 0])
    def test_needs_two_applicants_for_a_standard_error(self, baseline, m, monkeypatch):
        """m = 1 gave a NaN standard error; the check comes before sampling."""
        from screenlab import population

        def no_draw(*args, **options):
            raise AssertionError("sampled before checking m")

        monkeypatch.setattr(population, "_draw", no_draw)
        with pytest.raises(DomainError, match=f"needs m >= 2, got {m}"):
            mc_average_regret(baseline, 0.0, m=m, seed=3)

    def test_equals_the_mean_of_the_regret_record(self, baseline):
        """The estimate and its SE are those of _regret_values' u, bit for bit."""
        population = sample_population(baseline, 20_000, seed=3)
        pair = score_s1(baseline, population.theta, 0.2), score_s2(baseline, population.theta, 0.2)
        for est, s in zip(mc_average_regret(baseline, 0.2, m=20_000, seed=3), pair):
            u = _regret_values(baseline.payoffs, s, population.q)[3]
            assert est.value == float(u.mean())
            assert est.standard_error == float(u.std(ddof=1) / np.sqrt(20_000))

    def test_both_scores_share_one_cohort(self, baseline, monkeypatch):
        from screenlab import population

        seeds = []
        draw = population._draw

        def spy(config, m, seed, **options):
            seeds.append(seed)
            return draw(config, m, seed, **options)

        monkeypatch.setattr(population, "_draw", spy)
        mc_average_regret(baseline, 0.1, m=1000, seed=3)
        assert seeds == [3]

    @pytest.mark.parametrize("m", [999, 1000, 2501])
    def test_parts_give_the_whole_cohort_bits(self, baseline, irregular_config, monkeypatch, m):
        """Drawn and scored in parts of 1,000 applicants, one part or a short
        last one, every estimate is the one-shot cohort's, bit for bit."""
        from screenlab import population

        monkeypatch.setattr(population, "_MC_PART", 1000)
        for config in (baseline, irregular_config):
            for tau in (-0.5, 0.0, 0.5):
                assert_estimates_of_the_one_shot_cohort(config, tau, m, seed=5)

    @pytest.mark.parametrize("m", [65_537, 200_003])
    def test_package_parts_give_the_one_shot_cohort_bits(self, baseline, m):
        for tau in (-0.5, 0.5):
            assert_estimates_of_the_one_shot_cohort(baseline, tau, m, seed=29)

    def test_peak_memory_per_applicant(self, baseline):
        """Only q and the two rows of losses are held for the whole cohort:
        scoring a whole sampled population peaked at 50 bytes per applicant."""
        m = 1_000_000
        assert traced_peak(mc_average_regret, baseline, 0.1, m, 3) <= 30 * m


def assert_numpy_mean_and_se(u: np.ndarray) -> None:
    """_mean_and_se(u) has the bits of u.mean() and u.std(ddof=1) / sqrt(n)."""
    want = float(u.mean()), float(u.std(ddof=1) / np.sqrt(len(u)))
    got = _mean_and_se(u.copy())
    assert [v.hex() for v in got] == [v.hex() for v in want]


class TestMeanAndSe:
    """The one Monte Carlo estimate: a sample mean and its standard error,
    with numpy's bits and without its temporary."""

    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=300),
           offset=st.sampled_from([0.0, 1e6, -1e6]))
    @settings(deadline=None, max_examples=150, derandomize=True)
    def test_generated_arrays(self, values, offset):
        assert_numpy_mean_and_se(np.array(values) + offset)

    @pytest.mark.parametrize("n", [2, 3, 8, 127, 128, 129, 1000, 65_537])
    @pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
    def test_sampled_arrays(self, n, offset):
        """Sizes on both sides of numpy's blocks of 8 and 128 summands."""
        rng = np.random.default_rng(n)
        assert_numpy_mean_and_se(rng.standard_normal(n) + offset)

    def test_two_values(self):
        assert_numpy_mean_and_se(np.array([0.1, 0.7]))
        assert _mean_and_se(np.array([1.0, 3.0])) == (2.0, 1.0)

    @pytest.mark.parametrize("n", [2, 7, 1000])
    def test_constant_array_has_no_spread(self, n):
        assert_numpy_mean_and_se(np.full(n, 0.3))
        assert _mean_and_se(np.full(n, -1e6))[1] == 0.0

    def test_rows_of_mixed_sign(self):
        """Rows of a 2-D array, as mc_average_regret passes its losses: each
        row's estimate is numpy's, and the row is left holding its squared
        deviations from the mean."""
        rng = np.random.default_rng(11)
        losses = rng.standard_normal((2, 5_000)) * [[0.5], [3.0]] - [[0.1], [-0.2]]
        assert (losses < 0).any(axis=1).all() and (losses > 0).any(axis=1).all()
        before = losses.copy()
        for row, kept in zip(losses, before):
            assert_numpy_mean_and_se(row)
            mean, _ = _mean_and_se(row)
            assert np.array_equal(row, (kept - mean) ** 2)


def assert_estimates_of_the_one_shot_cohort(config, tau: float, m: int, seed: int) -> None:
    cohort = one_shot_population(config, m, seed)
    pair = score_pair(config, cohort.theta, tau)
    estimates = mc_average_regret(config, tau, m=m, seed=seed)
    for est, algo, s in zip(estimates, ("s1", "s2"), pair, strict=True):
        u = _regret_values(config.payoffs, s, cohort.q)[3]
        assert est == McRegretEstimate(
            value=float(u.mean()),
            standard_error=float(u.std(ddof=1) / np.sqrt(m)),
            algo=algo, tau=tau, m=m, seed=seed,
        )


class TestClassifyEnvironment:
    def test_baseline_reference_report(self, baseline):
        report = classify_environment(baseline)
        np.testing.assert_allclose(report.theta_beta, 0.9054651081081642, atol=1e-11)
        np.testing.assert_allclose(report.alpha_q, 0.4623421334105256, atol=1e-12)
        np.testing.assert_allclose(report.alpha_u, 0.8173904816796749, atol=1e-12)
        np.testing.assert_allclose(report.rhs, -0.3806402190575455, atol=1e-12)
        assert report.lhs == 1.0
        assert report.classification == "regular"

    def test_irregular_reference_report(self, irregular_config):
        report = classify_environment(irregular_config)
        np.testing.assert_allclose(report.theta_beta, 1.7444288036604396, atol=1e-10)
        np.testing.assert_allclose(report.alpha_q, 0.8933291062793891, atol=1e-12)
        np.testing.assert_allclose(report.alpha_u, 0.9594578269663047, atol=1e-12)
        np.testing.assert_allclose(report.rhs, 3.5928111642055582, atol=1e-11)
        assert report.classification == "irregular"

    def test_theta_beta_is_the_phi_root(self, baseline, irregular_config, random_table):
        """The closed form against phi itself: within 2 spacings of beta, and
        phi crosses beta within 8 ulps of theta_beta either side."""
        for config in [baseline, irregular_config, *(r.config for r in random_table)]:
            theta_beta = classify_environment(config).theta_beta
            beta = config.beta
            ulp = np.spacing(abs(theta_beta))
            phi = [float(marginal_posterior_phi(config, theta_beta + k * ulp)) for k in (-8, 0, 8)]
            assert abs(phi[1] - beta) <= 2 * np.spacing(beta)
            assert phi[0] <= beta <= phi[2]

    def test_flat_theta_posterior_classifies(self):
        """A 1e-300 theta mean shift put the breakpoint past any bracket,
        which raised DomainError; it lies ~4e299 out, so every alpha is 1."""
        report = classify_environment(ModelConfig.from_dict(FLAT_THETA_DOC))
        assert np.isfinite(report.theta_beta) and report.theta_beta > 1e299
        assert (report.alpha_q, report.alpha_u) == (1.0, 1.0)
        assert report.classification == "regular"

    def test_non_finite_breakpoint_raises(self):
        """A subnormal theta slope overflows the closed form."""
        config = ModelConfig.from_dict(dict(BASELINE_DOC, mu_q=[1e-310, 1.0]))
        with pytest.raises(DomainError, match="phi = beta breakpoint is not finite"):
            classify_environment(config)

    def test_alphas_against_simulation(self, baseline):
        report = classify_environment(baseline)
        pop = sample_population(baseline, 400_000, seed=13)
        phi = np.asarray(marginal_posterior_phi(baseline, pop.theta))
        below = phi <= baseline.beta
        alpha_q_hat = below[pop.q == 1].mean()
        alpha_u_hat = below[pop.q == 0].mean()
        assert abs(alpha_q_hat - report.alpha_q) < 0.005
        assert abs(alpha_u_hat - report.alpha_u) < 0.005

    def test_low_prior_always_regular(self):
        """With pi <= 1/2 the inequality cannot fail."""
        for c in (-0.5, 0.0, 0.5):
            config = ModelConfig.from_dict({**BASELINE_DOC, "pi": 0.5, "c": c})
            assert classify_environment(config).classification == "regular"

    def test_unsupported_when_phi_not_increasing(self):
        config = ModelConfig.from_dict(NONMONOTONE_PHI_DOC)
        with pytest.raises(UnsupportedModelError):
            classify_environment(config)


class TestNonatomic:
    def test_no_duplicates_at_scale(self, baseline):
        report = verify_nonatomic(baseline, tau=0.0, m=20_000, seed=14)
        assert report.m == 20_000
        assert all(count == 0 for count in report.duplicates.values())

    def test_defined_counts_follow_knife_edge(self, baseline):
        """tau_d1 exists only below the knife-edge theta."""
        pop = sample_population(baseline, 20_000, seed=14)
        report = verify_nonatomic(baseline, tau=0.0, m=20_000, seed=14)
        phi = np.asarray(marginal_posterior_phi(baseline, pop.theta))
        assert report.defined["tau_d1"] == int((phi < baseline.beta).sum())
        assert report.defined["tau_d2"] == 20_000

    def test_scores_the_sampled_thetas_without_gamma(self, baseline, monkeypatch):
        """The thetas come from the sampler's stream without gamma, over
        more than one sampling part: the same bits as sample_population's."""
        calls, score = [], scores.score_pair

        def spy(config, theta, tau):
            calls.append((np.array(theta), tau))
            return score(config, theta, tau)

        monkeypatch.setattr(scores, "score_pair", spy)
        m = PART_STRADDLING[-2]
        verify_nonatomic(baseline, tau=0.3, m=m, seed=14)
        # the first call scores the sample at tau; the critical roots follow
        theta, tau = calls[0]
        assert tau == 0.3
        assert same_bits(theta, sample_population(baseline, m, seed=14).theta)
