"""Monte Carlo population pipeline: sampling, the selective-labels stage,
empirical scores, and the environment classification."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

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
    Population,
    ScoreBin,
    empirical_scores,
)
from screenlab.scores import log_acceptance_threshold
from conftest import BASELINE_DOC, NONMONOTONE_PHI_DOC


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


class TestEmpiricalScoresOracle:
    """One-pass binning equals the per-bin mask loop, field by field."""

    def test_quantile_bins_with_starved_bins(self, baseline):
        data = run_stage_one(baseline, sample_population(baseline, 40_000, seed=9), 0.9)
        edges = np.unique(np.quantile(data.theta, np.linspace(0.0, 1.0, 31)))
        got = empirical_scores(data, theta_bins=30)
        assert any(b.s1_hat is None for b in got)
        assert got == _masked_loop_scores(data, edges)

    def test_explicit_edges_leave_thetas_out(self, baseline):
        pop = sample_population(baseline, 20_000, seed=21)
        edges = np.array([-1.0, -0.25, 0.5, 0.5, 1.5])
        theta = pop.theta.copy()
        theta[:3] = [1.5, -0.25, -1.0]  # on the last, an inner and the first edge
        data = run_stage_one(baseline, Population(q=pop.q, theta=theta, gamma=pop.gamma), 0.0)
        got = empirical_scores(data, theta_bins=edges)
        assert sum(b.n for b in got) < len(theta)
        assert got[-1].theta_hi == 1.5
        assert got == _masked_loop_scores(data, np.unique(edges))


class TestMcAverageRegret:
    def test_matches_quadrature_within_three_se(self, baseline):
        for tau in (-0.5, 0.0, 0.5):
            for est in mc_average_regret(baseline, tau, m=200_000, seed=12):
                exact = expected_regret(baseline, est.algo, tau)
                assert abs(est.value - exact) < 3 * est.standard_error

    def test_records_its_inputs(self, baseline):
        estimates = mc_average_regret(baseline, 0.1, m=1000, seed=3)
        assert [(est.algo, est.tau, est.m, est.seed) for est in estimates] == [
            ("s1", 0.1, 1000, 3), ("s2", 0.1, 1000, 3),
        ]

    def test_both_scores_share_one_cohort(self, baseline, monkeypatch):
        from screenlab import population

        seeds = []
        draw = population.sample_population

        def spy(config, m, seed):
            seeds.append(seed)
            return draw(config, m, seed)

        monkeypatch.setattr(population, "sample_population", spy)
        mc_average_regret(baseline, 0.1, m=1000, seed=3)
        assert seeds == [3]


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

    def test_theta_beta_is_the_phi_root(self, baseline):
        report = classify_environment(baseline)
        phi = float(marginal_posterior_phi(baseline, report.theta_beta))
        assert abs(phi - baseline.beta) < 1e-12

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
