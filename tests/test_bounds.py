"""Closed-form bound values, shape of their dependence, and MC verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentlab._streams import TRIAL, derive_rng
from maxentlab.bounds import (
    BOUND_KINDS,
    _reference_stream,
    empirical_weight_norm_lower_bound,
    entropy_deviation_bound,
    uniform_model_sampler,
    verify_bound,
    weight_norm_lower_bound,
)
from maxentlab.core import LinearSoftmaxModel, _sample_entropies, _shared_expected_entropies
from maxentlab.diversity import analytic_diversity
from maxentlab.errors import DomainError
from maxentlab.mixtures import GaussianMixture, recenter_zero_mean


def unit_mixture(n=2):
    return GaussianMixture(np.array([1.0]), np.zeros((1, n)), np.eye(n)[None])


def two_component_mixture():
    return recenter_zero_mean(
        GaussianMixture(
            np.array([0.3, 0.7]), np.array([[1.0, 0.0], [-0.3, 0.5]]), np.stack([np.eye(2)] * 2)
        )
    )


class TestWeightNormLowerBound:
    def test_vacuous_at_uniform(self):
        assert weight_norm_lower_bound(10, math.log(10), 4.0) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert weight_norm_lower_bound(10, 1.0, 4.0) == pytest.approx(
            (math.log(10) - 1.0) / 4.0, abs=1e-12
        )
        assert weight_norm_lower_bound(10, 1.0, 4.0) == pytest.approx(0.325646, abs=1e-6)

    def test_scaling_in_nu(self):
        base = weight_norm_lower_bound(10, 1.0, 3.0)
        assert weight_norm_lower_bound(10, 1.0, 12.0) == pytest.approx(base / 2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            weight_norm_lower_bound(10, 1.0, 0.0)
        with pytest.raises(DomainError):
            weight_norm_lower_bound(10, -0.1, 1.0)


class TestEntropyDeviationBound:
    def test_zero_classifier(self):
        assert entropy_deviation_bound(0.0, 2.0, 8.0, 1000, 0.1) == 0.0

    def test_reference_value(self):
        value = entropy_deviation_bound(1.0, 2.0, 8.0, 1000, 0.1)
        assert value == pytest.approx(0.2245, abs=2e-4)

    def test_first_term_scaling_in_n(self):
        # quadrupling N exactly halves the sqrt(1/N) term
        def first_term(n):
            return entropy_deviation_bound(1.0, 2.0, 0.0, n, 0.1)

        assert first_term(4000) == pytest.approx(first_term(1000) / 2.0, rel=1e-12)

    def test_monotonicity_grid(self, rng):
        for _ in range(200):
            nu = rng.uniform(0.5, 5)
            var = rng.uniform(0.5, 50)
            n = int(rng.integers(10, 10_000))
            delta = rng.uniform(0.01, 0.45)
            b = entropy_deviation_bound(1.0, nu, var, n, delta)
            assert entropy_deviation_bound(1.0, nu, var, 4 * n, delta) < b
            assert entropy_deviation_bound(1.0, nu * 1.5, var, n, delta) > b
            assert entropy_deviation_bound(1.0, nu, var * 2, n, delta) > b
            assert entropy_deviation_bound(1.0, nu, var, n, delta / 2) > b

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_deviation_bound(1.0, 1.0, 1.0, 0, 0.1)
        with pytest.raises(DomainError):
            entropy_deviation_bound(1.0, 1.0, 1.0, 10, 0.6)


class TestEmpiricalWeightNormBound:
    FIXTURE = dict(class_count=10, mean_entropy=1.0, nu=4.0, var_sqnorm=32.0, delta=0.1)

    def test_sandwich_at_fixture(self):
        t1 = weight_norm_lower_bound(10, 1.0, 4.0)
        c1 = empirical_weight_norm_lower_bound(sample_count=10**4, **self.FIXTURE)
        assert t1 <= c1 <= 2 * t1

    def test_recovers_limit(self):
        t1 = weight_norm_lower_bound(10, 1.0, 4.0)
        c1 = empirical_weight_norm_lower_bound(sample_count=10**8, **self.FIXTURE)
        assert abs(c1 - t1) / t1 <= 0.01

    def test_vacuous_at_uniform(self):
        value = empirical_weight_norm_lower_bound(10, math.log(10), 4.0, 32.0, 10**4, 0.1)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_nonpositive_denominator_rejected(self):
        # tiny N with large variance drives the subtracted term past 2 sqrt(nu)
        with pytest.raises(DomainError):
            empirical_weight_norm_lower_bound(10, 1.0, 0.01, 1e6, 2, 0.01)


class TestVerifyBound:
    def test_zero_classifier_never_violates(self):
        sampler = lambda trial, rng: LinearSoftmaxModel(np.zeros((3, 2)))
        summary = verify_bound(
            "weight_norm", unit_mixture(), sampler, 100, 0.1, trials=100, seed=0,
            entropy_draws=200,
        )
        assert summary.violation_count == 0
        # both sides are exactly zero at the uniform edge
        assert all(abs(r.bound) < 1e-12 and r.observed == 0.0 for r in summary.rows)

    def test_weight_norm_random_models(self):
        sampler = uniform_model_sampler(3, 2)
        summary = verify_bound(
            "weight_norm", unit_mixture(), sampler, 100, 0.1, trials=120, seed=1,
            entropy_draws=2000,
        )
        assert summary.violation_rate == 0.0

    def test_entropy_deviation_rate_below_delta(self):
        sampler = uniform_model_sampler(3, 2)
        summary = verify_bound(
            "entropy_deviation", unit_mixture(), sampler, 200, 0.1, trials=150, seed=2,
            entropy_draws=2000,
        )
        assert summary.violation_rate <= 0.1

    def test_empirical_weight_norm_rate_below_delta(self):
        sampler = uniform_model_sampler(3, 2)
        summary = verify_bound(
            "empirical_weight_norm", unit_mixture(), sampler, 200, 0.1, trials=150, seed=3,
        )
        assert summary.violation_rate <= 0.1
        assert "exact_denominator" in summary.extras
        assert "asymptotic_denominator" in summary.extras

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            verify_bound("nope", unit_mixture(), uniform_model_sampler(3, 2), 10, 0.1, 100, 0)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            verify_bound(
                "empirical_weight_norm", unit_mixture(), uniform_model_sampler(3, 2), 0, 0.1, 100, 0
            )

    def test_deterministic(self):
        sampler = uniform_model_sampler(3, 2)
        a = verify_bound("empirical_weight_norm", unit_mixture(), sampler, 100, 0.1, 100, 7)
        b = verify_bound("empirical_weight_norm", unit_mixture(), sampler, 100, 0.1, 100, 7)
        assert [(r.observed, r.bound) for r in a.rows] == [(r.observed, r.bound) for r in b.rows]

    @given(
        kind=st.sampled_from(BOUND_KINDS),
        sample_count=st.integers(1, 300),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=6, deadline=None)
    def test_rows_do_not_depend_on_threads(self, kind, sample_count, seed):
        mix = two_component_mixture()
        runs = [
            verify_bound(
                kind, mix, uniform_model_sampler(3, 2), sample_count, 0.1, trials=100,
                seed=seed, entropy_draws=300, threads=threads,
            )
            for threads in (1, 2)
        ]
        one, two = ([vars(r) for r in run.rows] for run in runs)
        assert one == two
        assert runs[0].inapplicable_count == runs[1].inapplicable_count

    @pytest.mark.parametrize("kind", ["weight_norm", "entropy_deviation"])
    def test_shares_of_one_two_and_three_give_the_same_rows(self, kind):
        # 100 trials make shares of 100; 50 and 50; 33, 33 and 34
        runs = [
            verify_bound(
                kind, two_component_mixture(), uniform_model_sampler(3, 2), 50, 0.1, trials=100,
                seed=9, entropy_draws=300, threads=threads,
            )
            for threads in (1, 2, 3)
        ]
        rows = [[vars(r) for r in run.rows] for run in runs]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("kind", ["weight_norm", "entropy_deviation"])
    def test_trial_rows_come_from_the_job_normals(self, kind):
        mix, sampler = two_component_mixture(), uniform_model_sampler(3, 2)
        n, draws, seed = 40, 500, 4
        summary = verify_bound(
            kind, mix, sampler, n, 0.1, trials=100, seed=seed, entropy_draws=draws
        )
        nu = analytic_diversity(mix).nu
        for row in summary.rows[:5] + summary.rows[-5:]:
            rng = derive_rng(seed, TRIAL, row.trial)
            model = sampler(row.trial, rng)
            # the reference of one trial alone on the job's stream
            [(est, se)] = _shared_expected_entropies(
                [model], mix, draws, _reference_stream(seed, kind, n)
            )
            if kind == "weight_norm":
                assert row.bound == weight_norm_lower_bound(3, min(est, math.log(3)), nu)
                assert row.margin == row.observed + 3.0 * se / (2.0 * math.sqrt(nu)) - row.bound
            else:
                # the empirical mean still comes next in the trial's own stream
                emp = float(_sample_entropies(model, mix, n, rng).mean())
                assert row.observed == abs(emp - est)


class TestReferenceStreams:
    def test_trailing_zero_tags_and_wide_tags_alias(self):
        # SeedSequence pads its four-word pool with zeros and splits a 64-bit tag
        # into two 32-bit words, so these addresses spell the same stream
        def normals(*address):
            return derive_rng(*address).standard_normal(4).tolist()

        assert normals(1, 5) == normals(1, 5, 0) == normals(1, 5, 0, 0)
        assert normals(1, 2**32) == normals(1, 0, 1)

    def test_distinct_jobs_draw_distinct_normals(self):
        jobs = [
            (seed, kind, n)
            for seed in (1, 2)
            for kind in ("weight_norm", "entropy_deviation")
            for n in (1, 100, 1000, 10_000)
        ]
        draws = {tuple(_reference_stream(*job).standard_normal(4)) for job in jobs}
        assert len(draws) == len(jobs)
        # nor does a job share its normals with a trial's stream
        trials = [derive_rng(seed, TRIAL, t) for seed in (1, 2) for t in range(100)]
        assert not draws & {tuple(rng.standard_normal(4)) for rng in trials}
