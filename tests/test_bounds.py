"""Closed-form bound values, shape of their dependence, and MC verification."""

import functools
import math
from collections import Counter
from pathlib import Path

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
    verify_bounds,
    weight_norm_lower_bound,
)
from maxentlab.configio import parse_config, resolve_mixture
from maxentlab.core import LinearSoftmaxModel, _sample_entropies, _shared_expected_entropies
from maxentlab.diversity import analytic_diversity
from maxentlab.errors import CovarianceError, DomainError
from maxentlab.figures import _bound_jobs
from maxentlab.mixtures import GaussianMixture, fourth_moment_and_variance, recenter_zero_mean

QUICK_CFG = Path(__file__).resolve().parent.parent / "configs" / "quick.cfg"


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
            # the reference of one trial alone on the run's stream
            [(est, se)] = _shared_expected_entropies([model], mix, draws, _reference_stream(seed))
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

    def test_distinct_seeds_draw_distinct_normals(self):
        seeds = (0, 1, 2, 7, 2**32 - 1)
        draws = {tuple(_reference_stream(seed).standard_normal(4)) for seed in seeds}
        assert len(draws) == len(seeds)
        # nor does a run share its normals with a trial's stream
        trials = [derive_rng(seed, TRIAL, t) for seed in seeds for t in range(100)]
        assert not draws & {tuple(rng.standard_normal(4)) for rng in trials}


@functools.cache
def quick_bounds_setup():
    """configs/quick.cfg's (kind, N) jobs, mixture, model sampler and [bounds] settings."""
    cfg = parse_config(QUICK_CFG.read_text(), base_dir=QUICK_CFG.parent)
    mixture = resolve_mixture(cfg)
    sampler = uniform_model_sampler(mixture.count, mixture.dim, cfg.bounds_scales)
    options = dict(
        delta=cfg.delta, trials=cfg.bounds_trials, seed=cfg.seeds[0],
        entropy_draws=cfg.bounds_entropy_draws,
    )
    return tuple(_bound_jobs(cfg)), mixture, sampler, options


@functools.cache
def quick_solo_run(kind, sample_count):
    """``summary_bits`` of a quick.cfg job run alone, through ``verify_bound``."""
    _, mixture, sampler, options = quick_bounds_setup()
    return summary_bits(verify_bound(kind, mixture, sampler, sample_count, **options))


def summary_bits(summary):
    """The repr of a summary's rows, summary line, text and extras: equal reprs are equal bits."""
    return repr(
        ([vars(r) for r in summary.rows], summary.csv_row(), summary.text(), summary.extras)
    )


class TestVerifyBounds:
    @given(
        order=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
        threads=st.sampled_from((1, 2, 3)),
    )
    @settings(max_examples=8, deadline=None)
    def test_each_job_equals_its_run_alone(self, order, threads):
        jobs, mixture, sampler, options = quick_bounds_setup()
        assert len(jobs) == 3
        chosen = [jobs[i] for i in order]
        summaries = verify_bounds(chosen, mixture, sampler, threads=threads, **options)
        assert [(s.kind, s.sample_count) for s in summaries] == chosen
        for job, summary in zip(chosen, summaries):
            assert summary_bits(summary) == quick_solo_run(*job)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_empirical_means_continue_each_trial_stream_at_every_n(self, threads):
        mix, sampler = two_component_mixture(), uniform_model_sampler(3, 2)
        draws, seed, delta = 300, 5, 0.1
        jobs = [
            ("entropy_deviation", 40), ("empirical_weight_norm", 7), ("weight_norm", 40),
            ("entropy_deviation", 7), ("empirical_weight_norm", 40),
        ]
        summaries = verify_bounds(
            jobs, mix, sampler, delta, trials=100, seed=seed, entropy_draws=draws, threads=threads
        )
        nu = analytic_diversity(mix).nu
        _, var_sqnorm = fourth_moment_and_variance(mix)
        for (kind, n), summary in zip(jobs, summaries):
            for row in summary.rows[:5] + summary.rows[-5:]:
                # a fresh stream: model, then the N-draw empirical mean
                rng = derive_rng(seed, TRIAL, row.trial)
                model = sampler(row.trial, rng)
                emp = float(_sample_entropies(model, mix, n, rng).mean())
                if kind == "entropy_deviation":
                    [(est, _)] = _shared_expected_entropies(
                        [model], mix, draws, _reference_stream(seed)
                    )
                    assert row.observed == abs(emp - est)
                elif kind == "empirical_weight_norm":
                    assert row.bound == empirical_weight_norm_lower_bound(
                        3, min(emp, math.log(3)), nu, var_sqnorm, n, delta
                    )

    @pytest.mark.parametrize("threads", [1, 3])
    def test_model_sampler_runs_once_per_trial(self, threads):
        sampler = uniform_model_sampler(3, 2)
        calls = Counter()

        def counting_sampler(trial, rng):
            calls[trial] += 1
            return sampler(trial, rng)

        jobs = [(kind, n) for kind in BOUND_KINDS for n in (10, 30)]
        summaries = verify_bounds(
            jobs, two_component_mixture(), counting_sampler, 0.1, trials=100, seed=2,
            entropy_draws=200, threads=threads,
        )
        assert len(summaries) == len(jobs)
        assert calls == Counter(range(100))

    @pytest.mark.parametrize(
        "jobs, trials, draws, message",
        [
            ([("weight_norm", 10), ("nope", 10)], 100, 200, "unknown bound kind 'nope'"),
            ([("empirical_weight_norm", 10), ("entropy_deviation", 0)], 100, 200,
             "sample_count must be >= 1, got 0"),
            ([("weight_norm", 10)], 99, 200, "trials must be >= 100, got 99"),
            ([("empirical_weight_norm", 10), ("weight_norm", 10)], 100, 99,
             "draws must be >= 100, got 99"),
            ([("entropy_deviation", 10)], 100, 99, "draws must be >= 100, got 99"),
        ],
    )
    def test_validation_errors(self, jobs, trials, draws, message):
        with pytest.raises(DomainError, match=message):
            verify_bounds(
                jobs, unit_mixture(), uniform_model_sampler(3, 2), 0.1, trials, 0,
                entropy_draws=draws,
            )

    def test_empirical_jobs_alone_take_no_reference_draws(self):
        # no job needs a reference, so a draw count below the minimum is never used
        summaries = verify_bounds(
            [("empirical_weight_norm", 10), ("empirical_weight_norm", 20)], unit_mixture(),
            uniform_model_sampler(3, 2), 0.1, 100, 0, entropy_draws=1,
        )
        assert [s.sample_count for s in summaries] == [10, 20]

    def test_an_invalid_mixture_is_refused_on_entry(self):
        bad = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), -np.eye(2)[None])
        with pytest.raises(CovarianceError):
            verify_bounds([("weight_norm", 10)], bad, uniform_model_sampler(3, 2), 0.1, 100, 0)
