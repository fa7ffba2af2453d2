"""Closed-form generalization and concentration bounds, plus Monte-Carlo checks.

All bounds are evaluated in their exact pre-asymptotic form so that every
quantity is computable without hidden constants. With C classes, diversity
nu (total feature variance), squared-norm variance V, N samples and failure
probability delta in (0, 1/2):

  weight-norm lower bound (expected entropy Hbar):
      ||w||_2 >= (ln C - Hbar) / (2 sqrt(nu))

  entropy-deviation bound on |empirical mean entropy - expected entropy|,
  holding with probability >= 1 - delta, for row-norm bound s:
      s * [ sqrt((2/N) nu ln(4/delta))
            + (4 V (2/delta - 1) / N^3)^(1/4) * ln(4/delta) ]

  empirical weight-norm lower bound (empirical mean entropy Hhat), with
  probability >= 1 - delta:
      ||w||_2 >= (ln C - Hhat) / D,
      D = 2 sqrt(nu) - sqrt((2/N) (nu + sqrt(V (2/delta - 1) / N)) ln(2/delta))

  which recovers the expected-entropy bound as N -> infinity.
  ``bounds_summary.txt`` prints D next to the looser asymptotic denominator
  (2 - sqrt((2/N) ln(2/delta))) sqrt(nu) for comparison at small N.

The deviation bound is stated for the max row norm ||w||_inf; because
||w||_inf <= ||w||_2, substituting ||w||_2 gives a weaker bound that is
always implied. Verification counts violations against the ||w||_2 form.

Monte-Carlo verification draws (model, dataset) trials. Every observed
quantity is a mean prediction entropy, which depends on an input x only
through its logits V x (V = W A), and the logits of the feature mixture are
themselves an exact Gaussian mixture in R^C (means V mu_c, covariances
V Sigma_c V'). Both the expected (reference) entropy and the N-sample
empirical entropy of a trial are therefore sampled in logit space, never as
feature vectors. Each draw maps min(C, n) standard normals through a factor
of V Sigma_c V': its spectral factor for C <= n, and V L_c, with L_c the
component's own n x n spectral factor, for C > n, so no C x C covariance or
eigendecomposition is formed however many classes there are. A block of
draws whose logits are proved within +-300 (from the model's means and
factor and the block's largest normal) takes its entropies without the
softmax's max shift; any other block keeps the shift. The guard reads only
the model and the block, so a trial's rows do not depend on the other
trials beside it. The mixture is validated on entry to ``verify_bounds``,
not again for each trial's dataset.

``verify_bounds`` runs every (kind, N) job of a run in one pass over the
trials, and ``verify_bound`` is its one-job case. Trial t draws its model
from its own derived stream, whatever the job, and each N-draw empirical
mean entropy continues that stream right after the model draw, so every job
at the same N reads the same empirical mean. The reference entropies of the
``weight_norm`` and ``entropy_deviation`` checks use common random numbers:
one set of component counts and standard normals per run (per seed), from a
stream of its own, which every trial maps through its own logit mixture.
A trial's reference depends on neither the kind nor N, so it is estimated
once and serves every job of the run; a job's rows are therefore the same
whatever other jobs run beside it. Each trial's estimate keeps the law and
the standard error of an estimate from fresh draws; only the errors of
different trials are correlated, and through the shared reference so are a
trial's checks of different kinds and N. For ``weight_norm`` that changes
nothing a trial asserts: the check is a per-trial inequality whose observed
side is widened by ``GUARD_SIGMAS`` of that trial's own standard error. For
``entropy_deviation`` the trials' violations are no longer independent, so
a job's violation rate spreads more around its mean than independent
trials would make it; its expectation is unchanged. The trials are run in
contiguous shares, one per thread, and each share replays the run's
reference stream, so the rows do not depend on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._streams import REFERENCE, TRIAL, _parallel, derive_rng
from .core import (
    MIN_MC_DRAWS,
    LinearSoftmaxModel,
    _sample_entropies,
    _shared_expected_entropies,
)
from .diversity import analytic_diversity
from .errors import DomainError
from .mixtures import GaussianMixture, fourth_moment_and_variance

BOUND_KINDS = ("weight_norm", "entropy_deviation", "empirical_weight_norm")
# Fewest trials ``verify_bound`` runs: a violation rate over fewer says little.
MIN_TRIALS = 100
# Standard errors of the Monte-Carlo expected entropy by which the weight_norm
# check widens its observed side.
GUARD_SIGMAS = 3.0


def weight_norm_lower_bound(class_count: int, mean_entropy: float, nu: float) -> float:
    """(ln C - mean_entropy) / (2 sqrt(nu)); compare against ||w||_2."""
    if nu <= 0:
        raise DomainError(f"nu must be > 0, got {nu}")
    if class_count < 2:
        raise DomainError(f"need at least 2 classes, got {class_count}")
    log_c = math.log(class_count)
    if not 0.0 <= mean_entropy <= log_c * (1 + 1e-12) + 1e-12:
        raise DomainError(f"mean_entropy {mean_entropy} outside [0, ln {class_count}]")
    return (log_c - mean_entropy) / (2.0 * math.sqrt(nu))


def entropy_deviation_bound(
    weight_scale: float, nu: float, var_sqnorm: float, sample_count: int, delta: float
) -> float:
    """High-probability bound on |empirical - expected| mean entropy.

    ``weight_scale`` is the row-norm bound used (||w||_inf as stated, or
    ||w||_2 for the implied weaker form).
    """
    if sample_count < 1:
        raise DomainError(f"sample_count must be >= 1, got {sample_count}")
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 0.5), got {delta}")
    if weight_scale < 0 or nu < 0 or var_sqnorm < 0:
        raise DomainError("weight_scale, nu and var_sqnorm must be >= 0")
    log_term = math.log(4.0 / delta)
    n = float(sample_count)
    first = math.sqrt((2.0 / n) * nu * log_term)
    second = (4.0 * var_sqnorm * (2.0 / delta - 1.0) / n**3) ** 0.25 * log_term
    return weight_scale * (first + second)


def _empirical_denominator(nu: float, var_sqnorm: float, sample_count: int, delta: float) -> float:
    n = float(sample_count)
    inflated = nu + math.sqrt(var_sqnorm * (2.0 / delta - 1.0) / n)
    return 2.0 * math.sqrt(nu) - math.sqrt((2.0 / n) * inflated * math.log(2.0 / delta))


def _asymptotic_denominator(nu: float, sample_count: int, delta: float) -> float:
    return (2.0 - math.sqrt((2.0 / sample_count) * math.log(2.0 / delta))) * math.sqrt(nu)


def empirical_weight_norm_lower_bound(
    class_count: int,
    mean_entropy: float,
    nu: float,
    var_sqnorm: float,
    sample_count: int,
    delta: float,
) -> float:
    """Finite-sample lower bound on ||w||_2 from the empirical mean entropy."""
    if nu <= 0:
        raise DomainError(f"nu must be > 0, got {nu}")
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 0.5), got {delta}")
    log_c = math.log(class_count)
    if not 0.0 <= mean_entropy <= log_c * (1 + 1e-12) + 1e-12:
        raise DomainError(f"entropy {mean_entropy} outside [0, ln {class_count}]")
    denom = _empirical_denominator(nu, var_sqnorm, sample_count, delta)
    if denom <= 0:
        raise DomainError(
            f"denominator {denom:g} is not positive at N={sample_count}; bound inapplicable"
        )
    return (log_c - mean_entropy) / denom


# ---------------------------------------------------------------------------
# Monte-Carlo verification harness
# ---------------------------------------------------------------------------

ModelSampler = Callable[[int, np.random.Generator], LinearSoftmaxModel]


def _margin_tol(bound: float) -> float:
    return 1e-12 * max(1.0, abs(bound))


def uniform_model_sampler(
    class_count: int, dim: int, scales: tuple[float, ...] = (0.1, 1.0, 10.0)
) -> ModelSampler:
    """Weights uniform in [-s, s], with s cycling through ``scales`` by trial index."""

    def draw(trial: int, rng: np.random.Generator) -> LinearSoftmaxModel:
        s = scales[trial % len(scales)]
        return LinearSoftmaxModel(rng.uniform(-s, s, size=(class_count, dim)))

    return draw


@dataclass(eq=False)
class TrialRow:
    trial: int
    kind: str
    observed: float
    bound: float
    margin: float
    violated: bool

    def csv_row(self) -> tuple:
        """This trial's line of verify.csv, under ``VERIFY_CSV_HEADER``."""
        return (self.trial, self.kind, self.observed, self.bound, self.margin, self.violated)


@dataclass(eq=False)
class VerificationSummary:
    kind: str
    trials: int
    sample_count: int
    delta: float
    violation_count: int
    violation_rate: float
    worst_margin: float
    inapplicable_count: int
    rows: list[TrialRow]
    extras: dict

    def csv_row(self) -> tuple:
        """This job's line of bounds_summary.csv, under ``BOUNDS_SUMMARY_CSV_HEADER``."""
        return (
            self.kind, self.sample_count, self.trials, self.violation_count,
            self.violation_rate, self.delta, self.worst_margin, self.inapplicable_count,
        )

    def text(self) -> str:
        """This job's lines of bounds_summary.txt."""
        text = (
            f"{self.kind} N={self.sample_count}: violation rate {self.violation_rate:.4f} "
            f"vs delta {self.delta} (worst margin {self.worst_margin:.6g})\n"
        )
        if "exact_denominator" in self.extras:
            text += (
                f"  empirical-bound denominators at N={self.sample_count}: "
                f"exact {self.extras['exact_denominator']:.6g}, "
                f"asymptotic {self.extras['asymptotic_denominator']:.6g}\n"
            )
        return text


VERIFY_CSV_HEADER = "trial,theorem,observed,bound,margin,violated"
BOUNDS_SUMMARY_CSV_HEADER = "kind,sample_count,trials,violations,rate,delta,worst_margin,inapplicable"


def _reference_stream(seed: int) -> np.random.Generator:
    """The stream of a run's shared reference normals: one per seed, for every job.

    Its tags are all at least 1, so the address ends in no zero tag and
    aliases no shorter one (see ``_streams``).
    """
    return derive_rng(seed, REFERENCE)


def verify_bound(
    kind: str,
    mixture: GaussianMixture,
    model_sampler: ModelSampler,
    sample_count: int,
    delta: float,
    trials: int,
    seed: int,
    entropy_draws: int = 100_000,
    threads: int = 1,
) -> VerificationSummary:
    """Draw (model, dataset) pairs and count violations of the chosen bound.

    weight_norm:            deterministic inequality; the expected entropy is
                            estimated by Monte-Carlo and the observed side is
                            widened by ``GUARD_SIGMAS`` standard errors, so
                            the violation rate must be 0.
    entropy_deviation:      probabilistic; rate must stay <= delta. The
                            expected entropy is estimated for each trial's
                            model and compared with the mean entropy of
                            ``sample_count`` fresh draws.
    empirical_weight_norm:  probabilistic; rate must stay <= delta. Trials
                            where the denominator is not positive are counted
                            as inapplicable, never as violations.

    This is the one-job case of ``verify_bounds``, and its rows are that
    job's rows in any run: the expected entropies share the run's
    ``entropy_draws`` normals, which depend only on ``seed`` (see the module
    docstring). Each trial's estimate and standard error have the law of a
    fresh-draw estimate, but the errors of different trials, and a trial's
    checks of different kinds and N, are correlated through them.
    ``threads`` splits the trials into contiguous shares, each of which
    replays the shared draws, so the rows do not depend on it.

    Margins within floating-point round-off of zero (1e-12 relative to the
    bound) count as satisfied: the zero-classifier edge meets every bound
    with exact equality.
    """
    return verify_bounds(
        [(kind, sample_count)], mixture, model_sampler, delta, trials, seed, entropy_draws, threads
    )[0]


def verify_bounds(
    jobs: list[tuple[str, int]],
    mixture: GaussianMixture,
    model_sampler: ModelSampler,
    delta: float,
    trials: int,
    seed: int,
    entropy_draws: int = 100_000,
    threads: int = 1,
) -> list[VerificationSummary]:
    """``verify_bound`` for each (kind, N) job, in order, from one pass over the trials.

    Each trial draws its model once, its N-draw empirical mean entropy once
    for each distinct N that an ``entropy_deviation`` or
    ``empirical_weight_norm`` job needs, and, if any job needs one, its
    reference entropy once. Every job's rows are closed-form arithmetic on
    these values, and ``verify_bounds(jobs)[j]`` equals
    ``verify_bound(*jobs[j])`` bit for bit.
    """
    for kind, _ in jobs:
        if kind not in BOUND_KINDS:
            raise DomainError(f"unknown bound kind {kind!r}")
    if trials < MIN_TRIALS:
        raise DomainError(f"trials must be >= {MIN_TRIALS}, got {trials}")
    for _, sample_count in jobs:
        if sample_count < 1:
            raise DomainError(f"sample_count must be >= 1, got {sample_count}")
    referenced = any(kind != "empirical_weight_norm" for kind, _ in jobs)
    if referenced and entropy_draws < MIN_MC_DRAWS:
        raise DomainError(f"draws must be >= {MIN_MC_DRAWS}, got {entropy_draws}")
    # analytic_diversity validates the mixture; trials sample it unchecked
    report = analytic_diversity(mixture)
    nu = report.nu
    _, var_sqnorm = fourth_moment_and_variance(mixture)
    empirical_counts = sorted({n for kind, n in jobs if kind != "weight_norm"})

    def draw(trial: int) -> tuple[LinearSoftmaxModel, dict[int, float]]:
        """The trial's model and its N-draw empirical mean entropy at each ``empirical_counts`` N."""
        rng = derive_rng(seed, TRIAL, trial)
        model = model_sampler(trial, rng)
        after_model = rng.bit_generator.state
        means = {}
        for n in empirical_counts:
            # every N continues the trial's stream from right after the model draw
            rng.bit_generator.state = after_model
            means[n] = float(_sample_entropies(model, mixture, n, rng).mean())
        return model, means

    def trial_row(kind, sample_count, trial, model, emp, reference) -> TrialRow | None:
        if kind == "weight_norm":
            est, se = reference
            bound = weight_norm_lower_bound(
                model.class_count, min(est, math.log(model.class_count)), nu
            )
            observed = model.w_l2()
            guard = GUARD_SIGMAS * se / (2.0 * math.sqrt(nu))
            margin = observed + guard - bound
        elif kind == "entropy_deviation":
            est, _ = reference
            observed = abs(emp - est)
            bound = entropy_deviation_bound(model.w_l2(), nu, var_sqnorm, sample_count, delta)
            margin = bound - observed
        else:  # empirical_weight_norm
            try:
                bound = empirical_weight_norm_lower_bound(
                    model.class_count,
                    min(emp, math.log(model.class_count)),
                    nu,
                    var_sqnorm,
                    sample_count,
                    delta,
                )
            except DomainError:
                return None
            observed = model.w_l2()
            margin = observed - bound
        return TrialRow(
            trial, kind, float(observed), float(bound), float(margin),
            bool(margin < -_margin_tol(bound)),
        )

    def run_share(share: range) -> list[list[TrialRow | None]]:
        """Each job's outcomes for the trials of ``share``."""
        drawn = [draw(trial) for trial in share]
        references = [None] * len(drawn)
        if referenced:
            references = _shared_expected_entropies(
                [model for model, _ in drawn], mixture, entropy_draws, _reference_stream(seed)
            )
        return [
            [
                trial_row(kind, n, trial, model, means.get(n), reference)
                for trial, (model, means), reference in zip(share, drawn, references)
            ]
            for kind, n in jobs
        ]

    def summary(
        kind: str, sample_count: int, outcomes: list[TrialRow | None]
    ) -> VerificationSummary:
        """One job's summary of its trials' outcomes (None for an inapplicable trial)."""
        rows = [r for r in outcomes if r is not None]
        inapplicable = len(outcomes) - len(rows)
        violations = sum(r.violated for r in rows)
        worst = min((r.margin for r in rows), default=math.inf)

        effective = len(rows)
        extras = {}
        if kind == "empirical_weight_norm":
            extras["asymptotic_denominator"] = _asymptotic_denominator(nu, sample_count, delta)
            extras["exact_denominator"] = _empirical_denominator(nu, var_sqnorm, sample_count, delta)
        return VerificationSummary(
            kind=kind,
            trials=trials,
            sample_count=sample_count,
            delta=delta,
            violation_count=violations,
            violation_rate=violations / effective if effective else 0.0,
            worst_margin=worst,
            inapplicable_count=inapplicable,
            rows=rows,
            extras=extras,
        )

    # contiguous shares, one task each; a trial's row does not depend on the
    # other trials of its share, so it does not depend on the thread count
    parts = max(1, min(threads, trials))
    shares = [range(trials * i // parts, trials * (i + 1) // parts) for i in range(parts)]
    by_share = _parallel([lambda s=s: run_share(s) for s in shares], threads)
    return [
        summary(kind, n, [o for share in by_share for o in share[j]])
        for j, (kind, n) in enumerate(jobs)
    ]

