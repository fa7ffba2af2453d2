"""Synthetic benchmark regimes.

Two paired mixtures model a low-diversity ("fine-grained") and a
high-diversity ("large-scale") classification task: they share weights,
covariances and mean geometry, but the fine regime's component means are the
large regime's scaled down by MEAN_SCALE_RATIO. Covariances are small and
near-spherical while the large regime's means dominate its variance, so the
analytic diversity ratio lands well under 1/10 and the fine task is genuinely
harder (heavily overlapping classes) rather than a rescaled copy.

A third mixture supports the trainable-feature-map spectrum experiment: a
couple of high-variance nuisance directions carry no class information,
while the class means live in the remaining coordinates. Untrained features
are then top-heavy (nuisance dominates the spectrum), and training moves
variance into the many discriminative directions.
"""

from __future__ import annotations

import numpy as np

from ._streams import FIXTURE, derive_rng
from .errors import DomainError
from .mixtures import GaussianMixture, recenter_zero_mean, validate

DEFAULT_DIM = 16
DEFAULT_COMPONENTS = 10
MEAN_SCALE_RATIO = 0.1

_MEAN_NORM_RANGE = (2.7, 3.3)
_COV_DIAG_RANGE = (0.015, 0.025)

_SPECTRUM_NUISANCE_DIMS = 2
_SPECTRUM_NUISANCE_VAR = 1.0
_SPECTRUM_SIGNAL_VAR = 0.01
_SPECTRUM_MEAN_NORM = 0.8


def make_regime_fixtures(
    seed: int, dim: int = DEFAULT_DIM, components: int = DEFAULT_COMPONENTS
) -> tuple[GaussianMixture, GaussianMixture]:
    """(fine mixture, large mixture), both zero-mean, deterministic in seed."""
    rng = derive_rng(seed, FIXTURE, 0)
    directions = rng.standard_normal((components, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    norms = rng.uniform(*_MEAN_NORM_RANGE, size=components)
    means = directions * norms[:, None]
    covs = np.zeros((components, dim, dim))
    diag = rng.uniform(*_COV_DIAG_RANGE, size=(components, dim))
    for i in range(components):
        covs[i] = np.diag(diag[i])
    weights = np.full(components, 1.0 / components)
    large = recenter_zero_mean(GaussianMixture(weights, means, covs))
    fine = GaussianMixture(weights.copy(), large.means * MEAN_SCALE_RATIO, covs.copy())
    return validate(fine), validate(large)


def make_spectrum_fixture(
    seed: int, dim: int = DEFAULT_DIM, components: int = DEFAULT_COMPONENTS
) -> GaussianMixture:
    """Zero-mean mixture whose raw spectrum is dominated by non-class directions."""
    rng = derive_rng(seed, FIXTURE, 1)
    signal_dims = dim - _SPECTRUM_NUISANCE_DIMS
    if signal_dims < components - 1:
        raise DomainError(
            f"spectrum fixture needs dim - {_SPECTRUM_NUISANCE_DIMS} >= components - 1 for "
            f"separable means, got dim={dim}, components={components}"
        )
    directions = rng.standard_normal((components, signal_dims))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = np.zeros((components, dim))
    means[:, _SPECTRUM_NUISANCE_DIMS:] = directions * _SPECTRUM_MEAN_NORM
    variances = np.full(dim, _SPECTRUM_SIGNAL_VAR)
    variances[:_SPECTRUM_NUISANCE_DIMS] = _SPECTRUM_NUISANCE_VAR
    covs = np.tile(np.diag(variances), (components, 1, 1))
    weights = np.full(components, 1.0 / components)
    return validate(recenter_zero_mean(GaussianMixture(weights, means, covs)))
