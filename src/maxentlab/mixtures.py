"""Gaussian-mixture feature distributions: validation, sampling, exact moments.

The feature distribution is a finite mixture  sum_i alpha_i N(mu_i, Sigma_i)
on R^n. Everything downstream (diversity statistics, concentration checks,
synthetic benchmarks) consumes either samples of this distribution or the
closed-form moments implemented here. Per component,

    E||X||^2   = tr(Sigma) + ||mu||^2
    E||X||^4   = (tr Sigma)^2 + 2 ||Sigma||_F^2
                 + 4 mu' Sigma mu + 2 ||mu||^2 tr(Sigma) + ||mu||^4
    Var||X||^2 = E||X||^4 - (E||X||^2)^2

and mixture-level values follow by conditioning on the component index.
For a zero-mean mixture the overall covariance is

    Sigma* = sum_i alpha_i (Sigma_i + mu_i mu_i')

Sampling factorizes each covariance through its symmetric eigendecomposition
V diag(sqrt(max(lambda, 0))) so rank-deficient and exactly-zero covariances
(point masses) are legal component models, which Cholesky would reject.
Each component's normals go through its factor in row slices that OpenBLAS
keeps on the calling thread (``_gemm._linear``), the same bits as one
product.

All operations are pure given (inputs, seed) and hold no shared mutable
state, so they are safe to call concurrently on distinct inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gemm import _linear
from ._streams import SAMPLE, derive_rng
from .datasets import LabeledDataset
from .errors import CovarianceError, NotCenteredError, ShapeError, WeightError

WEIGHT_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12
PSD_REL_TOL = 1e-10
CENTER_TOL = 1e-10


@dataclass(eq=False)
class GaussianMixture:
    """Finite Gaussian mixture with weights (m,), means (m, n), covariances (m, n, n)."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        if self.covariances.ndim == 2:
            self.covariances = self.covariances[None, :, :]

    @classmethod
    def from_components(cls, components) -> "GaussianMixture":
        """Build from an iterable of (weight, mean, covariance) triples."""
        weights, means, covs = zip(*components)
        return cls(np.array(weights), np.array(means), np.array(covs))

    @property
    def count(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def mixture_mean(self) -> np.ndarray:
        return self.weights @ self.means


def validate(mixture: GaussianMixture) -> GaussianMixture:
    """Return the mixture iff weights, shapes and covariances are all valid."""
    w, mu, cov = mixture.weights, mixture.means, mixture.covariances
    if w.ndim != 1 or w.shape[0] < 1:
        raise ShapeError(f"weights must be a non-empty vector, got shape {w.shape}")
    m = w.shape[0]
    if mu.ndim != 2 or mu.shape[0] != m:
        raise ShapeError(f"means must have shape ({m}, n), got {mu.shape}")
    n = mu.shape[1]
    if n < 1:
        raise ShapeError("feature dimension must be at least 1")
    if cov.shape != (m, n, n):
        raise ShapeError(f"covariances must have shape ({m}, {n}, {n}), got {cov.shape}")
    if not np.isfinite(w).all() or not np.isfinite(mu).all() or not np.isfinite(cov).all():
        raise ShapeError("mixture parameters must be finite")
    if (w <= 0).any():
        raise WeightError(f"all weights must be positive, got {w}")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
    for i in range(m):
        s = cov[i]
        asym = float(np.abs(s - s.T).max(initial=0.0))
        if asym > SYMMETRY_TOL:
            raise CovarianceError(f"component {i}: covariance asymmetric by {asym:g}")
        eigs = np.linalg.eigvalsh(s)
        floor = -PSD_REL_TOL * max(float(eigs[-1]), 0.0)
        if float(eigs[0]) < floor:
            raise CovarianceError(
                f"component {i}: covariance not PSD (min eigenvalue {float(eigs[0]):g})"
            )
    return mixture


def recenter_zero_mean(mixture: GaussianMixture) -> GaussianMixture:
    """Shift all component means by -sum_i alpha_i mu_i, leaving weights and covariances."""
    validate(mixture)
    shift = mixture.mixture_mean()
    return GaussianMixture(mixture.weights.copy(), mixture.means - shift, mixture.covariances.copy())


def _require_centered(mixture: GaussianMixture) -> None:
    drift = float(np.linalg.norm(mixture.mixture_mean()))
    if drift > CENTER_TOL:
        raise NotCenteredError(
            f"mixture mean has norm {drift:g} > {CENTER_TOL}; apply recenter_zero_mean first"
        )


def spectral_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix L with L L' = cov, via eigendecomposition with negatives clamped to 0.

    A stack of covariances (..., n, n) gives the stack of factors. Columns
    follow ascending eigenvalues, so the last k span the top-k eigenspace.
    """
    lam, vec = np.linalg.eigh(cov)
    return vec * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]


def sample(mixture: GaussianMixture, count: int, seed: int) -> LabeledDataset:
    """Draw ``count`` i.i.d. points; the component index of each draw is its label.

    Draw order is fixed (component indices first, then one block of standard
    normals), so identical (mixture, count, seed) gives identical bytes. The
    block of normals becomes the points in place: each component reads its
    rows' normals (the fancy-indexed read copies them) before it writes their
    points back, and no row belongs to two components.
    """
    validate(mixture)
    if count < 1:
        raise ShapeError(f"count must be >= 1, got {count}")
    rng = derive_rng(seed, SAMPLE)
    m, n = mixture.count, mixture.dim
    labels = rng.choice(m, size=count, p=mixture.weights / mixture.weights.sum())
    x = rng.standard_normal((count, n))
    for c in range(m):
        idx = np.nonzero(labels == c)[0]
        if idx.size == 0:
            continue
        factor = spectral_factor(mixture.covariances[c])
        x[idx] = mixture.means[c] + _linear(x[idx], factor)
    return LabeledDataset(x, labels.astype(np.int64))


def overall_covariance(mixture: GaussianMixture) -> np.ndarray:
    """Sigma* = sum_i alpha_i (Sigma_i + mu_i mu_i') for a zero-mean mixture."""
    validate(mixture)
    _require_centered(mixture)
    w, mu, cov = mixture.weights, mixture.means, mixture.covariances
    sigma = np.einsum("i,ijk->jk", w, cov) + np.einsum("i,ij,ik->jk", w, mu, mu)
    return (sigma + sigma.T) / 2.0


def expected_sqnorm(mixture: GaussianMixture) -> float:
    """E||X||^2 = sum_i alpha_i (tr(Sigma_i) + ||mu_i||^2)."""
    validate(mixture)
    traces = np.trace(mixture.covariances, axis1=1, axis2=2)
    return float(mixture.weights @ (traces + (mixture.means**2).sum(axis=1)))


def fourth_moment_and_variance(mixture: GaussianMixture) -> tuple[float, float]:
    """(E||X||^4, Var||X||^2), exact for arbitrary (non-central) components."""
    validate(mixture)
    w, mu, cov = mixture.weights, mixture.means, mixture.covariances
    traces = np.trace(cov, axis1=1, axis2=2)
    frob_sq = (cov**2).sum(axis=(1, 2))
    mu_sq = (mu**2).sum(axis=1)
    quad = np.einsum("ij,ijk,ik->i", mu, cov, mu)
    per_component = traces**2 + 2.0 * frob_sq + 4.0 * quad + 2.0 * mu_sq * traces + mu_sq**2
    e4 = float(w @ per_component)
    e2 = float(w @ (traces + mu_sq))
    return e4, e4 - e2 * e2


def linear_pushforward(mixture: GaussianMixture, matrix: np.ndarray) -> GaussianMixture:
    """Distribution of A X: means become A mu_i, covariances A Sigma_i A'."""
    validate(mixture)
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != mixture.dim:
        raise ShapeError(f"matrix must be (k, {mixture.dim}), got {a.shape}")
    return _pushforward(mixture, a)


def _pushforward(mixture: GaussianMixture, a: np.ndarray) -> GaussianMixture:
    """linear_pushforward without re-validating a mixture the caller already checked.

    The covariances are ``_congruence(a, covariances)``: two matrix products
    and a symmetrisation.
    """
    means = mixture.means @ a.T
    return GaussianMixture(mixture.weights.copy(), means, _congruence(a, mixture.covariances))


def _congruence(a: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """(S + S') / 2 for S = a @ covs @ a', over the last two axes.

    Either operand may be a stack, (K, k, n) matrices or (m, n, n)
    covariances, or both, broadcast as ``matmul`` does ((K, 1, k, n) against
    (m, n, n) gives (K, m, k, k)), and each matrix of a stack gets the bits
    it gets alone. The
    two matrix products took 8 ms where one three-operand ``einsum`` took
    339 ms (k = 100, n = 16, m = 100, one 2-vCPU x86-64 core); the
    symmetrisation removes their rounding asymmetry.
    """
    out = a @ covs @ a.swapaxes(-1, -2)
    # numpy reads an operand that overlaps ``out`` from a copy, so this is out + out'
    np.add(out, out.swapaxes(-1, -2), out=out)
    out /= 2.0
    return out
