"""Total-variance diversity statistic and covariance-spectrum diagnostics.

Diversity is the trace of the overall feature covariance, equivalently the
sum of its eigenvalues. It is computed analytically from a zero-mean mixture
or empirically from a feature matrix using the population (1/N) covariance
of globally mean-centered rows. The spectrum helpers expose what fraction of
the total variance sits past the top-k eigenvalues and project features onto
leading principal components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .mixtures import GaussianMixture, overall_covariance


@dataclass(eq=False)
class DiversityReport:
    """Diversity value plus the descending covariance spectrum behind it.

    ``eigenvalues`` are clamped at zero, so round-off never reports a
    negative variance.
    """

    nu: float
    eigenvalues: np.ndarray
    source: str                     # "analytic" | "empirical"
    sample_count: int | None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _report_from_covariance(cov: np.ndarray, source: str, sample_count: int | None) -> DiversityReport:
    eigenvalues = np.clip(np.linalg.eigvalsh(cov)[::-1], 0.0, None)
    return DiversityReport(float(np.trace(cov)), eigenvalues, source, sample_count)


def analytic_diversity(mixture: GaussianMixture) -> DiversityReport:
    """Diversity of a zero-mean mixture: trace and spectrum of Sigma*."""
    return _report_from_covariance(overall_covariance(mixture), "analytic", None)


def empirical_covariance(features: np.ndarray) -> np.ndarray:
    """Population covariance (1/N) of mean-centered rows."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ShapeError(f"need at least 2 rows, got {x.shape[0]}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    return (cov + cov.T) / 2.0


def empirical_diversity(features: np.ndarray) -> DiversityReport:
    """Diversity estimated from samples via the population covariance."""
    x = np.asarray(features, dtype=np.float64)
    cov = empirical_covariance(x)
    return _report_from_covariance(cov, "empirical", x.shape[0])


def spectrum_tail_mass(report: DiversityReport, k: int) -> float:
    """Fraction of total variance past the top-k eigenvalues; 0 for a zero spectrum."""
    if not 0 <= k <= report.dim:
        raise DomainError(f"k must lie in [0, {report.dim}], got {k}")
    total = float(report.eigenvalues.sum())
    if total == 0.0:
        return 0.0
    return float(report.eigenvalues[k:].sum()) / total


def top_principal_components(features: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Project onto the top-k covariance eigenvectors.

    Returns (projected (N, k), explained_variance_ratios (k,)). Each
    eigenvector is oriented so its first nonzero coordinate is positive.
    """
    x = np.asarray(features, dtype=np.float64)
    cov = empirical_covariance(x)
    n = cov.shape[0]
    if not 1 <= k <= n:
        raise ShapeError(f"k must lie in [1, {n}], got {k}")
    lam, vec = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    lam = np.clip(lam[order], 0.0, None)
    vec = vec[:, order]
    for j in range(n):
        col = vec[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(float(np.abs(col).max()), 1e-300))[0]
        if nz.size and col[nz[0]] < 0:
            vec[:, j] = -col
    total = float(lam.sum())
    ratios = lam[:k] / total if total > 0 else np.zeros(k)
    projected = (x - x.mean(axis=0)) @ vec[:, :k]
    return projected, ratios


def spectrum_csv_rows(report: DiversityReport) -> list[tuple[int, float, float]]:
    """Rows (rank, eigenvalue, log_eigenvalue) for the spectrum export."""
    rows = []
    for rank, lam in enumerate(report.eigenvalues, start=1):
        log_lam = float(np.log(lam)) if lam > 0 else float("-inf")
        rows.append((rank, float(lam), log_lam))
    return rows
