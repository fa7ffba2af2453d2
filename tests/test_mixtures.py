"""Mixture validation, sampling, and closed-form moments against MC oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentlab._gemm import _GEMM_ONE_THREAD, _linear
from maxentlab._streams import SAMPLE, derive_rng
from maxentlab.datasets import _EXPORT_BLOCK, LabeledDataset, dataset_csv_chunks
from maxentlab.errors import CovarianceError, NotCenteredError, ShapeError, WeightError
from maxentlab.mixtures import (
    GaussianMixture,
    expected_sqnorm,
    fourth_moment_and_variance,
    linear_pushforward,
    overall_covariance,
    recenter_zero_mean,
    sample,
    spectral_factor,
    validate,
)

from conftest import random_mixture, random_spd


def two_point_mixture():
    return GaussianMixture.from_components(
        [
            (0.5, [1.0, 0.0], 0.25 * np.eye(2)),
            (0.5, [-1.0, 0.0], 0.25 * np.eye(2)),
        ]
    )


class TestValidate:
    def test_identity_case(self):
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        assert validate(mix) is mix

    def test_weights_exceed_one(self):
        mix = GaussianMixture(np.array([0.5, 0.6]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        with pytest.raises(WeightError):
            validate(mix)

    def test_nonpositive_weight(self):
        mix = GaussianMixture(np.array([1.0, 0.0]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        with pytest.raises(WeightError):
            validate(mix)

    def test_negative_eigenvalue(self):
        bad = np.diag([1.0, -0.1])
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), bad[None])
        with pytest.raises(CovarianceError):
            validate(mix)

    def test_asymmetric(self):
        bad = np.array([[1.0, 0.3], [0.0, 1.0]])
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), bad[None])
        with pytest.raises(CovarianceError):
            validate(mix)

    def test_dimension_mismatch(self):
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 3)), np.eye(2)[None])
        with pytest.raises(ShapeError):
            validate(mix)

    def test_degenerate_zero_cov_allowed(self):
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.zeros((1, 2, 2)))
        assert validate(mix) is mix


class TestRecenter:
    def test_already_centered_unchanged(self):
        mix = two_point_mixture()
        out = recenter_zero_mean(mix)
        np.testing.assert_allclose(out.means, mix.means)

    def test_single_component_centers_to_origin(self):
        mix = GaussianMixture(np.array([1.0]), np.array([[3.0, -1.0]]), np.eye(2)[None])
        out = recenter_zero_mean(mix)
        np.testing.assert_array_equal(out.means, np.zeros((1, 2)))

    def test_symmetric_split(self):
        mix = GaussianMixture(
            np.array([0.5, 0.5]), np.array([[2.0, 0.0], [0.0, 0.0]]), np.stack([np.eye(2)] * 2)
        )
        out = recenter_zero_mean(mix)
        np.testing.assert_allclose(out.means, [[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(out.covariances, mix.covariances)

    def test_mean_drift_below_tolerance(self, rng):
        for _ in range(20):
            mix = random_mixture(rng, n=4, m=3, centered=False)
            out = recenter_zero_mean(mix)
            assert np.linalg.norm(out.mixture_mean()) <= 1e-10


class TestSample:
    def test_point_mass(self):
        mix = GaussianMixture(np.array([1.0]), np.array([[1.0, 2.0]]), np.zeros((1, 2, 2)))
        ds = sample(mix, 5, seed=0)
        np.testing.assert_array_equal(ds.features, np.tile([1.0, 2.0], (5, 1)))
        np.testing.assert_array_equal(ds.labels, np.zeros(5, dtype=np.int64))

    def test_single_component_labels(self):
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 3)), np.eye(3)[None])
        ds = sample(mix, 100, seed=1)
        assert set(ds.labels.tolist()) == {0}

    def test_law_of_large_numbers(self):
        # standard normal in R^2: coordinate means within 5 sigma of 0 at N=1e5
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        ds = sample(mix, 10**5, seed=7)
        assert np.abs(ds.features.mean(axis=0)).max() < 0.02

    def test_bit_reproducible(self):
        mix = two_point_mixture()
        a = sample(mix, 500, seed=123)
        b = sample(mix, 500, seed=123)
        assert a.content_bytes() == b.content_bytes()
        c = sample(mix, 500, seed=124)
        assert a.content_bytes() != c.content_bytes()

    def test_component_frequencies(self):
        mix = GaussianMixture(
            np.array([0.3, 0.7]), np.zeros((2, 1)), np.zeros((2, 1, 1))
        )
        ds = sample(mix, 20_000, seed=5)
        assert abs((ds.labels == 0).mean() - 0.3) < 0.02

    def test_count_validation(self):
        with pytest.raises(ShapeError):
            sample(two_point_mixture(), 0, seed=1)

    def test_component_products_fit_one_blas_thread_and_keep_their_bits(self, rng, monkeypatch):
        # about 1,000 draws per component of 16 x 16: each whole product is
        # over the one-thread size, so it goes in two row slices
        mix = random_mixture(rng, 16, 10)
        count, seed = 10_000, 3
        calls = []
        matmul = np.matmul

        def recording_matmul(a, b, out=None):
            calls.append(a.shape[0] * b.shape[0] * b.shape[1])
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        x = sample(mix, count, seed).features
        monkeypatch.undo()
        assert len(calls) > mix.count and max(calls) <= _GEMM_ONE_THREAD
        # the draws of the same stream through one whole product per component
        stream = derive_rng(seed, SAMPLE)
        labels = stream.choice(mix.count, size=count, p=mix.weights / mix.weights.sum())
        z = stream.standard_normal((count, mix.dim))
        for c in range(mix.count):
            idx = np.nonzero(labels == c)[0]
            whole = mix.means[c] + z[idx] @ spectral_factor(mix.covariances[c]).T
            assert x[idx].tobytes() == whole.tobytes()


def sample_with_separate_normals(mixture, count, seed):
    """``sample`` as it was before it drew its normals into the array it returns."""
    rng = derive_rng(seed, SAMPLE)
    labels = rng.choice(mixture.count, size=count, p=mixture.weights / mixture.weights.sum())
    z = rng.standard_normal((count, mixture.dim))
    x = np.empty((count, mixture.dim), dtype=np.float64)
    for c in range(mixture.count):
        idx = np.nonzero(labels == c)[0]
        if idx.size == 0:
            continue
        x[idx] = mixture.means[c] + _linear(z[idx], spectral_factor(mixture.covariances[c]))
    return x, labels


def _reference_mixtures():
    rng = np.random.default_rng(11)
    n = 16
    low_rank = rng.normal(size=(n, 3))
    mixed = GaussianMixture(
        # the last component's weight is so small that it never draws a row
        np.array([0.5, 0.3, 0.2 - 1e-13, 1e-13]),
        rng.normal(size=(4, n)),
        np.stack([random_spd(rng, n), low_rank @ low_rank.T, np.zeros((n, n)), random_spd(rng, n)]),
    )
    single = GaussianMixture(np.array([1.0]), rng.normal(size=(1, n)), random_spd(rng, n)[None])
    point_masses = GaussianMixture(np.array([0.6, 0.4]), rng.normal(size=(2, 3)), np.zeros((2, 3, 3)))
    return {"mixed": mixed, "single": single, "point_masses": point_masses}


REFERENCE_MIXTURES = _reference_mixtures()


class TestSampleInPlace:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(REFERENCE_MIXTURES)),
        count=st.integers(1, 5_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_separate_normals(self, name, count, seed):
        mixture = REFERENCE_MIXTURES[name]
        x, labels = sample_with_separate_normals(mixture, count, seed)
        ds = sample(mixture, count, seed)
        assert ds.features.tobytes() == x.tobytes()
        assert ds.labels.tobytes() == labels.astype(np.int64).tobytes()
        if name == "mixed":
            assert not (ds.labels == 3).any()


class TestMoments:
    def test_overall_covariance_identity(self):
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 3)), np.eye(3)[None])
        np.testing.assert_allclose(overall_covariance(mix), np.eye(3))

    def test_overall_covariance_two_point(self):
        np.testing.assert_allclose(
            overall_covariance(two_point_mixture()), np.diag([1.25, 0.25])
        )

    def test_overall_covariance_bernoulli(self):
        mix = GaussianMixture(
            np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]), np.zeros((2, 1, 1))
        )
        np.testing.assert_allclose(overall_covariance(mix), [[1.0]])

    def test_not_centered_rejected(self):
        mix = GaussianMixture(np.array([1.0]), np.array([[1.0, 0.0]]), np.eye(2)[None])
        with pytest.raises(NotCenteredError):
            overall_covariance(mix)

    def test_expected_sqnorm_standard_normal(self):
        for n in (1, 2, 5):
            mix = GaussianMixture(np.array([1.0]), np.zeros((1, n)), np.eye(n)[None])
            assert expected_sqnorm(mix) == pytest.approx(n)

    def test_expected_sqnorm_point_mass(self):
        mix = GaussianMixture(np.array([1.0]), np.array([[3.0, 4.0]]), np.zeros((1, 2, 2)))
        assert expected_sqnorm(mix) == pytest.approx(25.0)

    def test_expected_sqnorm_two_point(self):
        assert expected_sqnorm(two_point_mixture()) == pytest.approx(1.5)

    def test_variance_point_mass_is_zero(self):
        mix = GaussianMixture(np.array([1.0]), np.array([[3.0, 4.0]]), np.zeros((1, 2, 2)))
        _, var = fourth_moment_and_variance(mix)
        assert var == pytest.approx(0.0, abs=1e-10)

    def test_variance_chi_square(self):
        # ||X||^2 of a standard normal in R^n is chi^2_n with variance 2n
        for n in (1, 3):
            mix = GaussianMixture(np.array([1.0]), np.zeros((1, n)), np.eye(n)[None])
            _, var = fourth_moment_and_variance(mix)
            assert var == pytest.approx(2.0 * n)

    def test_trace_equals_expected_sqnorm(self, rng):
        for _ in range(10):
            mix = random_mixture(rng, n=5, m=3)
            trace = float(np.trace(overall_covariance(mix)))
            assert trace == pytest.approx(expected_sqnorm(mix), rel=1e-10)

    def test_moments_against_monte_carlo(self, rng):
        # smaller cousin of the acceptance moment suite: 3 mixtures, 2e5 draws
        for i in range(3):
            mix = random_mixture(rng, n=3, m=2)
            n_draws = 200_000
            s = (sample(mix, n_draws, seed=100 + i).features ** 2).sum(axis=1)
            e2, (e4, var) = expected_sqnorm(mix), fourth_moment_and_variance(mix)
            assert abs(e2 - s.mean()) <= 5 * s.std(ddof=1) / np.sqrt(n_draws)
            q = s**2
            assert abs(e4 - q.mean()) <= 5 * q.std(ddof=1) / np.sqrt(n_draws)


class TestPushforward:
    def test_matches_sampled_transform(self, rng):
        mix = random_mixture(rng, n=3, m=2)
        a = rng.normal(size=(2, 3))
        pushed = linear_pushforward(mix, a)
        x = sample(mix, 200_000, seed=9).features @ a.T
        np.testing.assert_allclose(
            expected_sqnorm(pushed), (x**2).sum(axis=1).mean(), rtol=0.02
        )
        np.testing.assert_allclose(pushed.means, mix.means @ a.T)


class TestVectorSumInequalities:
    """Convex combinations of inner products against the norm bound."""

    def test_weighted_upper_bound(self, rng):
        # sum_i a_i x_i . y <= max_i ||x_i|| * ||y|| over 1e4 random instances
        trials = 10_000
        count, dim = 6, 4
        x = rng.normal(size=(trials, count, dim))
        y = rng.normal(size=(trials, dim))
        alpha = rng.dirichlet(np.ones(count), size=trials)
        lhs = np.einsum("tc,tcd,td->t", alpha, x, y)
        rhs = np.linalg.norm(x, axis=2).max(axis=1) * np.linalg.norm(y, axis=1)
        assert (lhs <= rhs + 1e-12).all()

    def test_unweighted_lower_bound(self, rng):
        # sum_i x_i . y >= -N max_i ||x_i|| * ||y||
        trials = 10_000
        count, dim = 6, 4
        x = rng.normal(size=(trials, count, dim))
        y = rng.normal(size=(trials, dim))
        lhs = np.einsum("tcd,td->t", x, y)
        rhs = -count * np.linalg.norm(x, axis=2).max(axis=1) * np.linalg.norm(y, axis=1)
        assert (lhs >= rhs - 1e-12).all()


def one_scalar_per_value(dataset):
    """The export text made the slow way: one numpy scalar per value."""
    lines = ["label," + ",".join(f"f{j}" for j in range(dataset.dim))]
    for i in range(dataset.size):
        feats = ",".join(repr(float(v)) for v in dataset.features[i])
        lines.append(f"{int(dataset.labels[i])},{feats}")
    return "\n".join(lines) + "\n"


class TestDatasetCsv:
    def test_header_and_rows(self):
        ds = LabeledDataset(np.array([[1.5, -2.0]]), np.array([3]))
        assert "".join(dataset_csv_chunks(ds)) == "label,f0,f1\n3,1.5,-2.0\n"

    def test_same_text_as_one_scalar_per_value(self, rng):
        # the export formats Python floats from tolist, a block of rows at a
        # time; each value must read as repr(float(numpy scalar)) did
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1.7976931348623157e308]
        values = np.concatenate([rng.normal(size=2_500 * 3 - len(special)) * 1e3, special])
        ds = LabeledDataset(values.reshape(2_500, 3), rng.integers(0, 12, 2_500))
        text = "".join(dataset_csv_chunks(ds)).encode()
        assert text == one_scalar_per_value(ds).encode()
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        assert list(dataset_csv_chunks(empty)) == ["label,f0,f1\n"]

    @pytest.mark.parametrize("size", [0, 1, _EXPORT_BLOCK - 1, _EXPORT_BLOCK, _EXPORT_BLOCK + 1])
    def test_chunks_at_the_block_edges(self, rng, size):
        ds = LabeledDataset(rng.normal(size=(size, 2)), rng.integers(0, 10, size))
        chunks = list(dataset_csv_chunks(ds))
        assert chunks[0] == "label,f0,f1\n"
        rows_per_chunk = [chunk.count("\n") for chunk in chunks[1:]]
        full, rest = divmod(size, _EXPORT_BLOCK)
        assert rows_per_chunk == [_EXPORT_BLOCK] * full + ([rest] if rest else [])
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert "".join(chunks) == one_scalar_per_value(ds)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(4, dtype=int))
