"""Softmax, entropy, objectives, and the analytic gradient."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxentlab._gemm import _COLUMN_SLICE_MAX, _GEMM_ONE_THREAD, _ROW_SLICE_MAX, _linear
from maxentlab._streams import ENTROPY_MC, derive_rng
from maxentlab.bounds import uniform_model_sampler
from maxentlab.core import (
    _BLOCK,
    _NO_SHIFT_REACH,
    PROB_FLOOR,
    LinearSoftmaxModel,
    _column_entropies,
    _logit_components,
    _forward,
    _log_entropies,
    _sample_entropies,
    _shared_expected_entropies,
    entropy,
    entropy_batch,
    expected_entropy_mc,
    logit_gradient,
    maxent_gradient,
    maxent_loss,
    predict_proba,
    predict_proba_batch,
    softmax,
)
from maxentlab.datasets import LabeledDataset
from maxentlab.errors import DomainError, NonFiniteError, ShapeError
from maxentlab.fixtures import make_regime_fixtures, make_spectrum_fixture
from maxentlab.mixtures import GaussianMixture, _pushforward, sample, spectral_factor

from conftest import random_mixture


def uniform_model(C=4, n=3):
    return LinearSoftmaxModel(np.zeros((C, n)))


def std_normal_mixture(n=3):
    return GaussianMixture(np.array([1.0]), np.zeros((1, n)), np.eye(n)[None])


# Reference copies of the kernels, written with a fresh array for every
# intermediate; the library versions must give the same bits.


def reference_softmax_batch(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_entropy_batch(p):
    h = -(p * np.log(np.maximum(p, PROB_FLOOR))).sum(axis=1)
    return np.clip(h, 0.0, float(np.log(p.shape[1])))


def reference_logit_gradient(p, labels, gamma):
    g = p.copy()
    g[np.arange(labels.shape[0]), labels] -= 1.0
    if gamma != 0.0:
        log_p = np.log(np.maximum(p, PROB_FLOOR))
        h = reference_entropy_batch(p)
        g = g + gamma * p * (log_p + h[:, None])
    return g


def reference_logit_blocks(model, mixture, count, rng):
    """Each block's entropies, in draw order.

    A component's factor F is the spectral factor of V Sigma_c V' for C <= n
    and V L_c, with L_c the component's own spectral factor, for C > n. A
    block whose logits F z + V mu_c are proved within ``_NO_SHIFT_REACH``
    (max |V mu_c| + the longest row norm of F times sqrt(k) max |z|, k the
    rank) takes exp of the logits as they stand and its column dot products
    as one ``einsum``; any other block subtracts each column's max first.
    """
    v = model.weights if model.feature_map is None else model.weights @ model.feature_map
    classes, dim = v.shape
    rank = min(classes, dim)
    if classes <= dim:
        factors = spectral_factor(_pushforward(mixture, v).covariances)
    else:
        factors = v @ spectral_factor(mixture.covariances)
    counts = rng.multinomial(count, mixture.weights / mixture.weights.sum())
    for mu, factor, total in zip(mixture.means, factors, counts):
        mean = v @ mu
        for offset in range(0, total, _BLOCK):
            size = min(_BLOCK, total - offset)
            z = rng.standard_normal((rank, size))
            logits = factor @ z
            logits += mean[:, None]
            row = math.sqrt(rank * (factor * factor).sum(axis=1).max())
            reach = np.abs(mean).max() + row * np.abs(z).max()
            if reach <= _NO_SHIFT_REACH:
                e = np.exp(logits)
                dot = np.einsum("ij,ij->j", e, logits)
            else:
                logits -= logits.max(axis=0)
                e = np.exp(logits)
                dot = (e * logits).sum(axis=0)
            norm = e.sum(axis=0)
            block = np.log(norm) - dot / norm
            yield np.clip(block, 0.0, float(np.log(classes)))


def reference_logit_entropies(model, mixture, count, rng):
    return np.concatenate(list(reference_logit_blocks(model, mixture, count, rng)))


def reference_shared_estimate(model, mixture, draws, rng):
    """(estimate, standard error) over the blocks, each folded in as Chan et al. combine moments."""
    n, mean, m2, low, high = 0, 0.0, 0.0, math.inf, -math.inf
    for h in reference_logit_blocks(model, mixture, draws, rng):
        low, high = min(low, float(h.min())), max(high, float(h.max()))
        block_mean = float(h.sum()) / h.size
        block_m2 = float(((h - block_mean) ** 2).sum())
        total = n + h.size
        delta = block_mean - mean
        mean += delta * (h.size / total)
        m2 += block_m2 + delta * delta * (n * (h.size / total))
        n = total
    assert n == draws
    std = 0.0 if low == high else math.sqrt(m2 / (draws - 1))
    return min(max(mean, low), high), std / math.sqrt(draws)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def record_matmul_calls(monkeypatch):
    """Patch np.matmul to record its operands; returns the list of (a, b) calls."""
    calls = []
    matmul = np.matmul

    def recording_matmul(a, b, out):
        calls.append((a, b))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    return calls


def assert_even_one_thread_slices(widths, total, per_input):
    """``widths`` split ``total`` inputs evenly into the fewest slices that fit one BLAS thread."""
    assert sum(widths) == total
    assert max(widths) - min(widths) <= 1
    assert per_input * max(widths) <= _GEMM_ONE_THREAD
    # the fewest slices that fit: one fewer would need a wider one
    if len(widths) > 1:
        assert per_input * -(-total // (len(widths) - 1)) > _GEMM_ONE_THREAD


class TestWeightNorms:
    def test_plain_norms_keep_their_bits(self, rng):
        w = rng.normal(size=(10, 16))
        model = LinearSoftmaxModel(w)
        assert model.w_l2() == float(np.linalg.norm(w))
        assert model.w_inf() == float(np.sqrt((w**2).sum(axis=1).max()))

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_finite_weights_have_finite_norms(self, scale):
        # the squares of these weights overflow, their norms do not
        model = LinearSoftmaxModel(np.full((3, 4), scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l2, w_inf = model.w_l2(), model.w_inf()
        assert l2 == pytest.approx(scale * math.sqrt(12), rel=1e-15)
        assert w_inf == pytest.approx(scale * 2.0, rel=1e-15)


class TestSoftmax:
    def test_zero_logits_uniform(self):
        np.testing.assert_array_equal(
            predict_proba(uniform_model(), np.ones(3)), np.full(4, 0.25)
        )

    def test_saturation(self):
        p = softmax([50.0, 0.0, 0.0])
        assert p[0] >= 1 - 1e-15

    def test_reference_values(self):
        np.testing.assert_allclose(
            softmax([1.0, 2.0, 3.0]),
            [0.09003057, 0.24472847, 0.66524096],
            atol=1e-8,
        )

    def test_normalization(self, rng):
        z = rng.normal(scale=20, size=(1000, 6))
        p = np.apply_along_axis(softmax, 1, z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0).all() and (p <= 1).all()

    def test_shift_invariance(self, rng):
        for _ in range(100):
            z = rng.normal(scale=10, size=5)
            c = rng.normal(scale=100)
            np.testing.assert_allclose(softmax(z), softmax(z + c), atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            softmax([np.inf, 0.0])
        with pytest.raises(NonFiniteError):
            predict_proba(uniform_model(), np.array([np.nan, 0.0, 0.0]))

    def test_input_shape(self):
        with pytest.raises(ShapeError):
            predict_proba(uniform_model(), np.zeros(5))

    def test_batch_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError, match="logits must be finite"):
            softmax(np.array([[0.0, 1.0], [-np.inf, 0.0]]))

    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(2, 12)),
        scale=st.sampled_from([0.0, 1.0, 30.0, 800.0]),
        seed=st.integers(0, 2**32),
        bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_stack_is_the_softmax_of_each_row(self, shape, scale, seed, bad):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=scale, size=shape)
        z_before = z.copy()
        p = softmax(z)
        assert same_bits(z, z_before)
        assert p.shape == shape
        for k, i in np.ndindex(*shape[:2]):
            assert same_bits(p[k, i], softmax(z[k, i]))
        # one non-finite logit anywhere in the stack is refused
        z[tuple(int(rng.integers(0, s)) for s in shape)] = bad
        with pytest.raises(NonFiniteError, match="logits must be finite"):
            softmax(z)


class TestStepTerms:
    @given(
        rows=st.integers(1, 40),
        C=st.integers(2, 12),
        # at scale 800 most probabilities underflow to exactly 0
        scale=st.sampled_from([0.0, 1.0, 30.0, 800.0]),
        gamma=st.just(0.0) | st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32),
        arms=st.integers(2, 4),
    )
    @example(rows=8, C=10, scale=800.0, gamma=1.0, seed=0, arms=2)
    @settings(max_examples=60, deadline=None)
    def test_shared_log_p_gives_the_separate_formulas(self, rows, C, scale, gamma, seed, arms):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=scale, size=(rows, C))
        labels = rng.integers(0, C, rows)
        z_before = z.copy()
        p = softmax(z)
        assert same_bits(z, z_before)
        assert same_bits(p, reference_softmax_batch(z))
        log_p, h = terms = _log_entropies(p)
        assert same_bits(log_p, np.log(np.maximum(p, PROB_FLOOR)))
        assert same_bits(h, reference_entropy_batch(p))
        assert same_bits(entropy_batch(p), h)
        log_p_before, h_before = log_p.copy(), h.copy()
        g = logit_gradient(p, labels, gamma, terms=terms)
        assert same_bits(log_p, log_p_before) and same_bits(h, h_before)
        assert same_bits(g, reference_logit_gradient(p, labels, gamma))
        assert same_bits(logit_gradient(p, labels, gamma), g)
        # a (K, N, C) stack of batches under one label vector, arm 0 at gamma 0:
        # each arm's slice is that arm's own gradient, bit for bit
        stack = softmax(rng.normal(scale=scale, size=(arms, rows, C)))
        gammas = gamma * np.arange(arms)
        for g in (
            logit_gradient(stack, labels, gammas[:, None, None], terms=_log_entropies(stack)),
            logit_gradient(stack, labels, gammas[:, None, None]),
        ):
            assert g.shape == stack.shape
            for k in range(arms):
                assert same_bits(g[k], reference_logit_gradient(stack[k], labels, gammas[k]))


class TestEntropy:
    def test_uniform_is_log_c(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_reference_value(self):
        assert entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(
            1.5 * math.log(2), abs=1e-12
        )

    def test_range(self, rng):
        for _ in range(200):
            p = rng.dirichlet(np.ones(6))
            h = entropy(p)
            assert 0.0 <= h <= math.log(6)

    def test_batch_matches_scalar(self, rng):
        p = rng.dirichlet(np.ones(5), size=50)
        np.testing.assert_allclose(entropy_batch(p), [entropy(q) for q in p], atol=1e-12)


class TestExpectedEntropyMc:
    def test_constant_integrand(self):
        est, se = expected_entropy_mc(uniform_model(C=4, n=3), std_normal_mixture(), 500, seed=0)
        assert est == math.log(4)
        assert se == 0.0

    def test_error_scaling(self, rng):
        model = LinearSoftmaxModel(rng.normal(size=(4, 3)))
        mix = std_normal_mixture()
        ratios = []
        for seed in range(6):
            _, se1 = expected_entropy_mc(model, mix, 2000, seed=seed)
            _, se2 = expected_entropy_mc(model, mix, 4000, seed=seed + 100)
            ratios.append(se2 / se1)
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - 1 / math.sqrt(2)) < 0.2 * (1 / math.sqrt(2))

    def test_consistency_with_larger_run(self, rng):
        model = LinearSoftmaxModel(rng.normal(size=(4, 3)))
        mix = std_normal_mixture()
        est, se = expected_entropy_mc(model, mix, 3000, seed=1)
        ref, ref_se = expected_entropy_mc(model, mix, 30_000, seed=2)
        assert abs(est - ref) <= 3 * math.hypot(se, ref_se)

    def test_min_draws(self):
        with pytest.raises(DomainError):
            expected_entropy_mc(uniform_model(), std_normal_mixture(), 99, seed=0)

    @given(
        C=st.integers(2, 12),
        n=st.integers(1, 6),
        m=st.integers(1, 3),
        draws=st.integers(100, 20_000),
        seed=st.integers(0, 2**32),
        n_raw=st.none() | st.integers(1, 6),
        zero=st.booleans(),
    )
    @example(C=10, n=2, m=2, draws=20_000, seed=1, n_raw=None, zero=False)  # C > n
    @example(C=10, n=6, m=2, draws=5_000, seed=2, n_raw=5, zero=False)  # feature map
    @example(C=4, n=3, m=1, draws=500, seed=3, n_raw=None, zero=True)  # constant integrand
    @settings(max_examples=20, deadline=None)
    def test_is_the_one_model_shared_estimate(self, C, n, m, draws, seed, n_raw, zero):
        rng = np.random.default_rng(seed)
        mix = random_mixture(rng, n if n_raw is None else n_raw, m)
        weights = np.zeros((C, n)) if zero else rng.normal(size=(C, n))
        fm = None if n_raw is None else rng.normal(size=(n, n_raw))
        model = LinearSoftmaxModel(weights, fm)
        estimate = expected_entropy_mc(model, mix, draws, seed=seed)
        [shared] = _shared_expected_entropies([model], mix, draws, derive_rng(seed, ENTROPY_MC))
        assert np.array(estimate).tobytes() == np.array(shared).tobytes()
        if zero:
            assert estimate == (math.log(C), 0.0)

    @given(
        C=st.integers(2, 12),
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        draws=st.integers(100, 40_000),
        seed=st.integers(0, 2**32),
        n_raw=st.none() | st.integers(1, 6),
        tiny=st.booleans(),
    )
    @example(C=3, n=5, m=2, draws=100, seed=0, n_raw=None, tiny=False)  # C <= n
    # C > n, so rank < C, and draws span several blocks
    @example(C=10, n=2, m=1, draws=33_000, seed=1, n_raw=None, tiny=False)
    @example(C=10, n=2, m=2, draws=40_000, seed=2, n_raw=None, tiny=False)
    # a component of weight 1e-12 draws nothing
    @example(C=4, n=3, m=3, draws=5_000, seed=3, n_raw=None, tiny=True)
    @example(C=10, n=6, m=2, draws=20_000, seed=4, n_raw=5, tiny=False)  # feature map
    # the fine regime's shape (rank 10, so a slice holds up to 2,621 columns):
    # several components; one component of one and of two slice widths plus one
    # column; one component whose last block holds a single column
    @example(C=10, n=16, m=3, draws=30_000, seed=5, n_raw=None, tiny=False)
    @example(C=10, n=16, m=1, draws=2_622, seed=6, n_raw=None, tiny=False)
    @example(C=10, n=16, m=1, draws=5_243, seed=7, n_raw=None, tiny=False)
    @example(C=10, n=16, m=1, draws=_BLOCK + 1, seed=8, n_raw=None, tiny=False)
    @settings(max_examples=25, deadline=None)
    def test_zero_weights_give_log_c_exactly(self, C, n, m, draws, seed, n_raw, tiny):
        rng = np.random.default_rng(seed)
        mix = random_mixture(rng, n if n_raw is None else n_raw, m)
        if tiny and m > 1:
            weights = mix.weights.copy()
            weights[0] = 1e-12
            weights[1:] *= (1.0 - 1e-12) / weights[1:].sum()
            mix = GaussianMixture(weights, mix.means, mix.covariances)
        fm = None if n_raw is None else rng.normal(size=(n, n_raw))
        est, se = expected_entropy_mc(LinearSoftmaxModel(np.zeros((C, n)), fm), mix, draws, seed=seed)
        assert est == math.log(C)
        assert se == 0.0
        # on random weights of the same shapes, the buffered kernel equals the
        # fresh-array block loop bit for bit
        model = LinearSoftmaxModel(rng.normal(size=(C, n)), fm)
        h = _sample_entropies(model, mix, draws, derive_rng(seed, ENTROPY_MC))
        ref = reference_logit_entropies(model, mix, draws, derive_rng(seed, ENTROPY_MC))
        assert same_bits(h, ref)

    @pytest.mark.parametrize("case", ["fine_fixture", "classes_exceed_dim", "feature_map"])
    def test_agrees_with_feature_space_reference(self, case):
        # the logit-space sampler against the plain route: sample features, then
        # average the prediction entropies
        rng = np.random.default_rng(11)
        if case == "fine_fixture":
            mix = make_regime_fixtures(7)[0]
            model = LinearSoftmaxModel(rng.uniform(-10.0, 10.0, size=(10, 16)))
        elif case == "classes_exceed_dim":
            mix = random_mixture(rng, n=3, m=4)
            model = LinearSoftmaxModel(rng.normal(size=(8, 3)))
        else:
            mix = make_regime_fixtures(7)[1]
            model = LinearSoftmaxModel(
                rng.normal(scale=0.5, size=(10, 6)), rng.normal(scale=0.5, size=(6, 16))
            )
        est, se = expected_entropy_mc(model, mix, 100_000, seed=3)
        data = sample(mix, 50_000, seed=4)
        h = entropy_batch(predict_proba_batch(model, data.features))
        ref = float(h.mean())
        ref_se = float(h.std(ddof=1)) / math.sqrt(data.size)
        assert se > 0.0 and ref_se > 0.0
        assert abs(est - ref) <= 4.0 * math.hypot(se, ref_se)


class TestSharedExpectedEntropies:
    """One stream of normals shared by the reference estimates of several models."""

    @staticmethod
    def models(mix, count, seed, classes=10):
        rng = np.random.default_rng(seed)
        draw = uniform_model_sampler(classes, mix.dim)
        return [draw(k, rng) for k in range(count)]

    @pytest.mark.parametrize(
        "case, draws",
        [
            ("fine_fixture", 100_000),
            ("classes_exceed_dim", 40_000),  # two components, each over several blocks
            ("feature_map", 5_000),
        ],
    )
    def test_each_estimate_is_the_reference_on_the_same_normals(self, case, draws):
        rng = np.random.default_rng(12)
        if case == "fine_fixture":
            mix = make_regime_fixtures(7)[0]
            models = self.models(mix, 4, seed=1)
        elif case == "classes_exceed_dim":
            mix = random_mixture(rng, n=3, m=2)
            models = self.models(mix, 3, seed=2, classes=8)
        else:
            mix = make_regime_fixtures(7)[1]
            models = [
                LinearSoftmaxModel(rng.normal(size=(10, 6)), rng.normal(scale=0.5, size=(6, 16)))
                for _ in range(3)
            ]

        def stream():
            return derive_rng(3, ENTROPY_MC)

        estimates = _shared_expected_entropies(models, mix, draws, stream())
        for model, (est, se) in zip(models, estimates):
            # a trial's estimate is the test's own block loop on the same stream
            assert (est, se) == reference_shared_estimate(model, mix, draws, stream())
            # and the blockwise moments are those of the whole sample
            h = reference_logit_entropies(model, mix, draws, stream())
            assert est == pytest.approx(float(h.mean()), rel=1e-12, abs=1e-15)
            assert se == pytest.approx(float(h.std(ddof=1)) / math.sqrt(draws), rel=1e-9)

    @given(
        C=st.integers(2, 12),
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        draws=st.integers(100, 40_000),
        seed=st.integers(0, 2**32),
    )
    @example(C=10, n=16, m=1, draws=_BLOCK + 1, seed=1)  # a one-column last block
    @example(C=10, n=2, m=2, draws=40_000, seed=2)  # C > n, several blocks a component
    @settings(max_examples=15, deadline=None)
    def test_zero_weights_give_log_c_exactly(self, C, n, m, draws, seed):
        rng = np.random.default_rng(seed)
        mix = random_mixture(rng, n, m)
        zero = LinearSoftmaxModel(np.zeros((C, n)))
        models = [zero, LinearSoftmaxModel(rng.normal(size=(C, n))), zero]
        estimates = _shared_expected_entropies(models, mix, draws, derive_rng(seed, ENTROPY_MC))
        assert estimates[0] == estimates[2] == (math.log(C), 0.0)
        assert estimates[1][1] > 0.0

    def test_estimates_do_not_depend_on_the_other_models(self):
        mix = make_regime_fixtures(7)[0]
        models = self.models(mix, 7, seed=3)
        whole = _shared_expected_entropies(models, mix, 20_000, derive_rng(4, ENTROPY_MC))
        for parts in (1, 2, 3, 7):
            edges = [len(models) * i // parts for i in range(parts + 1)]
            shares = [
                _shared_expected_entropies(models[lo:hi], mix, 20_000, derive_rng(4, ENTROPY_MC))
                for lo, hi in zip(edges, edges[1:])
            ]
            assert [e for share in shares for e in share] == whole

    def test_an_estimate_does_not_depend_on_a_guard_failing_neighbour(self):
        # weights scaled by 1e3 put every block of that model outside the
        # no-shift guard, while the small model's blocks stay inside it
        mix = make_regime_fixtures(7)[0]
        rng = np.random.default_rng(8)
        small = LinearSoftmaxModel(rng.uniform(-0.1, 0.1, size=(10, 16)))
        huge = LinearSoftmaxModel(1e3 * rng.uniform(-1.0, 1.0, size=(10, 16)))
        [alone] = _shared_expected_entropies([small], mix, 30_000, derive_rng(6, ENTROPY_MC))
        for models in ([small, huge], [huge, small]):
            together = _shared_expected_entropies(models, mix, 30_000, derive_rng(6, ENTROPY_MC))
            assert np.array(together[models.index(small)]).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("fixture", ["fine", "large", "spectrum"])
    def test_agrees_with_fresh_draws(self, fixture):
        if fixture == "spectrum":
            mix = make_spectrum_fixture(7)
        else:
            mix = make_regime_fixtures(7)[fixture == "large"]
        # one model at each of the bound pipelines' weight scales 0.1, 1 and 10
        models = self.models(mix, 3, seed=5)
        estimates = _shared_expected_entropies(models, mix, 100_000, derive_rng(5, ENTROPY_MC))
        for k, (model, (est, se)) in enumerate(zip(models, estimates)):
            ref, ref_se = expected_entropy_mc(model, mix, 10**6, seed=100 + k)
            assert se > 0.0 and ref_se > 0.0
            assert abs(est - ref) <= 4.0 * math.hypot(se, ref_se)

    def test_models_must_share_a_shape(self):
        mix = std_normal_mixture()
        models = [LinearSoftmaxModel(np.ones((4, 3))), LinearSoftmaxModel(np.ones((5, 3)))]
        with pytest.raises(ShapeError, match="one logit shape"):
            _shared_expected_entropies(models, mix, 500, derive_rng(0, ENTROPY_MC))

    def test_overflowing_logit_moments_are_reported(self):
        mix = std_normal_mixture()
        models = [uniform_model(), LinearSoftmaxModel(np.full((4, 3), 1e300))]
        with pytest.raises(NonFiniteError, match="overflow"):
            _shared_expected_entropies(models, mix, 500, derive_rng(0, ENTROPY_MC))


def max_shift_entropies(logits):
    """The max-shift form of the block entropies, with a fresh array for every intermediate."""
    shifted = logits - logits.max(axis=0)
    e = np.exp(shifted)
    norm = e.sum(axis=0)
    return np.clip(np.log(norm) - (e * shifted).sum(axis=0) / norm, 0.0, float(np.log(len(logits))))


def block_entropies(logits, shift):
    """``_column_entropies`` of a copy of ``logits``, in fresh buffers."""
    z = np.array(logits)
    return _column_entropies(z, np.empty_like(z), np.empty((2, z.shape[1])), shift).copy()


class TestColumnEntropies:
    """The no-shift form inside the guard, and today's max-shift form outside it."""

    @given(
        classes=st.integers(2, 12),
        width=st.integers(1, 64),
        reach=st.floats(0.0, _NO_SHIFT_REACH),
        offset=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    @example(classes=10, width=5, reach=_NO_SHIFT_REACH, offset=1.0, seed=0)
    @example(classes=10, width=5, reach=_NO_SHIFT_REACH, offset=-1.0, seed=1)
    @example(classes=2, width=1, reach=0.0, offset=0.0, seed=2)  # a uniform column
    @settings(max_examples=60, deadline=None)
    def test_no_shift_agrees_with_the_max_shift_form_inside_the_guard(
        self, classes, width, reach, offset, seed
    ):
        # logits within [-reach, reach]: a common offset of up to reach plus a
        # spread that keeps every entry inside, as the guard proves of a block
        rng = np.random.default_rng(seed)
        spread = reach * (1.0 - abs(offset))
        logits = reach * offset + rng.uniform(-spread, spread, size=(classes, width))
        assert np.abs(logits).max() <= _NO_SHIFT_REACH
        fast, shifted = block_entropies(logits, False), block_entropies(logits, True)
        # the two forms' worst-case rounding added (see ``_column_entropies``)
        eps = np.finfo(np.float64).eps
        tol = (6 * classes + 24) * eps * max(1.0, float(np.abs(logits).max()))
        assert np.abs(fast - shifted).max() <= tol
        assert ((fast >= 0.0) & (fast <= math.log(classes))).all()

    @given(
        classes=st.integers(2, 12),
        width=st.integers(1, 64),
        scale=st.sampled_from([1.0, 300.0, 1e3, 1e6, 1e300]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_is_the_max_shift_form_bit_for_bit(self, classes, width, scale, seed):
        logits = np.random.default_rng(seed).uniform(-scale, scale, size=(classes, width))
        assert same_bits(block_entropies(logits, True), max_shift_entropies(logits))

    @given(
        classes=st.integers(2, 24),
        dim=st.integers(1, 12),
        scale=st.sampled_from([0.01, 1.0, 30.0, 1e3]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_guard_bounds_every_logit(self, classes, dim, scale, seed):
        # max |mu| + factor reach * max |z| bounds |F z + mu| for every column,
        # up to rounding (equality holds at rank 1), which the guard's distance
        # from exp's overflow absorbs
        rng = np.random.default_rng(seed)
        mix = random_mixture(rng, dim, 3)
        v = scale * rng.uniform(-1.0, 1.0, size=(2, classes, dim))
        low = spectral_factor(mix.covariances) if classes > dim else None
        means, factors, mean_reach, factor_reach = _logit_components(v, mix, slice(0, 3), low)
        z = rng.standard_normal((factors.shape[-1], 500))
        for k in range(2):
            for c in range(3):
                logits = factors[k, c] @ z + means[k, c][:, None]
                reach = mean_reach[k][c] + factor_reach[k][c] * np.abs(z).max()
                assert np.abs(logits).max() <= reach * (1.0 + 1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_blocks_outside_the_guard_take_the_max_shift_form(self, scale):
        # at 1e3 every block's logits may exceed the bound, so every block
        # shifts; the test's block loop decides the guard on its own
        rng = np.random.default_rng(21)
        mix = make_regime_fixtures(7)[0]
        model = LinearSoftmaxModel(scale * rng.uniform(-1.0, 1.0, size=(10, 16)))
        h = _sample_entropies(model, mix, 20_000, derive_rng(2, ENTROPY_MC))
        ref = reference_logit_entropies(model, mix, 20_000, derive_rng(2, ENTROPY_MC))
        assert same_bits(h, ref)


class TestLogitComponents:
    @pytest.mark.parametrize("classes, dim", [(10, 16), (100, 16)])
    @pytest.mark.parametrize("models", [1, 3])
    def test_component_groups_do_not_move_bits(self, classes, dim, models):
        # the pass groups components by how many models share it
        mix = make_regime_fixtures(7, dim=dim, components=12)[0]
        v = np.random.default_rng(11).uniform(-1.0, 1.0, size=(models, classes, dim))
        low = spectral_factor(mix.covariances) if classes > dim else None
        whole = _logit_components(v, mix, slice(0, 12), low)
        for c in range(12):
            alone = _logit_components(v, mix, slice(c, c + 1), low)
            assert same_bits(alone[0][:, 0], whole[0][:, c])
            assert same_bits(alone[1][:, 0], whole[1][:, c])
            assert [r[0] for r in alone[2]] == [r[c] for r in whole[2]]
            assert [r[0] for r in alone[3]] == [r[c] for r in whole[3]]


class TestMoreClassesThanDimensions:
    """C = 100 > n = 16: the factor V L_c, with no C x C covariance."""

    def test_factor_reproduces_the_logit_covariance(self):
        mix = make_regime_fixtures(7, components=100)[0]
        rng = np.random.default_rng(9)
        v = rng.uniform(-1.0, 1.0, size=(2, 100, 16))
        pushed = [_pushforward(mix, v[k]) for k in range(2)]
        low = spectral_factor(mix.covariances)
        for component in (0, 57, 99):
            means, factors, _, _ = _logit_components(v, mix, slice(component, component + 1), low)
            assert factors.shape == (2, 1, 100, 16)
            for k in range(2):
                cov = pushed[k].covariances[component]
                f = factors[k, 0]
                # entries near 0 come from cancelling sums, so they are held to
                # 1e-12 of the largest entry rather than of themselves
                np.testing.assert_allclose(f @ f.T, cov, rtol=1e-12, atol=1e-12 * np.abs(cov).max())
                assert same_bits(means[k, 0], v[k] @ mix.means[component])

    def test_batched_spectral_factors_are_each_matrix_alone(self):
        # the kernel factors every component of a call in one batched eigh
        mix = make_regime_fixtures(7, components=100)[0]
        low = spectral_factor(mix.covariances)
        assert all(same_bits(low[c], spectral_factor(mix.covariances[c])) for c in range(100))

    def test_estimate_matches_feature_space_sampling(self):
        mix = make_regime_fixtures(7, components=100)[0]
        model = LinearSoftmaxModel(np.random.default_rng(10).uniform(-1.0, 1.0, size=(100, 16)))
        est, se = expected_entropy_mc(model, mix, 20_000, seed=3)
        data = sample(mix, 20_000, seed=4)
        h = entropy_batch(predict_proba_batch(model, data.features))
        ref_se = float(h.std(ddof=1)) / math.sqrt(data.size)
        assert abs(est - float(h.mean())) <= 4.0 * math.hypot(se, ref_se)


class TestBlockProduct:
    @given(
        classes=st.integers(2, 48),
        rank=st.integers(1, 20),
        width=st.integers(1, 20_000),
        seed=st.integers(0, 2**32),
    )
    # the fine regime's shape: a whole 16,384-column block, one and two slice
    # widths plus one column, a single column, and 4,097 columns (split as
    # 2,048 + 2,048 + 1, gemv would take the last column)
    @example(classes=10, rank=10, width=_BLOCK, seed=0)
    @example(classes=10, rank=10, width=2_622, seed=1)
    @example(classes=10, rank=10, width=5_243, seed=2)
    @example(classes=10, rank=10, width=1, seed=3)
    @example(classes=10, rank=10, width=4_097, seed=7)
    # the largest sliced shape, in two slices of 274 and 273 columns
    @example(classes=_COLUMN_SLICE_MAX[0], rank=_COLUMN_SLICE_MAX[1], width=547, seed=4)
    # one class or one rank too many: left whole
    @example(classes=_COLUMN_SLICE_MAX[0] + 1, rank=10, width=_BLOCK, seed=5)
    @example(classes=20, rank=_COLUMN_SLICE_MAX[1] + 1, width=_BLOCK, seed=6)
    @settings(max_examples=60, deadline=None)
    def test_equals_one_matmul(self, classes, rank, width, seed):
        rank = min(rank, classes)  # rank = min(C, n) in the kernel
        rng = np.random.default_rng(seed)
        factor = rng.normal(size=(classes, rank))
        z = rng.standard_normal((rank, width))
        out = np.empty((classes, width))
        assert _linear(z, factor, out, columns=True) is out
        assert same_bits(out, np.matmul(factor, z))

    @pytest.mark.parametrize(
        "classes, rank, width", [(10, 10, _BLOCK), (10, 10, 2_622), (3, 2, 50)]
    )
    def test_slices_are_even_and_fit_one_blas_thread(self, monkeypatch, classes, rank, width):
        calls = record_matmul_calls(monkeypatch)
        _linear(np.ones((rank, width)), np.ones((classes, rank)), columns=True)
        assert_even_one_thread_slices([b.shape[1] for _, b in calls], width, classes * rank)


class TestRowProduct:
    @given(
        outputs=st.integers(1, 80),
        inner=st.integers(1, 80),
        rows=st.integers(1, 20_000),
        seed=st.integers(0, 2**32),
    )
    # the validation pass of the fine regime (10 classes, n = 16; a slice holds up
    # to 1,638 rows): 5,000 rows in four slices of 1,250; one slice width plus one
    # row, in two slices of 819 and 820, where fixed 1,638-row slices would leave
    # a single row to gemv; two widths plus one
    @example(outputs=10, inner=16, rows=5_000, seed=0)
    @example(outputs=10, inner=16, rows=1_639, seed=1)
    @example(outputs=10, inner=16, rows=3_277, seed=2)
    # a 16 x 16 feature map on the 4,000 validation rows of spectrum.cfg
    @example(outputs=16, inner=16, rows=4_000, seed=3)
    # the largest sliced shape, in three slices of 43 rows
    @example(outputs=_ROW_SLICE_MAX[0], inner=_ROW_SLICE_MAX[1], rows=129, seed=4)
    # one output or one inner term too many, or a single output (gemv): left whole
    @example(outputs=_ROW_SLICE_MAX[0] + 1, inner=10, rows=20_000, seed=5)
    @example(outputs=10, inner=_ROW_SLICE_MAX[1] + 1, rows=20_000, seed=6)
    @example(outputs=1, inner=16, rows=32_769, seed=7)
    # past the limits, shapes where a split does round differently: left whole
    @example(outputs=155, inner=38, rows=93, seed=8)
    @example(outputs=20, inner=132, rows=106, seed=9)
    @settings(max_examples=60, deadline=None)
    def test_equals_one_matmul(self, outputs, inner, rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, inner)) * rng.uniform(0.1, 10.0)
        w = rng.normal(size=(outputs, inner))
        out = np.empty((rows, outputs))
        assert _linear(x, w, out) is out
        assert same_bits(out, np.matmul(x, w.T))
        assert same_bits(_linear(x, w), out)

    @pytest.mark.parametrize("feature_map", [False, True])
    def test_forward_pass_slices_are_even_and_fit_one_blas_thread(self, monkeypatch, feature_map):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(16, 16)) if feature_map else None
        model = LinearSoftmaxModel(rng.normal(size=(10, 16)), fm)
        x = rng.normal(size=(5_000, 16))
        # the unsliced forward pass, with fresh arrays
        phi_ref = x if fm is None else np.matmul(x, fm.T)
        p_ref = reference_softmax_batch(np.matmul(phi_ref, model.weights.T))
        calls = record_matmul_calls(monkeypatch)
        out = np.empty((5_000, 10))
        phi, p = _forward(model.weights, model.feature_map, x, out)
        assert p is out
        assert same_bits(phi, phi_ref) and same_bits(p, p_ref)
        # the feature map's 16 x 16 products first, then the 10 x 16 logits
        products = [(256, [a.shape[0] for a, b in calls if b.shape[1] == 16])] if feature_map else []
        products.append((160, [a.shape[0] for a, b in calls if b.shape[1] == 10]))
        assert sum(len(widths) for _, widths in products) == len(calls)
        for per_row, widths in products:
            assert_even_one_thread_slices(widths, 5_000, per_row)


class TestLosses:
    def test_uniform_cancellation(self, rng):
        # ln C cross-entropy minus gamma=1 times ln C entropy is exactly zero
        ds = LabeledDataset(rng.normal(size=(16, 3)), rng.integers(0, 4, 16))
        assert maxent_loss(uniform_model(C=4), ds, gamma=1.0) == 0.0

    def test_uniform_plain_ce(self, rng):
        ds = LabeledDataset(rng.normal(size=(16, 3)), rng.integers(0, 4, 16))
        assert maxent_loss(uniform_model(C=4), ds, gamma=0.0) == pytest.approx(math.log(4))

    def test_single_sample_value(self):
        # p = (0.7, 0.3) from logits (ln .7, ln .3); -ln .7 - 0.5 H(p) = 0.0512...
        w = np.array([[math.log(0.7)], [math.log(0.3)]])
        ds = LabeledDataset(np.array([[1.0]]), np.array([0]))
        expected = -math.log(0.7) - 0.5 * (-(0.7 * math.log(0.7) + 0.3 * math.log(0.3)))
        value = maxent_loss(LinearSoftmaxModel(w), ds, gamma=0.5)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.0512, abs=1e-4)

    def test_monotone_in_gamma(self, rng):
        model = LinearSoftmaxModel(rng.normal(size=(5, 4)))
        ds = LabeledDataset(rng.normal(size=(32, 4)), rng.integers(0, 5, 32))
        values = [maxent_loss(model, ds, g) for g in (0.0, 0.3, 0.7, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def finite_difference_grads(model, ds, gamma, h=1e-5):
    w, a = model.weights, model.feature_map

    def loss(wm, am):
        return maxent_loss(LinearSoftmaxModel(wm, am), ds, gamma)

    grad_w = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp, wm_ = w.copy(), w.copy()
        wp[idx] += h
        wm_[idx] -= h
        grad_w[idx] = (loss(wp, a) - loss(wm_, a)) / (2 * h)
    grad_a = None
    if a is not None:
        grad_a = np.zeros_like(a)
        for idx in np.ndindex(*a.shape):
            ap, am_ = a.copy(), a.copy()
            ap[idx] += h
            am_[idx] -= h
            grad_a[idx] = (loss(w, ap) - loss(w, am_)) / (2 * h)
    return grad_w, grad_a


def rel_err(analytic, numeric):
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale


class TestGradient:
    def test_gamma_zero_reduces_to_ce_gradient(self, rng):
        model = LinearSoftmaxModel(rng.normal(size=(4, 3)))
        ds = LabeledDataset(rng.normal(size=(8, 3)), rng.integers(0, 4, 8))
        grad_w, _ = maxent_gradient(model, ds, 0.0)
        p = predict_proba_batch(model, ds.features)
        p[np.arange(8), ds.labels] -= 1.0
        np.testing.assert_allclose(grad_w, p.T @ ds.features / 8, atol=1e-14)

    def test_uniform_entropy_term_vanishes(self, rng):
        # at W = 0 the entropy term p (ln p + H) is exactly zero
        ds = LabeledDataset(rng.normal(size=(8, 3)), np.arange(8) % 4)
        g1, _ = maxent_gradient(uniform_model(C=4), ds, 1.0)
        g0, _ = maxent_gradient(uniform_model(C=4), ds, 0.0)
        np.testing.assert_allclose(g1, g0, atol=1e-15)

    def test_matches_finite_differences_fixture(self, rng):
        model = LinearSoftmaxModel(rng.normal(size=(5, 7)))
        ds = LabeledDataset(rng.normal(size=(16, 7)), rng.integers(0, 5, 16))
        grad_w, grad_a = maxent_gradient(model, ds, 0.7)
        fd_w, _ = finite_difference_grads(model, ds, 0.7)
        assert grad_a is None
        assert rel_err(grad_w, fd_w) <= 1e-6

    def test_batch_of_the_wrong_width_is_a_shape_error(self, rng):
        ds = LabeledDataset(rng.normal(size=(4, 5)), rng.integers(0, 3, 4))
        with pytest.raises(ShapeError):
            maxent_gradient(LinearSoftmaxModel(rng.normal(size=(3, 2))), ds, 1.0)

    def test_non_finite_batch_is_rejected_on_entry(self, rng):
        features = rng.normal(size=(4, 2))
        features[1, 0] = np.nan
        ds = LabeledDataset(features, rng.integers(0, 3, 4))
        with pytest.raises(NonFiniteError, match="batch contains non-finite values"):
            maxent_gradient(LinearSoftmaxModel(rng.normal(size=(3, 2))), ds, 1.0)

    def test_matches_finite_differences_with_feature_map(self, rng):
        model = LinearSoftmaxModel(rng.normal(size=(4, 5)), rng.normal(size=(5, 6)))
        ds = LabeledDataset(rng.normal(size=(12, 6)), rng.integers(0, 4, 12))
        grad_w, grad_a = maxent_gradient(model, ds, 1.0)
        fd_w, fd_a = finite_difference_grads(model, ds, 1.0)
        assert rel_err(grad_w, fd_w) <= 1e-6
        assert rel_err(grad_a, fd_a) <= 1e-6
