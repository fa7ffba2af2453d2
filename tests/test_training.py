"""SGD trainer: determinism, reductions, noise injection, telemetry."""

import dataclasses
import math

import numpy as np
import pytest

from maxentlab._streams import SHUFFLE, derive_rng
from maxentlab.core import PROB_FLOOR, LinearSoftmaxModel, _linear, maxent_gradient, predict_proba
from maxentlab.datasets import LabeledDataset
from maxentlab.errors import (
    DivergenceError,
    DomainError,
    NonFiniteError,
    ShapeError,
    ValidationError,
)
from maxentlab.mixtures import GaussianMixture, sample
from maxentlab.training import (
    EpochRecord,
    LrSchedule,
    TrainConfig,
    evaluate,
    init_model,
    inject_label_noise,
    train,
)


def blobs(separation=3.0, count=100, seed=1, var=0.1):
    mix = GaussianMixture.from_components(
        [
            (0.5, [separation, 0.0], var * np.eye(2)),
            (0.5, [-separation, 0.0], var * np.eye(2)),
        ]
    )
    return sample(mix, count, seed=seed)


def quick_cfg(**kw):
    base = dict(
        gamma=0.0,
        objective="maxent",
        lr=LrSchedule("constant", 0.1),
        epochs=20,
        seed=1,
        batch_size=32,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestLrSchedule:
    def test_constant(self):
        assert LrSchedule("constant", 0.2).value(7, 100) == 0.2

    def test_step(self):
        sched = LrSchedule("step", 1.0, factor=0.5, interval=10)
        assert sched.value(0, 100) == 1.0
        assert sched.value(9, 100) == 1.0
        assert sched.value(10, 100) == 0.5
        assert sched.value(25, 100) == 0.25

    def test_linear(self):
        sched = LrSchedule("linear", 1.0)
        assert sched.value(0, 10) == 1.0
        assert sched.value(5, 10) == pytest.approx(0.5)
        assert sched.value(9, 10) == pytest.approx(0.1)


class TestInitModel:
    def test_zero_scale_gives_zero_weights(self):
        model = init_model(5, 10, 10, 0.0, seed=3)
        assert not model.weights.any()
        assert model.feature_map is None

    def test_deterministic(self):
        a = init_model(5, 10, 10, 0.01, seed=3)
        b = init_model(5, 10, 10, 0.01, seed=3)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_norm_bound_from_support(self):
        model = init_model(5, 10, 10, 0.01, seed=3)
        assert model.w_l2() <= 0.01 * math.sqrt(50)

    def test_identity_feature_map_when_square(self):
        model = init_model(4, 6, 6, 0.01, seed=0, with_feature_map=True)
        np.testing.assert_array_equal(model.feature_map, np.eye(6))

    def test_rectangular_feature_map(self):
        model = init_model(4, 3, 8, 0.05, seed=0)
        assert model.feature_map.shape == (3, 8)
        assert np.abs(model.feature_map).max() <= 0.05

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            init_model(1, 4, 4, 0.0, seed=0)


class TestInjectLabelNoise:
    def test_zero_fraction_identity(self, rng):
        ds = LabeledDataset(rng.normal(size=(50, 2)), rng.integers(0, 5, 50))
        out = inject_label_noise(ds, 0.0, seed=1)
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert not out.noise_mask.any()

    def test_exact_count(self, rng):
        ds = LabeledDataset(rng.normal(size=(100, 2)), rng.integers(0, 5, 100))
        out = inject_label_noise(ds, 0.25, seed=1)
        assert out.noise_mask.sum() == 25

    def test_full_fraction_distinct_labels_all_move(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 40))
            perm = rng.permutation(n)
            ds = LabeledDataset(rng.normal(size=(n, 2)), perm)
            out = inject_label_noise(ds, 1.0, seed=trial)
            assert (out.labels != ds.labels).all()
            assert out.noise_mask.all()

    def test_preserves_multiset(self, rng):
        ds = LabeledDataset(rng.normal(size=(60, 2)), rng.integers(0, 5, 60))
        out = inject_label_noise(ds, 0.5, seed=2)
        assert sorted(out.labels.tolist()) == sorted(ds.labels.tolist())

    def test_deterministic(self, rng):
        ds = LabeledDataset(rng.normal(size=(60, 2)), rng.integers(0, 5, 60))
        a = inject_label_noise(ds, 0.4, seed=9)
        b = inject_label_noise(ds, 0.4, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.noise_mask, b.noise_mask)

    def test_input_untouched(self, rng):
        ds = LabeledDataset(rng.normal(size=(30, 2)), rng.integers(0, 5, 30))
        before = ds.labels.copy()
        inject_label_noise(ds, 1.0, seed=0)
        np.testing.assert_array_equal(ds.labels, before)

    def test_fraction_domain(self, rng):
        ds = LabeledDataset(rng.normal(size=(4, 2)), rng.integers(0, 2, 4))
        with pytest.raises(DomainError):
            inject_label_noise(ds, 1.5, seed=0)


class TestTrain:
    def test_zero_epochs_no_op(self):
        ds = blobs()
        model = init_model(2, 2, 2, 0.01, seed=5)
        trained, history = train(model, ds, None, quick_cfg(epochs=0))
        assert trained.weights.tobytes() == model.weights.tobytes()
        assert len(history.records) == 1

    def test_separable_blobs_reach_full_accuracy(self):
        ds = blobs()
        cfg = quick_cfg(epochs=200, lr=LrSchedule("constant", 0.1))
        trained, _ = train(init_model(2, 2, 2, 0.0, seed=1), ds, None, cfg)
        assert evaluate(trained, ds).accuracy == 1.0

    def test_entropy_strictly_higher_with_gamma(self):
        # gamma = 1 run ends with strictly greater train entropy, every seed
        for seed in range(1, 7):
            ds = blobs(seed=seed)
            model = init_model(2, 2, 2, 0.0, seed=seed)
            cfg0 = quick_cfg(epochs=200, seed=seed)
            cfg1 = quick_cfg(epochs=200, seed=seed, gamma=1.0)
            _, h0 = train(model, ds, None, cfg0)
            _, h1 = train(model, ds, None, cfg1)
            assert h1.final.train_entropy > h0.final.train_entropy

    def test_bitwise_deterministic(self):
        ds = blobs()
        val = blobs(seed=2)
        cfg = quick_cfg(epochs=30)
        a, ha = train(init_model(2, 2, 2, 0.01, seed=4), ds, val, cfg)
        b, hb = train(init_model(2, 2, 2, 0.01, seed=4), ds, val, cfg)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert ha.records == hb.records

    def test_gamma_zero_equals_ce_bitwise(self):
        ds = blobs()
        model = init_model(2, 2, 2, 0.01, seed=4)
        m1, h1 = train(model, ds, None, quick_cfg(epochs=40, gamma=0.0, objective="maxent"))
        m2, h2 = train(model, ds, None, quick_cfg(epochs=40, gamma=0.0, objective="ce"))
        assert m1.weights.tobytes() == m2.weights.tobytes()
        assert h1.records == h2.records

    def test_weight_decay_geometric_on_zero_features(self):
        # zero features give zero gradient, so only decay acts on W
        n, lr, lam = 3, 0.1, 0.5
        ds = LabeledDataset(np.zeros((8, n)), np.zeros(8, dtype=int))
        w0 = np.full((2, n), 2.0)
        cfg = quick_cfg(epochs=1, batch_size=8, lr=LrSchedule("constant", lr), weight_decay=lam)
        trained, _ = train(LinearSoftmaxModel(w0.copy()), ds, None, cfg)
        np.testing.assert_allclose(trained.weights, w0 * (1 - lr * lam), rtol=1e-12)

    def test_history_record_count_and_epoch_zero(self):
        ds = blobs()
        cfg = quick_cfg(epochs=7)
        model = init_model(2, 2, 2, 0.0, seed=1)
        _, history = train(model, ds, ds, cfg)
        assert len(history.records) == 8
        first = history.records[0]
        assert first.epoch == 0
        assert first.w_l2 == 0.0
        assert first.train_ce == pytest.approx(math.log(2))

    def test_empty_val_leaves_fields_absent(self):
        ds = blobs()
        _, history = train(init_model(2, 2, 2, 0.0, seed=1), ds, None, quick_cfg(epochs=2))
        assert history.final.val_ce is None and history.final.val_accuracy is None

    def test_divergence_reports_epoch_and_batch(self):
        # an lr near float max overflows the weights within a few updates
        ds = blobs()
        cfg = quick_cfg(epochs=50, lr=LrSchedule("constant", 1e308))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            train(init_model(2, 2, 2, 0.01, seed=1), ds, None, cfg)
        assert err.value.epoch is not None and err.value.batch is not None

    def test_divergence_at_epoch_end_is_a_divergence_error(self):
        # one batch per epoch, so the overflowing update is seen first by the
        # end-of-epoch validation; lr * weight_decay >> 1 grows |W| ~1e200-fold a step
        ds = blobs(count=10)
        cfg = quick_cfg(epochs=5, lr=LrSchedule("constant", 1e200), weight_decay=1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            train(init_model(2, 2, 2, 0.0, seed=1), ds, blobs(seed=2), cfg)
        assert (err.value.epoch, err.value.batch) == (2, 0)

    def test_divergence_without_validation_set_is_a_divergence_error(self):
        # the same overflow with no validation pass to see it: the parameters
        # themselves are checked at every epoch end
        ds = blobs(count=10)
        cfg = quick_cfg(epochs=2, lr=LrSchedule("constant", 1e200), weight_decay=1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            train(init_model(2, 2, 2, 0.0, seed=1), ds, None, cfg)
        assert (err.value.epoch, err.value.batch) == (2, 0)

    @pytest.mark.parametrize("train_feature_map", [False, True])
    def test_skipped_val_metrics_leave_the_run_unchanged(self, train_feature_map):
        # val_metrics=False drops the validation fields and nothing else, bit for bit
        ds, val = blobs(1.0, var=1.0), blobs(1.0, count=300, seed=2, var=1.0)
        model = init_model(2, 2, 2, 0.1, seed=3, with_feature_map=train_feature_map)
        cfg = quick_cfg(epochs=5, gamma=1.0, train_feature_map=train_feature_map)
        full, h_full = train(model, ds, val, cfg)
        lean, h_lean = train(model, ds, val, cfg, val_metrics=False)
        assert full.weights.tobytes() == lean.weights.tobytes()
        if train_feature_map:
            assert full.feature_map.tobytes() == lean.feature_map.tobytes()
        assert all(r.val_ce is not None and r.val_accuracy is not None for r in h_full.records)
        assert all(r.val_ce is None and r.val_accuracy is None for r in h_lean.records)
        blank = dict(val_ce=None, val_accuracy=None)
        assert [dataclasses.replace(r, **blank) for r in h_full.records] == h_lean.records

    @pytest.mark.parametrize("val_metrics", [True, False])
    def test_overflowing_validation_logits_diverge_with_or_without_metrics(self, val_metrics):
        # one batch per epoch: the first update leaves finite weights near 1e308
        # whose validation logits overflow, which only the epoch-end record sees
        cfg = quick_cfg(epochs=3, lr=LrSchedule("constant", 5e307))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            model = init_model(2, 2, 2, 0.0, seed=1)
            train(model, blobs(count=10), blobs(seed=2), cfg, val_metrics=val_metrics)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        assert str(err.value) == "non-finite parameters at epoch 1, batch 0: logits must be finite"

    def test_incomplete_final_batch_used(self):
        # 10 samples at batch 8: second batch has 2 rows and still updates
        ds = blobs(count=10)
        cfg = quick_cfg(epochs=1, batch_size=8)
        model = init_model(2, 2, 2, 0.0, seed=1)
        trained, _ = train(model, ds, None, cfg)
        assert trained.weights.any()

    def test_out_of_range_validation_label_is_a_shape_error(self):
        val = blobs(count=10, seed=2)
        val.labels[3] = 2
        with pytest.raises(ShapeError):
            train(init_model(2, 2, 2, 0.0, seed=1), blobs(), val, quick_cfg(epochs=1))

    def test_non_finite_validation_set_is_rejected_before_training(self):
        # the validation set is checked once, up front, not at every record
        val = blobs(count=10, seed=2)
        val.features[3, 1] = np.nan
        with pytest.raises(NonFiniteError, match="batch contains non-finite values"):
            train(init_model(2, 2, 2, 0.0, seed=1), blobs(), val, quick_cfg(epochs=1))

    def test_final_record_equals_evaluate(self):
        # per-epoch telemetry and evaluate share one forward pass, bit for bit
        ds, val = blobs(1.0, var=1.0), blobs(1.0, count=300, seed=2, var=1.0)
        trained, history = train(init_model(2, 2, 2, 0.1, seed=3), ds, val, quick_cfg(epochs=3))
        rep = evaluate(trained, val)
        assert 0.0 < rep.accuracy < 1.0
        assert history.final.val_ce == rep.mean_ce
        assert history.final.val_accuracy == rep.accuracy

    @pytest.mark.parametrize("train_feature_map", [False, True])
    def test_full_batch_step_is_maxent_gradient(self, train_feature_map):
        # one full-batch step is W - lr * maxent_gradient on the shuffled batch, exactly
        ds = blobs(count=40, var=1.0)
        lr = 0.3
        model = init_model(2, 2, 2, 0.2, seed=3, with_feature_map=train_feature_map)
        cfg = quick_cfg(
            epochs=1,
            batch_size=ds.size,
            gamma=1.0,
            lr=LrSchedule("constant", lr),
            train_feature_map=train_feature_map,
        )
        trained, _ = train(model, ds, None, cfg)
        batch = ds.subset(derive_rng(cfg.seed, SHUFFLE, 0).permutation(ds.size))
        grad_w, grad_a = maxent_gradient(model, batch, cfg.gamma)
        np.testing.assert_array_equal(trained.weights, model.weights - lr * grad_w)
        if train_feature_map:
            np.testing.assert_array_equal(trained.feature_map, model.feature_map - lr * grad_a)
        else:
            assert grad_a is None and trained.feature_map is None

    @pytest.mark.parametrize("train_feature_map", [False, True])
    def test_full_batch_lsr_step_is_smoothed_ce_gradient(self, train_feature_map):
        # an lsr step moves by p - smoothed targets: the gradient of the label-smoothing loss
        ds = blobs(count=40, var=1.0)
        lr, eps, h = 0.3, 0.2, 1e-5
        model = init_model(2, 2, 2, 0.2, seed=3, with_feature_map=train_feature_map)
        cfg = quick_cfg(
            epochs=1,
            batch_size=ds.size,
            objective="lsr",
            lsr_epsilon=eps,
            lr=LrSchedule("constant", lr),
            train_feature_map=train_feature_map,
        )
        trained, _ = train(model, ds, None, cfg)

        def lsr_loss(weights, feature_map):
            m = LinearSoftmaxModel(weights, feature_map)
            total = 0.0
            for x, y in zip(ds.features, ds.labels):
                t = np.full(2, eps / 2)
                t[y] += 1 - eps
                total += -(t * np.log(predict_proba(m, x))).sum()
            return total / ds.size

        def central_difference(param, loss_at):
            grad = np.zeros_like(param)
            for idx in np.ndindex(*param.shape):
                up, down = param.copy(), param.copy()
                up[idx] += h
                down[idx] -= h
                grad[idx] = (loss_at(up) - loss_at(down)) / (2 * h)
            return grad

        fm = model.feature_map
        grad_w = central_difference(model.weights, lambda w: lsr_loss(w, fm))
        np.testing.assert_allclose((model.weights - trained.weights) / lr, grad_w, atol=1e-8)
        if train_feature_map:
            grad_a = central_difference(fm, lambda a: lsr_loss(model.weights, a))
            np.testing.assert_allclose((fm - trained.feature_map) / lr, grad_a, atol=1e-8)
        else:
            assert trained.feature_map is None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            quick_cfg(objective="banana").validated()
        with pytest.raises(ValidationError):
            quick_cfg(gamma=-0.5).validated()


class TestEvaluate:
    def test_uniform_model_predicts_class_zero(self, rng):
        ds = LabeledDataset(rng.normal(size=(200, 3)), rng.integers(0, 4, 200))
        rep = evaluate(LinearSoftmaxModel(np.zeros((4, 3))), ds)
        assert rep.accuracy == pytest.approx((ds.labels == 0).mean())
        assert rep.top_prob_mean == pytest.approx(0.25)

    def test_saturated_model(self):
        # rows +-(10, 0) give a logit gap of at least 40 on the blob data
        ds = blobs()
        model = LinearSoftmaxModel(np.array([[10.0, 0.0], [-10.0, 0.0]]))
        rep = evaluate(model, ds)
        assert rep.accuracy == 1.0
        assert rep.top_prob_mean >= 1 - 1e-6

    def test_out_of_range_label_is_a_shape_error(self, rng):
        ds = LabeledDataset(rng.normal(size=(4, 2)), [0, 1, 2, 5])
        with pytest.raises(ShapeError):
            evaluate(LinearSoftmaxModel(np.zeros((3, 2))), ds)

    def test_matches_per_sample_loop(self, rng):
        from maxentlab.core import entropy, predict_proba

        model = LinearSoftmaxModel(rng.normal(size=(4, 3)))
        ds = LabeledDataset(rng.normal(size=(50, 3)), rng.integers(0, 4, 50))
        rep = evaluate(model, ds)
        probs = [predict_proba(model, x) for x in ds.features]
        assert rep.accuracy == pytest.approx(
            np.mean([int(np.argmax(p) == y) for p, y in zip(probs, ds.labels)])
        )
        assert rep.mean_ce == pytest.approx(
            np.mean([-math.log(p[y]) for p, y in zip(probs, ds.labels)]), rel=1e-12
        )
        assert rep.mean_entropy == pytest.approx(
            np.mean([entropy(p) for p in probs]), rel=1e-12
        )
        assert rep.top_prob_mean == pytest.approx(np.mean([p.max() for p in probs]), rel=1e-12)
        assert rep.top_prob_histogram.sum() == 50


# ---------------------------------------------------------------------------
# The lean epoch: ``train`` gathers each epoch's rows once, skips the
# divergence-only validation product when bounds prove it finite, and takes
# fewer wrapper calls per step; none of that may move a bit.
# ---------------------------------------------------------------------------


def reference_train(model, train_set, val_set, cfg, val_metrics):
    """The SGD loop op for op, written plainly: per-batch fancy indexing, a
    validation product at every record, plain norms. Returns (W, A, records)."""
    w = model.weights.copy()
    a = None if model.feature_map is None else model.feature_map.copy()
    train_a = cfg.train_feature_map and a is not None
    gamma = cfg.gamma if cfg.objective == "maxent" else 0.0
    classes = w.shape[0]

    def features(x):
        return x if a is None else x @ a.T

    def softmax(z):
        if not np.isfinite(z).all():
            raise NonFiniteError("logits must be finite")
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def log_entropies(p):
        log_p = np.log(np.maximum(p, PROB_FLOOR))
        return log_p, np.clip(-(p * log_p).sum(axis=1), 0.0, float(np.log(classes)))

    def label_ce(p, y):
        return -np.log(np.maximum(p[np.arange(y.shape[0]), y], PROB_FLOOR))

    def record(epoch, train_ce, train_h, lr):
        vce = vacc = None
        if val_set is not None:
            logits = features(val_set.features) @ w.T
            if val_metrics:
                p = softmax(logits)
                vce = float(label_ce(p, val_set.labels).mean())
                vacc = float((p.argmax(axis=1) == val_set.labels).mean())
            elif not np.isfinite(logits).all():
                raise NonFiniteError("logits must be finite")
        w_l2 = float(np.linalg.norm(w))
        w_inf = float(np.sqrt((w**2).sum(axis=1).max()))
        return EpochRecord(epoch, train_ce, train_h, vce, vacc, w_l2, w_inf, lr)

    p0 = softmax(features(train_set.features) @ w.T)
    ce0, h0 = label_ce(p0, train_set.labels), log_entropies(p0)[1]
    records = [record(0, float(ce0.mean()), float(h0.mean()), cfg.lr.value(0, cfg.epochs))]
    n = train_set.size
    for epoch in range(cfg.epochs):
        lr = cfg.lr.value(epoch, cfg.epochs)
        perm = derive_rng(cfg.seed, SHUFFLE, epoch).permutation(n)
        ce_sum = h_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = perm[start : start + cfg.batch_size]
            x, y = train_set.features[rows], train_set.labels[rows]
            phi = features(x)
            p = softmax(phi @ w.T)
            log_p, h = log_entropies(p)
            ce_sum += float(label_ce(p, y).sum())
            h_sum += float(h.sum())
            if cfg.objective == "lsr":
                onehot = np.zeros_like(p)
                onehot[np.arange(y.shape[0]), y] = 1.0
                g = p - ((1.0 - cfg.lsr_epsilon) * onehot + cfg.lsr_epsilon / classes)
            else:
                g = p.copy()
                g[np.arange(y.shape[0]), y] -= 1.0
                if gamma != 0.0:
                    g += gamma * p * (log_p + h[:, None])
            scale = 1.0 / rows.shape[0]
            grad_w = scale * (g.T @ phi)
            if train_a:
                grad_a = scale * ((g @ w).T @ x)
                a = a - lr * (grad_a + cfg.weight_decay * a)
            w = w - lr * (grad_w + cfg.weight_decay * w)
        records.append(record(epoch + 1, ce_sum / n, h_sum / n, lr))
    return w, a, records


def record_bits(records):
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r))
        for r in records
    ]


def three_class_sets():
    mix = GaussianMixture.from_components(
        [
            (0.3, [1.0, 0.0, 0.5], np.eye(3)),
            (0.3, [-1.0, 0.5, 0.0], np.eye(3)),
            (0.4, [0.0, -1.0, -0.5], np.eye(3)),
        ]
    )
    return sample(mix, 70, seed=4), sample(mix, 150, seed=5)


def count_validation_products(monkeypatch, rows):
    """Count the ``_linear`` calls of ``train`` over ``rows`` inputs: the validation products."""
    import maxentlab.training as training

    calls = []

    def counting_linear(x, w, *args, **kwargs):
        if x.shape[0] == rows:
            calls.append(x.shape)
        return _linear(x, w, *args, **kwargs)

    monkeypatch.setattr(training, "_linear", counting_linear)
    return calls


class TestLeanEpoch:
    @pytest.mark.parametrize("val_metrics", [True, False])
    @pytest.mark.parametrize("feature_map", ["none", "trained", "frozen"])
    @pytest.mark.parametrize("objective", ["maxent", "ce", "lsr"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_train_equals_a_plain_sgd_loop(self, objective, feature_map, val_metrics, weight_decay):
        ds, val = three_class_sets()
        # a frozen map is rectangular, so the model has one without training it
        n = 2 if feature_map == "frozen" else 3
        model = init_model(3, n, 3, 0.3, seed=6, with_feature_map=feature_map == "trained")
        cfg = quick_cfg(
            objective=objective,
            gamma=0.7,
            lsr_epsilon=0.2,
            lr=LrSchedule("linear", 0.4),
            weight_decay=weight_decay,
            epochs=4,
            batch_size=16,  # 70 rows: four full batches and one of 6
            train_feature_map=feature_map == "trained",
        )
        trained, history = train(model, ds, val, cfg, val_metrics=val_metrics)
        w, a, records = reference_train(model, ds, val, cfg, val_metrics)
        assert trained.weights.tobytes() == w.tobytes()
        if feature_map == "none":
            assert trained.feature_map is None and a is None
        else:
            assert trained.feature_map.tobytes() == a.tobytes()
        assert record_bits(history.records) == record_bits(records)
        assert all((r.val_ce is not None) is val_metrics for r in history.records)

    def test_bounded_logits_skip_the_validation_product(self, monkeypatch):
        ds, val = three_class_sets()
        calls = count_validation_products(monkeypatch, val.size)
        cfg = quick_cfg(gamma=1.0, epochs=3)
        _, history = train(init_model(3, 3, 3, 0.3, seed=6), ds, val, cfg, val_metrics=False)
        assert calls == []
        w, _, records = reference_train(init_model(3, 3, 3, 0.3, seed=6), ds, val, cfg, False)
        assert record_bits(history.records) == record_bits(records)

    @pytest.mark.parametrize("train_feature_map", [False, True])
    def test_bound_above_the_threshold_falls_through_to_the_product(
        self, monkeypatch, train_feature_map
    ):
        # validation inputs up to 1e300 put the feature bound at the threshold,
        # while the logits of the trained model stay far below the float maximum
        ds, val = three_class_sets()
        val = LabeledDataset(val.features * (1e300 / np.abs(val.features).max()), val.labels)
        model = init_model(3, 3, 3, 0.3, seed=6, with_feature_map=train_feature_map)
        cfg = quick_cfg(gamma=1.0, epochs=3, train_feature_map=train_feature_map)
        calls = count_validation_products(monkeypatch, val.size)
        _, history = train(model, ds, val, cfg, val_metrics=False)
        # every record takes the validation logits
        assert len(calls) == len(history.records)
        _, _, records = reference_train(model, ds, val, cfg, False)
        assert record_bits(history.records) == record_bits(records)

    @pytest.mark.parametrize("val_metrics", [True, False])
    def test_features_overflowing_under_tiny_weights_diverge(self, val_metrics):
        # zero training inputs leave both gradients zero, so each step only
        # scales the parameters by 1 - lr * weight_decay, about -1e100: the
        # map reaches 1e100 and the weights 1e-150 after epoch 1. Validation
        # inputs of 1e250 then overflow the features, though the weights
        # times any finite feature stay tiny.
        ds = LabeledDataset(np.zeros((10, 2)), np.arange(10) % 2)
        val = LabeledDataset(np.full((6, 2), 1e250), np.arange(6) % 2)
        model = LinearSoftmaxModel(np.full((2, 2), 1e-250), np.eye(2))
        cfg = quick_cfg(
            epochs=3, lr=LrSchedule("constant", 1e100), weight_decay=1.0, train_feature_map=True
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            train(model, ds, val, cfg, val_metrics=val_metrics)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        assert str(err.value) == "non-finite parameters at epoch 1, batch 0: logits must be finite"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as ref:
            reference_train(model, ds, val, cfg, val_metrics)
        assert str(ref.value) == "logits must be finite"

    def test_a_huge_map_under_tiny_weights_is_not_bounded(self):
        # the features may reach 1e305 while the logits stay near 1e5: the
        # feature bound alone sends the record to the product
        from maxentlab.training import _logits_bounded

        reach = np.array([1.0, 1.0])
        model = LinearSoftmaxModel(np.full((2, 2), 1e-300), np.full((2, 2), 1e305))
        assert not _logits_bounded(model, reach)
        small_map = LinearSoftmaxModel(np.full((2, 2), 1e-300), np.full((2, 2), 1e299))
        assert _logits_bounded(small_map, reach)
        big_input = np.array([1e299, 0.0])
        assert _logits_bounded(LinearSoftmaxModel(np.full((2, 2), 1e-5)), big_input)
        assert not _logits_bounded(LinearSoftmaxModel(np.full((2, 2), 10.0)), big_input)
