"""Mini-batch SGD for the linear softmax model, with telemetry.

Plain SGD, no momentum. Per batch the update is

    W <- W - lr * (grad_W + weight_decay * W)

and likewise for the feature map when it is being trained; both gradients
are taken at the pre-update parameters (without decay the sum is skipped:
grad + 0 * W is grad for every finite W). The per-epoch batch order comes
from a stream derived from (seed, epoch), so a run is a pure function of
(datasets, config). Each epoch gathers its shuffled rows once, and every
batch is a contiguous slice of that copy, holding the rows and values the
batch's fancy index would. History record k holds the state after k epochs;
record 0 is the pre-training state. Train-loss telemetry for epoch k >= 1 is
the size-weighted mean of the per-batch values seen during that epoch (the
last short batch counts at its true size); a batch's CE is read off the ln p
its entropy takes. Validation telemetry is what a record stores, validation
CE and accuracy, taken from one forward pass over the full validation set at
the end of each epoch; every record of a run writes and normalises its
validation logits in the same buffer.

With ``val_metrics=False`` a record leaves both fields None and only checks
that the validation logits are finite, the divergence check the metrics'
softmax makes: only the pipelines in ``figures.HISTORY_PIPELINES`` write
these curves, so the other arms skip the softmax, CE and argmax. That check
first bounds the logits: with r = max |x| per raw column of the validation
set, taken once per run, every feature is at most |A| r and every logit at
most |W| (|A| r). While both bounds stay below 1e300 (``_OVERFLOW_SAFE``) no
logit can overflow, and the record skips the product, a few hundred
multiply-adds instead of one pass over the set; otherwise it multiplies the
set as before, so a divergence is reported with the same message, epoch and
batch. The full ``EvalReport`` (entropy and top-probability statistics)
comes from ``evaluate``, which the pipelines call once on the trained model.

Forward passes run through ``core._forward`` and parameter gradients through
``core._param_grads``, the kernel behind the public loss and gradient API,
so a full-batch step moves the parameters by exactly ``maxent_gradient``.
Each batch takes one ln p, through ``core._log_entropies``, for its
entropy, and ``core.logit_gradient`` reuses it; label-smoothing arms build
only their own gradient. The validation set is checked once, before record
0; the per-epoch records pass it straight to ``core._forward``, or only
through the model's products (``_gemm._linear``) when they check for
divergence alone and the bounds do not settle it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._gemm import _linear
from ._streams import INIT, NOISE, SHUFFLE, derive_rng
from .core import (
    LinearSoftmaxModel,
    _check_labels,
    _checked_batch,
    _forward,
    _label_ce,
    _log_entropies,
    _param_grads,
    entropy_batch,
    logit_gradient,
    predict_proba_batch,
    smoothed_targets,
)
from .datasets import LabeledDataset
from .errors import (
    DivergenceError,
    DomainError,
    NonFiniteError,
    ShapeError,
    ValidationError,
)

OBJECTIVES = ("maxent", "ce", "lsr")
LR_KINDS = ("constant", "step", "linear")
TOP_PROB_BINS = 20

# A divergence-only record skips the validation product while every feature
# and logit is bounded below this: far enough under the float maximum
# (about 1.8e308) that no rounding of a bounded sum can overflow it.
_OVERFLOW_SAFE = 1e300


@dataclass(frozen=True)
class LrSchedule:
    """constant(base) | step(base, factor, interval_epochs) | linear(base, epochs)."""

    kind: str = "constant"
    base: float = 0.1
    factor: float = 0.5
    interval: int = 10

    def value(self, epoch: int, total_epochs: int) -> float:
        if self.kind == "constant":
            return self.base
        if self.kind == "step":
            return self.base * self.factor ** (epoch // self.interval)
        if self.kind == "linear":
            if total_epochs <= 0:
                return self.base
            return self.base * (1.0 - epoch / total_epochs)
        raise ValidationError(f"unknown lr schedule kind {self.kind!r}", field="train.lr")


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 1.0
    objective: str = "maxent"
    lsr_epsilon: float = 0.1
    lr: LrSchedule = field(default_factory=LrSchedule)
    weight_decay: float = 0.0
    batch_size: int = 32
    epochs: int = 100
    seed: int = 1
    train_feature_map: bool = False
    init_scale: float = 0.0

    def validated(self) -> "TrainConfig":
        """Self, if every field is usable; errors name the ``train.<key>`` config key."""
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}", field="train.objective")
        lr = self.lr
        if lr.kind not in LR_KINDS:
            raise ValidationError(f"unknown lr kind {lr.kind!r}", field="train.lr")
        if not (np.isfinite(lr.base) and np.isfinite(lr.factor)):
            raise ValidationError(
                f"lr base and factor must be finite, got {lr.base}, {lr.factor}", field="train.lr"
            )
        if lr.kind == "step" and lr.interval < 1:
            raise ValidationError(
                f"lr step interval must be >= 1, got {lr.interval}", field="train.lr"
            )
        for name in ("gamma", "lsr_epsilon", "weight_decay", "init_scale"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}", field=f"train.{name}")
        if self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}", field="train.gamma")
        if not 0.0 <= self.lsr_epsilon < 1.0:
            raise ValidationError(
                f"lsr_epsilon must lie in [0, 1), got {self.lsr_epsilon}", field="train.lsr_epsilon"
            )
        if self.weight_decay < 0:
            raise ValidationError(
                f"weight_decay must be >= 0, got {self.weight_decay}", field="train.weight_decay"
            )
        if self.batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {self.batch_size}", field="train.batch_size"
            )
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}", field="train.epochs")
        if self.epochs > 0:
            # every schedule is monotone in the epoch, so the last lr is the extreme one
            last = self.epochs - 1
            try:
                final_lr = lr.value(last, self.epochs)
            except OverflowError:
                final_lr = np.inf
            if not np.isfinite(final_lr):
                raise ValidationError(f"lr at epoch {last} is not finite", field="train.lr")
        return self


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_ce: float
    train_entropy: float
    val_ce: float | None
    val_accuracy: float | None
    w_l2: float
    w_inf: float
    lr: float


@dataclass(eq=False)
class TrainHistory:
    records: list[EpochRecord]

    @property
    def final(self) -> EpochRecord:
        return self.records[-1]

    def csv_rows(self) -> list[tuple]:
        return [
            (r.epoch, r.train_ce, r.train_entropy, r.val_ce, r.val_accuracy, r.w_l2, r.w_inf, r.lr)
            for r in self.records
        ]


HISTORY_CSV_HEADER = "epoch,train_ce,train_entropy,val_ce,val_acc,w_l2,w_inf,lr"


@dataclass(eq=False)
class EvalReport:
    accuracy: float
    mean_ce: float
    mean_entropy: float
    top_prob_mean: float
    top_prob_histogram: np.ndarray  # 20 counts over uniform bins on [0, 1]


def init_model(
    C: int,
    n: int,
    n_raw: int,
    init_scale: float,
    seed: int,
    with_feature_map: bool = False,
) -> LinearSoftmaxModel:
    """Uniform[-init_scale, init_scale] weights; feature map starts at identity when square."""
    if C < 2 or n < 1 or n_raw < 1:
        raise ShapeError(f"invalid dimensions C={C}, n={n}, n_raw={n_raw}")
    rng = derive_rng(seed, INIT)
    w = rng.uniform(-init_scale, init_scale, size=(C, n)) if init_scale > 0 else np.zeros((C, n))
    fm = None
    if with_feature_map or n != n_raw:
        if n == n_raw:
            fm = np.eye(n)
        elif init_scale > 0:
            fm = rng.uniform(-init_scale, init_scale, size=(n, n_raw))
        else:
            fm = np.zeros((n, n_raw))
    return LinearSoftmaxModel(w, fm)


def inject_label_noise(dataset: LabeledDataset, fraction: float, seed: int) -> LabeledDataset:
    """Corrupt floor(fraction * N) labels by a cyclic shift among the chosen positions.

    The shift offset is uniform on {1, ..., k-1}, so every selected position
    receives the label of a different selected position (values may still
    coincide when labels repeat). fraction = 0, or a selection of fewer than
    two positions, leaves the dataset unchanged.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction must lie in [0, 1], got {fraction}")
    out = dataset.copy()
    k = int(np.floor(fraction * dataset.size))
    if k < 1:
        return out
    rng = derive_rng(seed, NOISE)
    selected = rng.choice(dataset.size, size=k, replace=False)
    out.noise_mask[selected] = True
    if k >= 2:
        offset = int(rng.integers(1, k))
        out.labels[selected] = dataset.labels[np.roll(selected, -offset)]
    return out


def _logits_bounded(model: LinearSoftmaxModel, reach: np.ndarray) -> bool:
    """Whether no input within ``reach`` (max |x| per raw column) can overflow a feature or logit.

    |phi| <= |A| reach and |W phi| <= |W| (|A| reach) elementwise, so bounds
    below ``_OVERFLOW_SAFE`` prove the validation logits finite. The features
    are bounded too: a huge feature map under tiny weights overflows them
    first. Bounds that overflow (inf, or nan from 0 * inf) prove nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        features = reach if model.feature_map is None else np.abs(model.feature_map) @ reach
        if not np.maximum.reduce(features) < _OVERFLOW_SAFE:
            return False
        return bool(np.maximum.reduce(np.abs(model.weights) @ features) < _OVERFLOW_SAFE)


def train(
    model: LinearSoftmaxModel,
    train_set: LabeledDataset,
    val_set: LabeledDataset | None,
    config: TrainConfig,
    *,
    val_metrics: bool = True,
) -> tuple[LinearSoftmaxModel, TrainHistory]:
    """Run the configured number of epochs of mini-batch SGD.

    Returns a new model (inputs untouched) and the per-epoch history.
    Raises DivergenceError, tagged with epoch and batch, if the loss or the
    trained parameters stop being finite. With ``val_metrics`` false the
    records carry no validation CE or accuracy; the validation logits are
    still checked at every epoch end, so a divergence is reported alike.
    """
    config = config.validated()
    if train_set.size == 0:
        raise ShapeError("training set is empty")
    _check_labels(train_set, model.class_count)
    has_val = val_set is not None and val_set.size > 0
    if has_val:
        _check_labels(val_set, model.class_count)
    model = model.copy()
    gamma = config.gamma if config.objective == "maxent" else 0.0
    use_lsr = config.objective == "lsr"
    decay = config.weight_decay
    train_a = config.train_feature_map and model.feature_map is not None

    def record(epoch: int, train_ce: float, train_h: float, lr: float) -> EpochRecord:
        vce = vacc = None
        if has_val and val_metrics:
            p = _forward(model, val_x, val_logits)[1]
            vce = float(_label_ce(p, val_set.labels).mean())
            vacc = float((p.argmax(axis=1) == val_set.labels).mean())
        elif has_val and not _logits_bounded(model, val_reach):
            logits = _linear(model.transform(val_x), model.weights, val_logits)
            if not np.isfinite(logits).all():
                raise NonFiniteError("logits must be finite")
        return EpochRecord(epoch, train_ce, train_h, vce, vacc, model.w_l2(), model.w_inf(), lr)

    def diverged(what: str, epoch: int, batch: int, err: Exception | None = None):
        detail = "" if err is None else f": {err}"
        return DivergenceError(
            f"non-finite {what} at epoch {epoch}, batch {batch}{detail}", epoch=epoch, batch=batch
        )

    # both sets are checked for shape and finiteness once, here, so the SGD
    # steps and the per-epoch records below skip that check
    p0 = predict_proba_batch(model, train_set.features)
    ce0, h0 = _label_ce(p0, train_set.labels), entropy_batch(p0)
    val_x = _checked_batch(model, val_set.features) if has_val else None
    val_logits = np.empty((val_set.size, model.class_count)) if has_val else None
    # max |x| per raw column, the input side of every divergence-only record's bound
    val_reach = np.maximum.reduce(np.abs(val_x), axis=0) if has_val else None
    records = [record(0, float(ce0.mean()), float(h0.mean()), config.lr.value(0, config.epochs))]

    n, size = train_set.size, config.batch_size
    batch_rows = np.arange(min(n, size))
    for epoch in range(config.epochs):
        lr = config.lr.value(epoch, config.epochs)
        perm = derive_rng(config.seed, SHUFFLE, epoch).permutation(n)
        # one gather per epoch: each batch is a contiguous slice of the shuffled set
        x_epoch, y_epoch = train_set.features[perm], train_set.labels[perm]
        ce_sum = 0.0
        h_sum = 0.0
        for batch_idx, start in enumerate(range(0, n, size)):
            x_raw = x_epoch[start : start + size]
            y = y_epoch[start : start + size]
            m = y.shape[0]
            try:
                phi, p = _forward(model, x_raw)
            except NonFiniteError as err:
                raise diverged("parameters", epoch + 1, batch_idx, err) from err
            terms = _log_entropies(p)
            # the batch means are these sums over m, as np.mean takes them; the
            # label entries of ln max(p, PROB_FLOOR) are what _label_ce negates
            batch_ce = float(np.add.reduce(-terms[0][batch_rows[:m], y]))
            batch_h = float(np.add.reduce(terms[1]))
            if not math.isfinite(batch_ce / m - gamma * (batch_h / m)):
                raise diverged("loss", epoch + 1, batch_idx)
            ce_sum += batch_ce
            h_sum += batch_h
            if use_lsr:
                g = p - smoothed_targets(y, model.class_count, config.lsr_epsilon)
            else:
                g = logit_gradient(p, y, gamma, terms=terms)
            grad_w, grad_a = _param_grads(model, x_raw, phi, g, train_a)
            # without decay the sum grad + 0 * param is grad: a finite parameter
            # moves by the same bits either way
            if train_a:
                if decay:
                    grad_a += decay * model.feature_map
                model.feature_map -= lr * grad_a
            if decay:
                grad_w += decay * model.weights
            model.weights -= lr * grad_w
        # the epoch's last update may have overflowed: without a validation
        # set no forward pass would see it before the model is returned
        if not np.isfinite(model.weights).all() or (
            train_a and not np.isfinite(model.feature_map).all()
        ):
            raise diverged("parameters", epoch + 1, batch_idx)
        try:
            records.append(record(epoch + 1, ce_sum / n, h_sum / n, lr))
        except NonFiniteError as err:  # finite parameters whose logits overflow
            raise diverged("parameters", epoch + 1, batch_idx, err) from err
    return model, TrainHistory(records)


def evaluate(model: LinearSoftmaxModel, dataset: LabeledDataset) -> EvalReport:
    """Accuracy (argmax, ties to the lowest class), mean CE and entropy, top-prob stats."""
    _check_labels(dataset, model.class_count)
    p = predict_proba_batch(model, dataset.features)
    top = p.max(axis=1)
    hist, _ = np.histogram(top, bins=TOP_PROB_BINS, range=(0.0, 1.0))
    return EvalReport(
        accuracy=float((p.argmax(axis=1) == dataset.labels).mean()),
        mean_ce=float(_label_ce(p, dataset.labels).mean()),
        mean_entropy=float(entropy_batch(p).mean()),
        top_prob_mean=float(top.mean()),
        top_prob_histogram=hist,
    )
