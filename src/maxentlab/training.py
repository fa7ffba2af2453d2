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
CE and accuracy, taken at the end of each epoch from the one validation
forward pass, ``core._forward`` over the full validation set, which every
record of a run writes and normalises in the same logit buffer. The set is
checked once, before record 0.

With ``val_metrics=False`` a record leaves both fields None and only checks
that the validation logits are finite, the divergence check the metrics'
softmax makes: only the pipelines in ``figures.HISTORY_PIPELINES`` write
these curves, so the other arms skip the CE and argmax. That check first
bounds the logits: with r = max |x| per raw column of the validation set,
taken once per run, every feature is at most |A| r and every logit at most
|W| (|A| r). While both bounds stay below 1e300 (``_OVERFLOW_SAFE``) no
logit can overflow, and the record skips the forward pass, a few hundred
multiply-adds instead of one pass over the set; otherwise it takes that
pass, whose softmax raises on non-finite logits, so a divergence is
reported with the same message, epoch and batch. The full ``EvalReport``
(entropy and top-probability statistics) comes from ``evaluate``, which the
pipelines call once on the trained model.

Forward passes run through ``core._forward`` and parameter gradients through
``core._param_grads``, the kernel behind the public loss and gradient API,
so a full-batch step moves the parameters by exactly ``maxent_gradient``.
Each batch takes one ln p, through ``core._log_entropies``, for its
entropy, and ``core.logit_gradient`` reuses it; label-smoothing arms build
only their own gradient. A batch's CE sum reads its label entries of ln p
with one flat gather, at offsets i * C + y that each epoch computes once for
all its batches.

``train_stack`` trains K arms that share a training set and every config
field but gamma in one loop, and ``train`` is its one-arm case. Each batch
is taken once for all arms: their weights and feature maps travel as
(K, C, n) and (K, n, n_raw) stacks through the same kernels, whose 3-D
products make each arm's product its own BLAS call, and whose reductions run
along each arm's own rows. So every arm keeps the bits of its solo run. A
single arm runs on its model's 2-D arrays: as a (1, C, n) stack, a
``fine_sweep.cfg`` arm took 5-14% longer for the same bits (fastest of 15
runs, seven alternating pairs on 2 vCPUs). The loop stops at the first loss
or parameter that is not finite, whichever arm it belongs to. The forward pass
finds the probabilities finite, so a batch's CE is at most -ln PROB_FLOOR a
row and its entropy lies in [0, ln C]: its loss can only overflow once some
arm's gamma ln C reaches ``_OVERFLOW_SAFE``, and only such runs check it
per batch. A lone arm raises that DivergenceError; a stack then trains its
arms again alone, in order, from their untouched inputs, and raises the
first solo error, so the message, epoch and batch are those of the arm's
solo run. Only runs that fail anyway pay for the replay.
The loop checks finiteness itself, so it runs with numpy's overflow and
invalid-value warnings off (the epoch records' norms and logit bounds run
inside that too): a diverging arm is reported by its DivergenceError alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ._streams import INIT, MAX_UNIFORM_SCALE, NOISE, SHUFFLE, derive_rng
from .core import (
    LinearSoftmaxModel,
    _check_labels,
    _checked_batch,
    _forward,
    _frobenius,
    _label_ce,
    _log_class_count,
    _log_entropies,
    _max_row_norm,
    _norm_without_overflow,
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
        if self.init_scale > MAX_UNIFORM_SCALE:
            raise ValidationError(
                f"train.init_scale must be <= {MAX_UNIFORM_SCALE:g}, got {self.init_scale}",
                field="train.init_scale",
            )
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
        return [dataclasses.astuple(r) for r in self.records]


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
    first. Bounds that overflow (inf, or nan from 0 * inf) prove nothing; the
    caller, the SGD loop, holds the ``np.errstate`` that keeps them quiet.
    """
    features = reach if model.feature_map is None else np.abs(model.feature_map) @ reach
    if not np.maximum.reduce(features) < _OVERFLOW_SAFE:
        return False
    return bool(np.maximum.reduce(np.abs(model.weights) @ features) < _OVERFLOW_SAFE)


def _diverged(what: str, epoch: int, batch: int, err: Exception | None = None) -> DivergenceError:
    detail = "" if err is None else f": {err}"
    message = f"non-finite {what} at epoch {epoch}, batch {batch}{detail}"
    return DivergenceError(message, epoch=epoch, batch=batch, arm=0)


def _stacked(models: list[LinearSoftmaxModel]) -> tuple[np.ndarray, np.ndarray | None]:
    """The (weights, feature map) that one SGD loop updates in place for ``models``.

    A lone model trains on its own 2-D arrays. K > 1 models train on
    (K, C, n) weights and (K, n, n_raw) feature maps whose rows the models'
    arrays then view, so an update of the stack updates every model.
    """
    if len(models) == 1:
        return models[0].weights, models[0].feature_map
    weights = np.stack([m.weights for m in models])
    feature_map = None
    if models[0].feature_map is not None:
        feature_map = np.stack([m.feature_map for m in models])
    for k, model in enumerate(models):
        model.weights = weights[k]
        if feature_map is not None:
            model.feature_map = feature_map[k]
    return weights, feature_map


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
    return train_stack([model], train_set, val_set, [config], val_metrics=val_metrics)[0]


def train_stack(
    models: list[LinearSoftmaxModel],
    train_set: LabeledDataset,
    val_set: LabeledDataset | None,
    configs: list[TrainConfig],
    *,
    val_metrics: bool = True,
) -> list[tuple[LinearSoftmaxModel, TrainHistory]]:
    """``train`` for K arms in one SGD loop: each shuffled batch is taken once for all of them.

    ``configs[k]`` trains ``models[k]``. The arms share ``train_set`` and
    every ``TrainConfig`` field but ``gamma``, and their models share shapes.
    Returns each arm's (model, history), in order, bit for bit what ``train``
    returns for that arm alone. Every arm's inputs are checked before any
    trains. The loss of every batch is checked only when some arm's
    gamma ln C is not below ``_OVERFLOW_SAFE``; below it no loss can
    overflow. If any arm diverges, the stack stops there and the arms are
    trained again alone, in order, from their untouched inputs; the first
    solo DivergenceError is raised, with its index as ``arm``, so the error
    is the one the arms would raise trained one after the other.
    """
    if not models or len(models) != len(configs):
        raise ShapeError(f"need one config per model, got {len(models)} and {len(configs)}")
    configs = [c.validated() for c in configs]
    config = configs[0]
    if any(dataclasses.replace(c, gamma=config.gamma) != config for c in configs):
        raise ValidationError("stacked arms must share every train config field but gamma")
    shapes = {
        (m.weights.shape, None if m.feature_map is None else m.feature_map.shape) for m in models
    }
    if len(shapes) > 1:
        raise ShapeError(f"stacked models must share their shapes, got {sorted(shapes, key=str)}")
    if train_set.size == 0:
        raise ShapeError("training set is empty")
    _check_labels(train_set, models[0].class_count)
    if val_set is not None and val_set.size > 0:
        _check_labels(val_set, models[0].class_count)
    # the loop checks finiteness itself, so a diverging arm's overflow is no warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _sgd(models, train_set, val_set, configs, val_metrics)
        except DivergenceError as stacked:
            if len(models) == 1:
                raise
            # every stacked arm has the bits of its solo run, so one of these raises
            for k, (model, arm_config) in enumerate(zip(models, configs)):
                try:
                    _sgd([model], train_set, val_set, [arm_config], val_metrics)
                except DivergenceError as err:
                    err.arm = k
                    raise err from None
            raise stacked


def _sgd(
    models: list[LinearSoftmaxModel],
    train_set: LabeledDataset,
    val_set: LabeledDataset | None,
    configs: list[TrainConfig],
    val_metrics: bool,
) -> list[tuple[LinearSoftmaxModel, TrainHistory]]:
    """``train_stack``'s SGD loop on copies of checked inputs; raises at the first divergence."""
    models = [m.copy() for m in models]
    model, config = models[0], configs[0]
    has_val = val_set is not None and val_set.size > 0
    gammas = [c.gamma if c.objective == "maxent" else 0.0 for c in configs]
    use_lsr = config.objective == "lsr"
    decay = config.weight_decay
    train_a = config.train_feature_map and model.feature_map is not None

    def record(arm: LinearSoftmaxModel, epoch: int, train_ce: float, train_h: float, lr: float):
        vce = vacc = None
        if has_val and (val_metrics or not _logits_bounded(arm, val_reach)):
            p = _forward(arm.weights, arm.feature_map, val_x, val_logits)[1]
            if val_metrics:
                vce = float(_label_ce(p, val_set.labels).mean())
                vacc = float((p.argmax(axis=1) == val_set.labels).mean())
        # the model's w_l2 and w_inf, inside this loop's np.errstate
        w_l2 = _norm_without_overflow(_frobenius, arm.weights)
        w_inf = _norm_without_overflow(_max_row_norm, arm.weights)
        return EpochRecord(epoch, train_ce, train_h, vce, vacc, w_l2, w_inf, lr)

    # both sets are checked for shape and finiteness once, here, so the SGD
    # steps and the per-epoch records below skip that check
    starts = []
    for m in models:
        p0 = predict_proba_batch(m, train_set.features)
        ce0, h0 = _label_ce(p0, train_set.labels), entropy_batch(p0)
        starts.append((float(ce0.mean()), float(h0.mean())))
    val_x = _checked_batch(model, val_set.features) if has_val else None
    val_logits = np.empty((val_set.size, model.class_count)) if has_val else None
    # max |x| per raw column, the input side of every divergence-only record's bound
    val_reach = np.maximum.reduce(np.abs(val_x), axis=0) if has_val else None
    lr0 = config.lr.value(0, config.epochs)
    histories = [[record(m, 0, ce0, h0, lr0)] for m, (ce0, h0) in zip(models, starts)]

    weights, feature_map = _stacked(models)
    # one gamma per arm for the loss; a stack's gradient takes them as (K, 1, 1)
    if len(models) == 1:
        gamma = loss_gamma = gammas[0]
    else:
        loss_gamma = np.array(gammas)
        gamma = loss_gamma[:, None, None] if any(gammas) else 0.0
    # the loss can only overflow once gamma ln C does (see the module docstring)
    check_loss = not max(gammas) * _log_class_count(model.class_count) < _OVERFLOW_SAFE
    n, size = train_set.size, config.batch_size
    # ln p of a batch flattened to its m * C entries (one row of them per arm):
    # row i's label entry sits at i * C + y
    flat_shape = (-1,) if len(models) == 1 else (len(models), -1)
    slots = np.arange(n) % size * model.class_count
    for epoch in range(config.epochs):
        lr = config.lr.value(epoch, config.epochs)
        perm = derive_rng(config.seed, SHUFFLE, epoch).permutation(n)
        # one gather per epoch: each batch is a contiguous slice of the shuffled set
        x_epoch, y_epoch = train_set.features[perm], train_set.labels[perm]
        label_entries = slots + y_epoch
        ce_sum = h_sum = 0.0  # per-arm sums of the batch sums: scalars alone, (K,) stacked
        for batch_idx, start in enumerate(range(0, n, size)):
            x_raw = x_epoch[start : start + size]
            y = y_epoch[start : start + size]
            m = y.shape[0]
            try:
                phi, p = _forward(weights, feature_map, x_raw)
            except NonFiniteError as err:
                raise _diverged("parameters", epoch + 1, batch_idx, err) from None
            terms = _log_entropies(p)
            # the batch means are these sums over m, as np.mean takes them. The
            # take gives each arm one C-contiguous row of its label entries of
            # ln max(p, PROB_FLOOR), so a stacked arm's sum adds in its solo
            # order. Minus that sum is the CE sum bit for bit (rounding is
            # symmetric under negation), so the epoch's CE subtracts it.
            entries = label_entries[start : start + size]
            log_py = np.add.reduce(terms[0].reshape(flat_shape).take(entries, axis=-1), axis=-1)
            h = np.add.reduce(terms[1], axis=-1)
            if check_loss and not np.isfinite(-log_py / m - loss_gamma * (h / m)).all():
                raise _diverged("loss", epoch + 1, batch_idx)
            ce_sum -= log_py
            h_sum += h
            if use_lsr:
                g = p - smoothed_targets(y, model.class_count, config.lsr_epsilon)
            else:
                g = logit_gradient(p, y, gamma, terms=terms)
            grad_w, grad_a = _param_grads(weights, feature_map if train_a else None, x_raw, phi, g)
            # without decay the sum grad + 0 * param is grad: a finite parameter
            # moves by the same bits either way
            if train_a:
                if decay:
                    grad_a += decay * feature_map
                feature_map -= lr * grad_a
            if decay:
                grad_w += decay * weights
            weights -= lr * grad_w
        train_ce = np.atleast_1d(ce_sum / n).tolist()
        train_h = np.atleast_1d(h_sum / n).tolist()
        for arm, history, ce_k, h_k in zip(models, histories, train_ce, train_h):
            # the epoch's last update may have overflowed: without a validation
            # set no forward pass would see it before the model is returned
            if not np.isfinite(arm.weights).all() or (
                train_a and not np.isfinite(arm.feature_map).all()
            ):
                raise _diverged("parameters", epoch + 1, batch_idx)
            try:
                history.append(record(arm, epoch + 1, ce_k, h_k, lr))
            except NonFiniteError as err:  # finite parameters whose logits overflow
                raise _diverged("parameters", epoch + 1, batch_idx, err) from None
    return [(m, TrainHistory(records)) for m, records in zip(models, histories)]


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
