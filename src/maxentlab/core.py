"""Linear softmax classifier, entropy functionals, and training objectives.

The model scores a raw input x through an optional linear feature map A and
a class-weight matrix W:

    phi = A x          (phi = x when no feature map is attached)
    p   = softmax(W phi)

Natural logarithms throughout, so entropies live in [0, ln C]. The training
objective is per-sample cross-entropy from the one-hot label minus gamma
times the prediction entropy, averaged over the batch; gamma = 0 is plain
cross-entropy and takes the same code path bit for bit. The label-smoothing
baseline scores the same probabilities against targets mixed with the
uniform distribution (``smoothed_targets``); its logit gradient is p minus
those targets.

The analytic logit gradient of the combined objective is

    g_j = (p_j - y_j) + gamma * p_j * (ln p_j + H(p))

with H the entropy of p; parameter gradients follow by the chain rule and
are checked against central finite differences in the test suite. One
SGD batch takes a single ln p of its probabilities (floored at PROB_FLOOR,
in ``_log_entropies``): H is -sum p ln p of it, and ``logit_gradient``
reuses both; the cross-entropy logs only the label probabilities.

Models are immutable during evaluation; every function here is pure, and
reductions use numpy's fixed pairwise summation so results do not depend on
thread count. The forward pass normalises its logits in place (shift, exp
and divide in one array, which a trainer may reuse across epochs), and the
Monte-Carlo kernel reuses one set of block buffers per call; both keep every
float operation and its order, so results are the same bits as with fresh
temporaries. Every product of inputs with a weight matrix (features, logits
and Monte-Carlo logit blocks) goes through one kernel, ``_gemm._linear``,
which writes it in row or column slices small enough that OpenBLAS runs
each on the calling thread, instead of waking a second BLAS thread that
mostly busy-waits. Every output is still the same dot product, so the bits do not
move either (shapes for which OpenBLAS would round a split differently stay
whole). Threads are therefore the callers' to spend, for instance on
parallel training seeds or shares of bound trials.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._gemm import _linear
from ._streams import ENTROPY_MC, derive_rng
from .datasets import LabeledDataset
from .errors import DomainError, NonFiniteError, ShapeError
from .mixtures import GaussianMixture, _pushforward, spectral_factor, validate

# Probabilities are floored at this value inside logarithms; exp(-690) level
# underflow would otherwise produce -inf * 0 artifacts.
PROB_FLOOR = 1e-300

# Fewest Monte-Carlo draws ``expected_entropy_mc`` takes.
MIN_MC_DRAWS = 100


@dataclass(eq=False)
class LinearSoftmaxModel:
    """Classifier weights (C, n) plus an optional linear feature map (n, n_raw).

    ``feature_map is None`` means the identity map (raw inputs are already
    features, n_raw == n).
    """

    weights: np.ndarray
    feature_map: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be (C, n), got shape {self.weights.shape}")
        if self.weights.shape[0] < 2:
            raise ShapeError("need at least 2 classes")
        if self.feature_map is not None:
            self.feature_map = np.asarray(self.feature_map, dtype=np.float64)
            if self.feature_map.ndim != 2 or self.feature_map.shape[0] != self.weights.shape[1]:
                raise ShapeError(
                    f"feature map must be ({self.weights.shape[1]}, n_raw), "
                    f"got {None if self.feature_map is None else self.feature_map.shape}"
                )
        if not np.isfinite(self.weights).all():
            raise NonFiniteError("model weights must be finite")
        if self.feature_map is not None and not np.isfinite(self.feature_map).all():
            raise NonFiniteError("feature map must be finite")

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def raw_dim(self) -> int:
        return self.feature_dim if self.feature_map is None else self.feature_map.shape[1]

    def w_l2(self) -> float:
        """sqrt(sum_i ||w_i||^2), the Frobenius norm of W."""
        with np.errstate(over="ignore"):
            return _norm_without_overflow(_frobenius, self.weights)

    def w_inf(self) -> float:
        """max_i ||w_i||_2 over class rows."""
        with np.errstate(over="ignore"):
            return _norm_without_overflow(_max_row_norm, self.weights)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Apply the feature map to a batch of raw rows."""
        if self.feature_map is None:
            return raw
        return _linear(raw, self.feature_map)

    def copy(self) -> "LinearSoftmaxModel":
        fm = None if self.feature_map is None else self.feature_map.copy()
        return LinearSoftmaxModel(self.weights.copy(), fm)


def _frobenius(w: np.ndarray) -> float:
    return float(np.linalg.norm(w))


def _max_row_norm(w: np.ndarray) -> float:
    return float(np.sqrt((w**2).sum(axis=1).max()))


def _norm_without_overflow(norm, w: np.ndarray) -> float:
    """``norm(w)``, or m * norm(w / m) with m = max |w| where the squares of ``w`` overflow.

    The caller holds ``np.errstate(over="ignore")``: the model's norm methods
    enter one, and the trainer's records run inside its loop's. On a model's
    small weight matrix that costs about as much as finding max |w| would, so
    no test of max |w| comes first.
    """
    value = norm(w)
    if math.isinf(value):
        m = float(np.abs(w).max())
        value = m * norm(w / m)
    return value


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of a single logit vector (max subtracted before exp)."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NonFiniteError("logits must be finite")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_batch(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a logit batch; ``logits`` itself is left untouched."""
    return _softmax_rows(np.array(logits, dtype=np.float64))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a float64 array the caller owns, computed in place in ``z``."""
    if not np.isfinite(z).all():
        raise NonFiniteError("logits must be finite")
    # the ufunc reductions ``z.max`` and ``z.sum`` call, without their wrappers
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def predict_proba(model: LinearSoftmaxModel, x: np.ndarray) -> np.ndarray:
    """Class probability vector for one raw input."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (model.raw_dim,):
        raise ShapeError(f"input must have shape ({model.raw_dim},), got {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteError("input contains non-finite values")
    phi = v if model.feature_map is None else model.feature_map @ v
    return softmax(model.weights @ phi)


def predict_proba_batch(model: LinearSoftmaxModel, raw: np.ndarray) -> np.ndarray:
    return _forward(model.weights, model.feature_map, _checked_batch(model, raw))[1]


def _checked_batch(model: LinearSoftmaxModel, raw: np.ndarray) -> np.ndarray:
    """``raw`` as float64 rows, checked against the model's input width and for finiteness."""
    x = np.asarray(raw, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.raw_dim:
        raise ShapeError(f"batch must be (N, {model.raw_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteError("batch contains non-finite values")
    return x


def _forward(
    weights: np.ndarray,
    feature_map: np.ndarray | None,
    raw: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(features, probabilities) of a checked raw batch: the one forward pass.

    ``weights`` (C, n) and ``feature_map`` (n, n_raw, or None for the
    identity) are a model's, or (K, C, n) and (K, n, n_raw) stacks of K
    models' parameters, which give (K, N, n) features and (K, N, C)
    probabilities, each model's with the bits of its own pass. The caller
    checks the batch's shape and finiteness; non-finite logits (diverged
    parameters) still raise NonFiniteError. The logits are written into
    ``out``, an array of the probabilities' shape that the caller owns (a
    fresh one when None), and normalised there in place, so ``out`` becomes
    the probabilities.
    """
    phi = raw if feature_map is None else _linear(raw, feature_map)
    return phi, _softmax_rows(_linear(phi, weights, out))


def _label_ce(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy -ln p_y of probability rows against their labels."""
    return -np.log(np.maximum(p[np.arange(labels.shape[0]), labels], PROB_FLOOR))


def entropy(p: np.ndarray) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0, clamped to [0, ln C]."""
    q = np.asarray(p, dtype=np.float64)
    terms = np.where(q > 0.0, q * np.log(np.maximum(q, PROB_FLOOR)), 0.0)
    h = -float(terms.sum())
    return min(max(h, 0.0), float(np.log(q.shape[-1])))


def entropy_batch(p: np.ndarray) -> np.ndarray:
    return _log_entropies(np.asarray(p, dtype=np.float64))[1]


def _log_entropies(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln max(p, PROB_FLOOR), -sum p ln p per row clamped to [0, ln C]) of float64 rows.

    The one ln p an SGD batch takes: the entropy is computed from it here,
    and ``logit_gradient`` reuses both. Rows lie along the last axis, so a
    (K, N, C) stack of batches gives (K, N) entropies.
    """
    log_p = np.maximum(p, PROB_FLOOR)
    np.log(log_p, out=log_p)
    # p * log_p is exactly 0 at p = 0, matching the convention 0 ln 0 = 0
    h = -np.add.reduce(p * log_p, axis=-1)
    # the clip method is np.clip's ufunc without np.clip's wrapper
    return log_p, h.clip(0.0, _log_class_count(p.shape[-1]))


@functools.cache
def _log_class_count(classes: int) -> float:
    """ln C, the largest entropy, as numpy's log gives it."""
    return float(np.log(classes))


def expected_entropy_mc(
    model: LinearSoftmaxModel,
    mixture: GaussianMixture,
    draws: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the expected prediction entropy under the mixture.

    Returns (estimate, standard error of the mean). The draws come from a
    stream derived from ``seed`` and are independent of any dataset stream.
    Prediction entropy depends on an input only through its logits V x, with
    effective weights V = W A, and the logits of a Gaussian mixture are the
    Gaussian mixture with means V mu_c and covariances V Sigma_c V' in R^C.
    So the draws are taken there directly: no feature vector is formed, and
    each draw costs min(C, n) normals instead of n (see ``_logit_entropies``).
    """
    if draws < MIN_MC_DRAWS:
        raise DomainError(f"draws must be >= {MIN_MC_DRAWS}, got {draws}")
    validate(mixture)
    h = _sample_entropies(model, mixture, draws, derive_rng(seed, ENTROPY_MC))
    low, high = float(h.min()), float(h.max())
    return _clamped_estimate(h.mean(), low, high, float(h.std(ddof=1)), draws)


def _shared_expected_entropies(
    models: list[LinearSoftmaxModel],
    mixture: GaussianMixture,
    draws: int,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """``expected_entropy_mc``'s (estimate, standard error) for each model, from one set of draws.

    Every model maps the same component counts and standard normals of ``rng``
    (common random numbers), so each estimate has the law and standard error
    of an estimate from fresh draws, but the errors of different models are
    correlated. The mixture must be validated. No model's entropies are held:
    each block is reduced at once into the model's count, mean and sum of
    squared deviations (combined across blocks as Chan et al. do), minimum
    and maximum.
    """
    stats = [[0, 0.0, 0.0, math.inf, -math.inf] for _ in models]

    def reduce(k: int, _start: int, h: np.ndarray) -> None:
        acc = stats[k]
        acc[3] = min(acc[3], float(np.minimum.reduce(h)))
        acc[4] = max(acc[4], float(np.maximum.reduce(h)))
        size = h.shape[0]
        mean = float(np.add.reduce(h)) / size
        h -= mean
        m2 = float(np.add.reduce(h * h))
        total = acc[0] + size
        delta = mean - acc[1]
        acc[1] += delta * (size / total)
        acc[2] += m2 + delta * delta * (acc[0] * (size / total))
        acc[0] = total

    _logit_entropies(models, mixture, draws, rng, reduce)
    return [
        _clamped_estimate(mean, low, high, math.sqrt(m2 / (draws - 1)), draws)
        for _, mean, m2, low, high in stats
    ]


def _clamped_estimate(
    mean: float, low: float, high: float, std: float, draws: int
) -> tuple[float, float]:
    """(estimate, standard error) of a sample from its mean, range and standard deviation.

    The mean of a sample lies in its range; clamping removes summation
    round-off, so a constant integrand (low == high) is estimated exactly,
    with zero standard error.
    """
    se = 0.0 if low == high else std / math.sqrt(draws)
    return float(min(max(mean, low), high)), se


# Most draws per logit block: a block's temporaries are (C, _BLOCK) arrays, so
# the working set stays a few MB whatever the draw count and component weights.
_BLOCK = 16384


def _sample_entropies(
    model: LinearSoftmaxModel, mixture: GaussianMixture, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Entropies of ``count`` i.i.d. draws from a validated mixture, grouped by component."""
    h = np.empty(count, dtype=np.float64)

    def fill(_: int, start: int, block: np.ndarray) -> None:
        h[start : start + block.shape[0]] = block

    _logit_entropies([model], mixture, count, rng, fill)
    return h


def _logit_entropies(
    models: list[LinearSoftmaxModel],
    mixture: GaussianMixture,
    count: int,
    rng: np.random.Generator,
    sink: Callable[[int, int, np.ndarray], None],
) -> None:
    """Prediction entropies of ``count`` i.i.d. draws from a validated mixture, for every model.

    Each model's mixture is pushed forward through its V = W A, component
    counts come from one multinomial draw, and each component's draws are
    made in blocks: a (k, m) block of standard normals, k = min(C, n), mapped
    through the model's top-k spectral factor of V Sigma_c V' (whose rank is
    at most k) and shifted by V mu_c gives m logit columns, reduced to
    entropies at once. All models map the same counts and blocks, so their
    V must share one shape. ``sink(k, start, h)`` receives model k's
    entropies of draws start, start + 1, ... of a block, in draw order,
    grouped by component, which leaves their mean and spread unchanged; ``h``
    is the sink's to keep or modify. A model's entropies depend only on the
    model and the stream, never on the other models.

    Each block's product is written in column slices (``_linear``): one
    (10 x 10) @ (10 x 16,384) product is large enough for OpenBLAS to split
    over two threads, the second of which mostly spins, while seven slices of
    about 2,340 columns each stay on the calling thread. The normals are drawn
    as whole blocks of the stream, and a column's logits are the same
    rank-term dot product in any slice, so the entropies are the same bits as
    with one product per block.
    """
    pushed = [_logit_mixture(model, mixture) for model in models]
    shapes = {factors.shape for _, factors in pushed}
    if len(shapes) > 1:
        raise ShapeError(f"models that share draws need one logit shape, got {sorted(shapes)}")
    classes, rank = pushed[0][1].shape[1:]
    counts = rng.multinomial(count, mixture.weights / mixture.weights.sum())
    # flat buffers shared by every block: a block of m columns views the first
    # rows * m entries, so each view is C-contiguous, as ``standard_normal``
    # needs of its ``out``
    width = min(_BLOCK, int(counts.max()))
    normals = np.empty(rank * width)
    logits, exps = np.empty(classes * width), np.empty(classes * width)
    start = 0
    for component, total in enumerate(counts):
        for offset in range(0, total, _BLOCK):
            size = min(_BLOCK, total - offset)
            z = rng.standard_normal(out=normals[: rank * size].reshape(rank, size))
            out = logits[: classes * size].reshape(classes, size)
            e = exps[: classes * size].reshape(classes, size)
            for k, (means, factors) in enumerate(pushed):
                block = _linear(z, factors[component], out, columns=True)
                block += means[component][:, None]
                sink(k, start, _column_entropies(block, e))
            start += size


def _logit_mixture(
    model: LinearSoftmaxModel, mixture: GaussianMixture
) -> tuple[np.ndarray, np.ndarray]:
    """(means V mu_c, top-min(C, n) spectral factors of V Sigma_c V') of the model's logits."""
    v = model.weights if model.feature_map is None else model.weights @ model.feature_map
    if v.shape[1] != mixture.dim:
        raise ShapeError(f"mixture dim {mixture.dim} does not match model input {v.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported just below
        pushed = _pushforward(mixture, v)
    if not (np.isfinite(pushed.means).all() and np.isfinite(pushed.covariances).all()):
        raise NonFiniteError("the mixture's logit means or covariances overflow under the weights")
    return pushed.means, spectral_factor(pushed.covariances)[:, :, -min(v.shape) :]


def _column_entropies(logits: np.ndarray, e: np.ndarray) -> np.ndarray:
    """H(softmax(z)) = logsumexp(z) - sum p * z for each column z of a (C, m) block.

    Works in place on ``logits`` and uses ``e``, an array of the same shape,
    for exp(z) and then exp(z) * z. Reductions run over axis 0, which numpy
    vectorizes across the columns; over short rows they would cost more than
    the exp.
    """
    logits -= logits.max(axis=0)
    np.exp(logits, out=e)
    total = e.sum(axis=0)
    e *= logits
    h = np.log(total) - e.sum(axis=0) / total
    return np.clip(h, 0.0, float(np.log(logits.shape[0])))


def _check_labels(dataset: LabeledDataset, class_count: int) -> None:
    if dataset.size == 0:
        raise ShapeError("batch is empty")
    if int(dataset.labels.max(initial=0)) >= class_count:
        raise ShapeError(
            f"label {int(dataset.labels.max())} out of range for {class_count} classes"
        )


def _loss_terms(
    model: LinearSoftmaxModel, features: np.ndarray, labels: np.ndarray, gamma: float
) -> np.ndarray:
    p = predict_proba_batch(model, features)
    ce = _label_ce(p, labels)
    if gamma == 0.0:
        return ce
    return ce - gamma * entropy_batch(p)


def maxent_loss(model: LinearSoftmaxModel, batch: LabeledDataset, gamma: float) -> float:
    """Mean over the batch of [-ln p_y(x) - gamma H(p(x))]."""
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    _check_labels(batch, model.class_count)
    value = float(_loss_terms(model, batch.features, batch.labels, gamma).mean())
    if not np.isfinite(value):
        raise NonFiniteError(f"loss is not finite: {value}")
    return value


def smoothed_targets(labels: np.ndarray, class_count: int, epsilon: float) -> np.ndarray:
    onehot = np.zeros((labels.shape[0], class_count), dtype=np.float64)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    if epsilon == 0.0:
        return onehot
    return (1.0 - epsilon) * onehot + epsilon / class_count


def logit_gradient(
    p: np.ndarray,
    labels: np.ndarray,
    gamma: float,
    *,
    terms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-sample gradient of the objective with respect to the logits.

    g = (p - y) + (gamma p)(ln p + H). ``terms`` is ``_log_entropies(p)``
    when the caller already holds it, as the SGD step does, so the batch's
    ln p is taken once; it is read, not modified. p - y subtracts the labels'
    rows of a cached identity matrix: p - 0.0 is p, and the label entry is
    the one subtraction p - 1.0. A (K, N, C) stack of probabilities
    broadcasts the (N, C) one-hot rows over its K batches, and takes one
    gamma per batch as a (K, 1, 1) array; a batch whose gamma is 0 there adds
    (0 p)(ln p + H) = +-0 to entries that are never -0, which leaves their
    bits alone.
    """
    g = p - _identity(p.shape[-1])[labels]
    if isinstance(gamma, np.ndarray) or gamma != 0.0:
        log_p, h = _log_entropies(p) if terms is None else terms
        g += gamma * p * (log_p + h[..., None])
    return g


@functools.cache
def _identity(classes: int) -> np.ndarray:
    """The read-only C x C identity matrix, whose rows are the one-hot labels."""
    eye = np.eye(classes)
    eye.flags.writeable = False
    return eye


def maxent_gradient(
    model: LinearSoftmaxModel, batch: LabeledDataset, gamma: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """Batch-mean gradients (grad_W, grad_A); grad_A is None without a feature map."""
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    _check_labels(batch, model.class_count)
    x = _checked_batch(model, batch.features)
    phi, p = _forward(model.weights, model.feature_map, x)
    g = logit_gradient(p, batch.labels, gamma)
    grad_w, grad_a = _param_grads(model.weights, model.feature_map, x, phi, g)
    if not np.isfinite(grad_w).all() or (grad_a is not None and not np.isfinite(grad_a).all()):
        raise NonFiniteError("gradient is not finite")
    return grad_w, grad_a


def _param_grads(
    weights: np.ndarray,
    feature_map: np.ndarray | None,
    raw: np.ndarray,
    phi: np.ndarray,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Batch-mean (grad_W, grad_A) from per-sample logit gradients ``g``.

    ``phi`` holds the features of ``raw`` under the parameters, which may be
    stacks as in ``_forward`` (with ``g`` of shape (K, N, C)). grad_A is None
    when ``feature_map`` is: without a map, or when the caller freezes it.
    """
    scale = 1.0 / raw.shape[0]
    grad_w = scale * (g.swapaxes(-1, -2) @ phi)
    grad_a = None
    if feature_map is not None:
        grad_a = scale * ((g @ weights).swapaxes(-1, -2) @ raw)
    return grad_w, grad_a
