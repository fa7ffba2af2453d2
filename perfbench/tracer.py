"""Span tracing of maxentlab from the outside, and the per-layer metrics.

``Tracer.install`` wraps the public functions of the traced modules, and
``ArtifactSession.write_text``/``finish``, on every name under which
maxentlab code looks them up: ``training.predict_proba_batch`` and
``core.predict_proba_batch`` get the same wrapper, so calls through either
binding are seen. Each call becomes one span (id, parent id, name, thread,
start, end, counts). The span stack is thread-local, so arms running in a
thread pool nest under their own thread's spans, never under a span of a
sibling arm. Spans stay in memory until ``write``; ``restore`` puts every
wrapped attribute back.

``layer_metrics`` turns a list of spans into the per-layer metrics named in
``LAYER_METRICS``. A layer's self time is its span time minus the time of
its direct child spans (children in one thread nest strictly).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "maxentlab"
TRACED_MODULES = (
    "configio",
    "fixtures",
    "mixtures",
    "core",
    "training",
    "diversity",
    "bounds",
    "figures",
    "manifest",
    "csvio",
    "datasets",
    "_streams",
)
TRACED_METHODS = (("manifest", "ArtifactSession", ("write_text", "finish")),)


def _layer(module_name: str) -> str:
    # "_streams" becomes "streams": benchmark metric names start with a letter
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mixture_key(mixture) -> str:
    h = hashlib.sha1()
    for a in (mixture.weights, mixture.means, mixture.covariances):
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _sample_counts(args, kwargs, result):
    count = int(_arg(args, kwargs, 1, "count"))
    seed = int(_arg(args, kwargs, 2, "seed"))
    return {"rows": count, "draw": f"{_mixture_key(_arg(args, kwargs, 0, 'mixture'))}:{count}:{seed}"}


def _train_counts(args, kwargs, result):
    train_set = _arg(args, kwargs, 1, "train_set")
    config = _arg(args, kwargs, 3, "config")
    return {"steps": config.epochs * math.ceil(train_set.size / config.batch_size)}


def _verify_counts(args, kwargs, result):
    return {"trials": result.trials, "applicable": len(result.rows)}


# Counts taken from a call's arguments or result, per span name.
COUNTERS = {
    "mixtures.sample": _sample_counts,
    "core.predict_proba_batch": lambda a, k, r: {"rows": len(_arg(a, k, 1, "raw"))},
    "core.expected_entropy_mc": lambda a, k, r: {"draws": int(_arg(a, k, 2, "draws"))},
    "training.train": _train_counts,
    "training.evaluate": lambda a, k, r: {"rows": _arg(a, k, 1, "dataset").size},
    "bounds.verify_bound": _verify_counts,
    "manifest.write_text": lambda a, k, r: {"bytes": r.stat().st_size},
    "csvio.csv_text": lambda a, k, r: {"rows": r.count("\n") - 1},
    "datasets.dataset_csv_lines": lambda a, k, r: {"rows": len(r) - 1},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            counts = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, name, threading.get_ident(), t0, t1, counts))

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every traced callable under each name that refers to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{_layer(short)}.{attr}", obj))
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for short, cls_name, methods in TRACED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            for attr in methods:
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{_layer(short)}.{attr}", original))
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


class _Layers:
    """Per-name call counts, span time, self time and summed counts."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.draws = defaultdict(set)
        by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for span_id, parent, name, _thread, t0, t1, counts in spans:
            child_time[parent] += t1 - t0
        for span_id, parent, name, _thread, t0, t1, counts in spans:
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.self_time[name] += (t1 - t0) - child_time[span_id]
            for key, value in (counts or {}).items():
                if key == "draw":
                    self.draws[name].add(value)
                else:
                    self.counts[f"{name}.{key}"] += value
        self.forward_in_eval = sum(
            1
            for s in spans
            if s[2] == "core.predict_proba_batch" and by_id.get(s[1], (0, 0, ""))[2] == "training.evaluate"
        )
        self.eval_in_train_s = sum(
            s[5] - s[4] for s in spans if s[2] == "training.evaluate" and _has_ancestor(s, by_id, "training.train")
        )


def _has_ancestor(span, by_id, name) -> bool:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[2] == name:
            return True
        parent = by_id.get(parent[1])
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(name):
    return lambda L: L.calls[name]


def _total(*names):
    return lambda L: sum(L.total[n] for n in names)


def _self(name):
    return lambda L: L.self_time[name]


def _count(key):
    return lambda L: L.counts[key]


# (metric, unit, better, value from the aggregated spans). Layers a workload
# never enters report 0, and so do ratios whose base is 0.
LAYER_METRICS = (
    ("configio.parse_config.s", "s", "lower", _total("configio.parse_config")),
    ("configio.resolve_mixture.calls", "count", "lower", _calls("configio.resolve_mixture")),
    ("configio.resolve_mixture.s", "s", "lower", _total("configio.resolve_mixture")),
    ("fixtures.build.s", "s", "lower", _total("fixtures.make_regime_fixtures", "fixtures.make_spectrum_fixture")),
    ("mixtures.validate.calls", "count", "lower", _calls("mixtures.validate")),
    ("mixtures.validate.self_s", "s", "lower", _self("mixtures.validate")),
    ("mixtures.spectral_factor.calls", "count", "lower", _calls("mixtures.spectral_factor")),
    ("mixtures.spectral_factor.self_s", "s", "lower", _self("mixtures.spectral_factor")),
    ("mixtures.sample.calls", "count", "lower", _calls("mixtures.sample")),
    ("mixtures.sample.rows", "count", "lower", _count("mixtures.sample.rows")),
    ("mixtures.sample.self_s", "s", "lower", _self("mixtures.sample")),
    (
        "mixtures.sample.unique_ratio", "ratio", "higher",
        lambda L: _ratio(len(L.draws["mixtures.sample"]), L.calls["mixtures.sample"]),
    ),
    ("core.predict_proba_batch.calls", "count", "lower", _calls("core.predict_proba_batch")),
    ("core.predict_proba_batch.rows", "count", "lower", _count("core.predict_proba_batch.rows")),
    ("core.predict_proba_batch.self_s", "s", "lower", _self("core.predict_proba_batch")),
    ("core.softmax_batch.self_s", "s", "lower", _self("core.softmax_batch")),
    ("core.entropy_batch.self_s", "s", "lower", _self("core.entropy_batch")),
    ("core.logit_gradient.calls", "count", "lower", _calls("core.logit_gradient")),
    ("core.logit_gradient.self_s", "s", "lower", _self("core.logit_gradient")),
    ("core.expected_entropy_mc.calls", "count", "lower", _calls("core.expected_entropy_mc")),
    ("core.expected_entropy_mc.draws", "count", "lower", _count("core.expected_entropy_mc.draws")),
    ("core.expected_entropy_mc.self_s", "s", "lower", _self("core.expected_entropy_mc")),
    ("core.empirical_mean_entropy.calls", "count", "lower", _calls("core.empirical_mean_entropy")),
    ("core.empirical_mean_entropy.self_s", "s", "lower", _self("core.empirical_mean_entropy")),
    ("training.train.calls", "count", "lower", _calls("training.train")),
    ("training.train.self_s", "s", "lower", _self("training.train")),
    ("training.sgd_steps", "count", "lower", _count("training.train.steps")),
    (
        "training.steps_per_s", "1/s", "higher",
        lambda L: _ratio(L.counts["training.train.steps"], L.total["training.train"]),
    ),
    ("training.evaluate.calls", "count", "lower", _calls("training.evaluate")),
    ("training.evaluate.rows", "count", "lower", _count("training.evaluate.rows")),
    ("training.evaluate.s", "s", "lower", _total("training.evaluate")),
    ("training.val_share", "ratio", "lower", lambda L: _ratio(L.eval_in_train_s, L.total["training.train"])),
    (
        "training.evaluate.forward_per_call", "count", "lower",
        lambda L: _ratio(L.forward_in_eval, L.calls["training.evaluate"]),
    ),
    ("diversity.empirical_diversity.calls", "count", "lower", _calls("diversity.empirical_diversity")),
    ("diversity.empirical_diversity.self_s", "s", "lower", _self("diversity.empirical_diversity")),
    ("diversity.analytic_diversity.calls", "count", "lower", _calls("diversity.analytic_diversity")),
    ("bounds.verify_bound.calls", "count", "lower", _calls("bounds.verify_bound")),
    ("bounds.trials", "count", "higher", _count("bounds.verify_bound.trials")),
    ("bounds.verify_bound.self_s", "s", "lower", _self("bounds.verify_bound")),
    (
        "bounds.applicable_ratio", "ratio", "higher",
        lambda L: _ratio(L.counts["bounds.verify_bound.applicable"], L.counts["bounds.verify_bound.trials"]),
    ),
    ("figures.run_arm.calls", "count", "lower", _calls("figures.run_arm")),
    ("figures.run_arm.s", "s", "lower", _total("figures.run_arm")),
    ("figures.make_datasets.calls", "count", "lower", _calls("figures.make_datasets")),
    ("manifest.write_text.calls", "count", "lower", _calls("manifest.write_text")),
    ("manifest.write_text.bytes", "B", "lower", _count("manifest.write_text.bytes")),
    ("manifest.write_text.self_s", "s", "lower", _self("manifest.write_text")),
    ("manifest.finish.self_s", "s", "lower", _self("manifest.finish")),
    ("csvio.csv_text.rows", "count", "lower", _count("csvio.csv_text.rows")),
    ("csvio.csv_text.self_s", "s", "lower", _self("csvio.csv_text")),
    ("datasets.dataset_csv_lines.rows", "count", "lower", _count("datasets.dataset_csv_lines.rows")),
    ("datasets.dataset_csv_lines.self_s", "s", "lower", _self("datasets.dataset_csv_lines")),
    ("streams.derive_rng.calls", "count", "lower", _calls("streams.derive_rng")),
)


def layer_metrics(spans) -> dict[str, float]:
    layers = _Layers(spans)
    return {name: float(value(layers)) for name, _unit, _better, value in LAYER_METRICS}
