"""Self-test of the benchmark harness on a tiny workload built from configs/quick.cfg.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
import threading
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracer  # noqa: E402

run.import_maxentlab(ROOT)

# --threads 2, so arms run in worker threads and the traced run exercises
# the thread-local span stacks.
QUICK = run.Workload("quick", ("figure", "gamma_sweep"), "configs/quick.cfg", 2, 2)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quiet(_line):
    pass


@pytest.fixture(scope="module")
def untraced():
    return run.measure(ROOT, QUICK, seed=1, seconds=0, trace=False, log=_quiet)


@pytest.fixture(scope="module")
def traced():
    return run.measure(ROOT, QUICK, seed=1, seconds=0, trace=True, log=_quiet)


def _assert_metrics(result, declared):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]


def test_every_end_to_end_metric_printed_with_unit(untraced):
    _assert_metrics(untraced, BENCHMARK["end_to_end"])
    for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "work_per_s"):
        assert untraced["metrics"][name]["value"] > 0


def test_default_seed_recorded_in_benchmark_json():
    command = BENCHMARK["command"]
    assert command[-2:] == ["--seed", str(run.DEFAULT_SEED)]


def test_peak_rss_is_the_pipeline_process_alone(tmp_path):
    # a child reporting ru_maxrss would inherit this process's 200 MB
    ballast = b"\1" * (200 * 1024 * 1024)  # written, so resident
    report = run.run_child(ROOT, QUICK, QUICK.seeds(1), tmp_path / "out", None)
    assert 0 < report["peak_rss_mb"] < 150
    del ballast


def test_every_layer_metric_printed_with_unit(traced):
    _assert_metrics(traced, BENCHMARK["per_layer"])


def test_exact_counts_match_config(traced):
    cfg = run.load_config(ROOT, QUICK)
    seeds = QUICK.seeds(1)
    arms = len(seeds) * len(cfg.gammas)
    steps = arms * cfg.train.epochs * math.ceil(cfg.train_n / cfg.train.batch_size)
    metrics = {name: m["value"] for name, m in traced["metrics"].items()}
    assert metrics["training.sgd_steps"] == steps == run.work_per_run(QUICK, cfg, seeds)
    assert metrics["training.train.calls"] == arms
    assert metrics["figures.run_arm.calls"] == arms
    assert metrics["core.logit_gradient.calls"] == steps
    assert metrics["bounds.trials"] == 0


def _bindings():
    """Every attribute of every loaded maxentlab module, plus ArtifactSession's methods."""
    from maxentlab.manifest import ArtifactSession

    snap = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "maxentlab" or name.startswith("maxentlab.")
        for attr, value in vars(module).items()
    }
    snap.update({("ArtifactSession", a): v for a, v in vars(ArtifactSession).items()})
    return snap


def test_tracing_restores_attributes_and_nests_spans_per_thread(tmp_path):
    from maxentlab import configio, core, figures, training
    from maxentlab.manifest import ArtifactSession

    config = ROOT / QUICK.config
    cfg = configio.parse_config(config.read_text(encoding="utf-8"), base_dir=config.parent)
    before = _bindings()
    t = tracer.Tracer().install()
    try:
        assert training.predict_proba_batch is core.predict_proba_batch
        assert core.predict_proba_batch is not before[("maxentlab.core", "predict_proba_batch")]
        assert ArtifactSession.write_text is not before[("ArtifactSession", "write_text")]
        figures.run_figure(cfg, "gamma_sweep", tmp_path / "out", [1, 2], threads=2)
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    by_id = {s[0]: s for s in t.spans}
    assert len(by_id) == len(t.spans)
    threads = {s[3] for s in t.spans if s[2] == "figures.run_arm"}
    assert len(threads) >= 1 and threading.get_ident() not in threads
    for span_id, parent, name, thread, t0, t1, _counts in t.spans:
        assert t1 >= t0
        if parent:
            p = by_id[parent]
            assert p[3] == thread, f"{name} nested under a span of another thread"
            assert p[4] <= t0 and t1 <= p[5]
