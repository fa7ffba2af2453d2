"""maxentlab benchmark: four pipeline workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig-gamma-fine --seed 1 --seconds 20 --trace 0

Each run of a workload is a fresh ``perfbench/child.py`` process that imports
maxentlab from ``src/``, parses the workload's config, resolves its mixture
and calls one CLI pipeline (see ``WORKLOADS``). Runs repeat until
``--seconds`` have passed; every run's outputs are checked, and a run whose
check fails counts as failed. The workload seed picks the pipeline seeds
(``--seeds seed,seed+1,...``).

``--trace 0`` reports the end-to-end metrics, each the median over runs:
``wall_s`` (pipeline call, resolved config to written manifest), ``setup_s``
(import, parse_config, resolve_mixture in a fresh interpreter), ``cpu_s``
(user+system CPU over the pipeline call), ``peak_rss_mb`` and ``work_per_s``
(SGD steps, verification trials or exported rows per second of ``wall_s``).

``--trace 1`` alternates untraced and traced runs. Traced runs wrap the
public functions of the maxentlab modules (``tracer.py``) and report the
per-layer metrics, median over traced runs, plus ``trace.overhead_s``
(median over pairs of a traced run's ``wall_s`` minus that of the untraced
run before it) and ``fail_rate``.

The benchmark leaves BLAS thread variables as it finds them and records
them. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, layer_metrics, read_spans  # noqa: E402

DEFAULT_SEED = 1
WORK_DIR = ".bench_runs"
SETUP_PROBES = 10
# Pipeline runs per invocation, at least: a median of three rejects one
# outlier, and bounds-mc (about 14 s a run) would otherwise get two.
MIN_RUNS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # a maxentlab CLI command: synth | figure KIND | bounds verify
    config: str  # relative to the checkout root
    seed_count: int  # the pipeline gets seeds seed, seed+1, ...
    threads: int

    def seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.seed_count)]

    @property
    def unit(self) -> str:
        return {"synth": "rows", "bounds": "trials"}.get(self.command[0], "steps")


# Why each workload (all use the fixture mixtures, C=10, n=16):
#   fig-gamma-fine: per-epoch validation telemetry (evaluate on 5,000 rows)
#     dominates; 6 arms at --threads 1.
#   fig-spectrum-t2: small-batch SGD steps with a trainable feature map
#     dominate; 2 arms at --threads 2, where arm-level parallelism shows.
#   bounds-mc: Monte-Carlo entropy estimates dominate; never trains.
#   synth-export: bulk sampling, CSV formatting and artifact writes dominate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig-gamma-fine", ("figure", "gamma_sweep"), "configs/fine_sweep.cfg", 2, 1),
        Workload("fig-spectrum-t2", ("figure", "spectrum"), "configs/spectrum.cfg", 1, 2),
        Workload("bounds-mc", ("bounds", "verify"), "perfbench/configs/bounds_mc.cfg", 1, 1),
        Workload("synth-export", ("synth",), "perfbench/configs/synth_export.cfg", 6, 1),
    )
}

# Arms per seed of the figure kinds the workloads use.
FIGURE_ARMS = {
    "gamma_sweep": lambda cfg: len(cfg.gammas),
    "spectrum": lambda cfg: 2,
}


class CheckFailed(Exception):
    pass


def import_maxentlab(root: Path):
    """Import maxentlab from the checkout's src/, never from site-packages."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import maxentlab

    if not Path(maxentlab.__file__).resolve().is_relative_to(src):
        raise CheckFailed(f"maxentlab imported from {maxentlab.__file__}, not {src}")


def load_config(root: Path, workload: Workload):
    from maxentlab.configio import parse_config

    path = root / workload.config
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)


def arm_count(workload: Workload, cfg, seeds) -> int:
    return FIGURE_ARMS[workload.command[1]](cfg) * len(seeds)


def work_per_run(workload: Workload, cfg, seeds) -> int:
    """SGD steps, verification trials or exported dataset rows in one run."""
    if workload.unit == "rows":
        return len(seeds) * (cfg.train_n + cfg.val_n)
    if workload.unit == "trials":
        return cfg.bounds_trials * sum(
            1 if kind == "weight_norm" else len(cfg.bounds_sample_counts) for kind in cfg.bounds_kinds
        )
    t = cfg.train
    return arm_count(workload, cfg, seeds) * t.epochs * math.ceil(cfg.train_n / t.batch_size)


def check_outputs(workload: Workload, cfg, seeds, manifest_path: Path) -> str:
    """Verify one run's artifacts; return its content digest."""
    from maxentlab.errors import MaxentLabError
    from maxentlab.manifest import load_manifest

    try:
        manifest = load_manifest(manifest_path, verify=True)
        _check_artifacts(workload, cfg, seeds, manifest_path.parent)
    except (MaxentLabError, OSError, ValueError) as err:
        raise CheckFailed(f"{type(err).__name__}: {err}") from err
    return manifest.digest()


def _check_artifacts(workload: Workload, cfg, seeds, out: Path) -> None:
    from maxentlab.csvio import read_csv

    if workload.unit == "trials":
        header, rows = read_csv(out / "bounds_summary.csv")
        col = {name: i for i, name in enumerate(header)}
        kinds = [r[col["kind"]] for r in rows]
        if sorted(set(kinds)) != sorted(cfg.bounds_kinds):
            raise CheckFailed(f"bounds_summary.csv kinds {kinds} != {list(cfg.bounds_kinds)}")
        for r in rows:
            kind, violations, rate = r[col["kind"]], int(r[col["violations"]]), float(r[col["rate"]])
            if kind == "weight_norm" and violations != 0:
                raise CheckFailed(f"weight_norm bound violated {violations} times")
            if kind != "weight_norm" and not rate <= cfg.delta:
                raise CheckFailed(f"{kind} violation rate {rate} > delta {cfg.delta}")
    elif workload.unit == "rows":
        for seed in seeds:
            for prefix, n in (("train", cfg.train_n), ("val", cfg.val_n)):
                lines = (out / f"{prefix}_seed{seed}.csv").read_bytes().count(b"\n")
                if lines != n + 1:
                    raise CheckFailed(f"{prefix}_seed{seed}.csv has {lines - 1} rows, expected {n}")
    else:
        header, rows = read_csv(out / "summary.csv")
        if len(rows) != arm_count(workload, cfg, seeds):
            raise CheckFailed(f"summary.csv has {len(rows)} rows, expected one per arm")
        first_metric = header.index("val_acc")
        for r in rows:
            for name, cell in zip(header[first_metric:], r[first_metric:]):
                if cell == "" and name == "tail_mass" and workload.command[1] != "spectrum":
                    continue
                if not math.isfinite(float(cell)):
                    raise CheckFailed(f"summary.csv {name} = {cell!r} is not finite")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_child(root: Path, workload: Workload, seeds, out: Path | None, trace_file: Path | None) -> dict:
    """Run one fresh pipeline process; return its JSON report or raise CheckFailed."""
    argv = [
        sys.executable, str(HERE / "child.py"), "--root", str(root),
        "--command", *workload.command, "--config", str(root / workload.config),
        "--seeds", ",".join(map(str, seeds)), "--threads", str(workload.threads),
    ]
    if out is not None:
        argv += ["--out", str(out)]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise CheckFailed(f"run exceeded {CHILD_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as err:
        raise CheckFailed(f"no report from the run: {proc.stdout[-500:]!r}") from err
    if not Path(report["maxentlab_file"]).is_relative_to((root / "src").resolve()):
        raise CheckFailed(f"run imported maxentlab from {report['maxentlab_file']}")
    return report


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """Run ``workload`` for ``seconds``; return the benchmark's result object."""
    seeds = workload.seeds(seed)
    cfg = load_config(root, workload)
    work = work_per_run(workload, cfg, seeds)
    # one directory per workload, emptied by its next run, so span files of
    # traced runs stay inspectable without piling up
    work_dir = root / WORK_DIR / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = environment()
    log(
        f"workload {workload.name}: maxentlab {' '.join(workload.command)} --config {workload.config} "
        f"--seeds {','.join(map(str, seeds))} --threads {workload.threads}; {work} {workload.unit} per run"
    )

    attempted = failed = 0
    setup, untraced, traced_walls, layers, overheads = [], [], [], [], []
    untraced_by_run = {}
    digest = None

    def attempt(fn):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn()
        except CheckFailed as err:
            failed += 1
            print(f"run {attempted} failed: {err}", file=sys.stderr)
            return None

    def pipeline(i: int, traced: bool):
        nonlocal digest
        out = work_dir / f"run{i}"
        spans = work_dir / f"spans{i}.jsonl" if traced else None
        report = run_child(root, workload, seeds, out, spans)
        run_digest = check_outputs(workload, cfg, seeds, Path(report["manifest"]))
        if digest is None:
            digest = run_digest
        elif run_digest != digest:
            raise CheckFailed(f"digest {run_digest} differs from the first run's {digest}")
        shutil.rmtree(out)
        if traced:
            traced_walls.append(report["wall_s"])
            layers.append(layer_metrics(read_spans(spans)))
            if i - 1 in untraced_by_run:
                overheads.append(report["wall_s"] - untraced_by_run[i - 1])
        else:
            untraced.append(report)
            untraced_by_run[i] = report["wall_s"]
            setup.append(report["setup_s"])

    start = time.perf_counter()
    # The first interpreter in a fresh checkout compiles bytecode, which users
    # pay once, not per call: it is not timed.
    attempt(lambda: run_child(root, workload, seeds, None, None))
    if not trace:
        for _ in range(SETUP_PROBES):
            report = attempt(lambda: run_child(root, workload, seeds, None, None))
            if report is not None:
                setup.append(report["setup_s"])
    # traced runs alternate with untraced ones, so each traced run has an
    # untraced neighbour measured under nearly the same machine load
    i = 0
    while True:
        attempt(lambda: pipeline(i, trace and i % 2 == 1))
        i += 1
        if time.perf_counter() - start >= seconds and i >= (2 * (MIN_RUNS - 1) if trace else MIN_RUNS):
            break

    log(f"digest {digest} ({workload.name}, seed {seed})")
    if not untraced or (trace and not overheads):
        raise CheckFailed("no run completed")
    walls = [r["wall_s"] for r in untraced]
    samples = {
        "wall_s": walls,
        "setup_s": setup,
        "cpu_s": [r["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "work_per_s": [work / w for w in walls],
    }
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END}
    for name, unit in END_TO_END:
        log(f"{name} = {metrics[name]['value']:.6g} {unit}  (median; {_spread(samples[name])})")
    log(f"work_per_s is in {workload.unit}/s")
    log(f"fail_rate = {failed / attempted:.6g}  ({failed} of {attempted} runs failed)")
    env["loadavg_end"] = os.getloadavg()
    log("env " + json.dumps(env))

    if trace:
        metrics = {
            name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
            for name, unit, _better, _value in LAYER_METRICS
        }
        metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
        metrics["fail_rate"] = {"value": failed / attempted, "unit": "ratio"}
        for name, m in metrics.items():
            log(f"{name} = {m['value']:.6g} {m['unit']}")
        log(f"traced wall_s = {statistics.median(traced_walls):.6g} s  (median; {_spread(traced_walls)})")
        log(f"trace.overhead_s is the median of {len(overheads)} traced-minus-untraced pairs")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20, help="how long to keep starting runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "maxentlab" / "__init__.py").is_file():
        print(f"error: no maxentlab source under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        import_maxentlab(root)
        result = measure(root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except CheckFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
