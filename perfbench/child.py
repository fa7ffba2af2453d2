"""One fresh maxentlab pipeline process, timed from inside.

Mirrors ``maxentlab.cli.main`` for one command, but times its two parts:

- set-up: ``import maxentlab.cli`` (which imports every module the CLI
  needs), reading and parsing the config, and ``resolve_mixture``, which
  builds the fixture mixture;
- the pipeline call, from the resolved config to a written manifest.json,
  with the process's user+system CPU time over the same interval.

Without ``--out`` only the set-up runs. With ``--trace-file`` the tracer is
installed after the imports and before ``parse_config``, the spans are
written to that file after the pipeline, and the wrapped attributes are
restored. The last line of standard output is one JSON object.

    python3 perfbench/child.py --root . --command figure gamma_sweep \
        --config configs/fine_sweep.cfg --seeds 1,2 --out .bench_runs/x
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec from the
    # forking parent, so a parent holding many spans would raise this
    # process's figure. VmHWM belongs to this process's own address space.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/maxentlab")
    parser.add_argument("--command", nargs="+", required=True, help="synth | figure KIND | bounds verify")
    parser.add_argument("--config", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default=None, help="output directory; omit to time set-up only")
    parser.add_argument("--trace-file", default=None, help="write spans here and trace the run")
    args = parser.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import maxentlab.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    from maxentlab import configio, figures

    t_imported = time.perf_counter()
    tracer = None
    if args.trace_file:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer().install()
    t_traced = time.perf_counter()
    config_path = Path(args.config)
    # module attribute lookups, so that the tracer's wrappers are called
    cfg = configio.parse_config(config_path.read_text(encoding="utf-8"), base_dir=config_path.parent)
    configio.resolve_mixture(cfg)
    setup_s = (t_imported - t0) + (time.perf_counter() - t_traced)

    result = {"setup_s": setup_s, "maxentlab_file": str(Path(maxentlab.__file__).resolve())}
    if args.out:
        seeds = [int(s) for s in args.seeds.split(",")]
        out = Path(args.out)
        command = args.command
        cpu0 = _cpu_s()
        w0 = time.perf_counter()
        if command[0] == "figure":
            manifest = figures.run_figure(cfg, command[1], out, seeds, args.threads)
        elif command == ["synth"]:
            manifest = figures.run_synth(cfg, out, seeds, args.threads)
        elif command == ["bounds", "verify"]:
            manifest = figures.run_bounds_verify(cfg, out, seeds, args.threads)
        else:
            raise SystemExit(f"unknown command {command!r}")
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = _cpu_s() - cpu0
        result["manifest"] = str(manifest)
    if tracer is not None:
        tracer.restore()
        tracer.write(args.trace_file)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
