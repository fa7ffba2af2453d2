"""Command-line entry point.

Subcommands: synth, train, figure KIND, bounds verify, report. Output goes
to --out, else the config's out_dir, else $MAXENTLAB_OUT/<command>.
--seeds overrides the config's seed list; bounds verify runs at the first
seed only, so its artifacts for --seeds 1,2 are those of --seeds 1.
--threads (at least 1) runs shares of the trials in bounds verify, and
the seeds of train and figure, on that many threads; synth ignores it. The
artifacts are the same bytes for any thread count. Every command exits 0
on success and 1 on any error, with an "error: ..." line, leaving its output
directory as it was, including any previous run there.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .configio import _as_int_list, check_seeds, parse_config
from .errors import MaxentLabError, ParseError
from .figures import FIGURE_KINDS, run_bounds_verify, run_figure, run_report, run_synth, run_train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maxentlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"maxentlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--seeds",
            default=None,
            help="comma-separated seed override (bounds verify uses the first seed only)",
        )
        p.add_argument("--threads", type=int, default=1, help="parallel seeds or bound trials")

    common(sub.add_parser("synth", help="sample and export synthetic datasets"))
    common(sub.add_parser("train", help="train one model per seed"))
    fig = sub.add_parser("figure", help="reproduce one experiment figure")
    fig.add_argument("kind", choices=FIGURE_KINDS)
    common(fig)
    bounds = sub.add_parser("bounds", help="bound utilities")
    bounds_sub = bounds.add_subparsers(dest="bounds_command", required=True)
    common(bounds_sub.add_parser("verify", help="Monte-Carlo verification of the bounds"))
    rep = sub.add_parser("report", help="merge run manifests into a summary")
    rep.add_argument("manifests", nargs="+", help="manifest.json paths")
    rep.add_argument("--out", default=None, help="output directory")
    return parser


def _resolve_out(args, cfg_out_dir: str, command: str) -> Path:
    if args.out:
        return Path(args.out)
    if cfg_out_dir:
        return Path(cfg_out_dir)
    root = os.environ.get("MAXENTLAB_OUT", "runs")
    return Path(root) / command


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            manifest = run_report(args.manifests, _resolve_out(args, "", "report"))
            print(manifest)
            return 0
        config_path = Path(args.config)
        try:
            text = config_path.read_text(encoding="utf-8")
        except OSError as err:
            raise MaxentLabError(f"cannot read config {config_path}: {err}") from err
        cfg = parse_config(text, base_dir=config_path.parent)
        try:
            seeds = cfg.seeds if args.seeds is None else _as_int_list(args.seeds, None)
        except ParseError as err:
            raise ParseError(f"--seeds {args.seeds!r}: {err}") from None
        check_seeds(seeds)
        if args.threads < 1:
            raise ParseError(f"--threads must be at least 1, got {args.threads}")
        if args.command == "synth":
            out = _resolve_out(args, cfg.out_dir, "synth")
            manifest = run_synth(cfg, out, seeds, args.threads)
        elif args.command == "train":
            out = _resolve_out(args, cfg.out_dir, "train")
            manifest = run_train(cfg, out, seeds, args.threads)
        elif args.command == "figure":
            out = _resolve_out(args, cfg.out_dir, f"figure_{args.kind}")
            manifest = run_figure(cfg, args.kind, out, seeds, args.threads)
        elif args.command == "bounds":
            out = _resolve_out(args, cfg.out_dir, "bounds")
            manifest = run_bounds_verify(cfg, out, seeds, args.threads)
            summary = manifest.parent / "bounds_summary.txt"
            if summary.is_file():
                print(summary.read_text(), end="")
        else:  # pragma: no cover - argparse enforces choices
            raise MaxentLabError(f"unknown command {args.command!r}")
        print(manifest)
        return 0
    except MaxentLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
