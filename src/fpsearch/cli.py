"""Command-line interface.

    fpsearch run <experiment> [--config FILE] [--out DIR] [--override k=v ...]
    fpsearch list
    fpsearch verify

Exit codes: 0 success, 1 failed verification, 2 configuration error
(including outputs that cannot be written), 3 numerical invariant
violation during a run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ConfigError,
    EXPERIMENT_NAMES,
    apply_overrides,
    build_config,
    parse_config_text,
)
from .experiments import EXPERIMENTS, run_experiment
from .pulses import UnitarityError
from .verify import run_all


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpsearch",
        description="fixed-point quantum search experiments on a two-spin system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a named experiment")
    run_p.add_argument("experiment", choices=EXPERIMENT_NAMES)
    run_p.add_argument("--config", type=Path, help="flat key=value config file")
    run_p.add_argument("--out", help="output directory (overrides output.dir)")
    run_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("verify", help="run the full invariant suite")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        mapping: dict[str, str] = {}
        if args.config is not None:
            mapping = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
        mapping = apply_overrides(mapping, args.override)
        if args.out is not None:
            mapping["output.dir"] = args.out
        cfg = build_config(args.experiment, mapping)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = run_experiment(cfg)
    except UnitarityError as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: output.dir: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in EXPERIMENT_NAMES:
        _, description = EXPERIMENTS[name]
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_verify() -> int:
    results = run_all()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} ({res.seconds:.2f}s): {res.detail}")
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    return _cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
