"""Command-line interface.

usage: fpsearch run EXPERIMENT [--config FILE] [--out DIR] [--override KEY=VALUE]...
       fpsearch list
       fpsearch verify
       fpsearch -h | --help

Exit codes: 0 success, 1 failed verification, 2 configuration error
(including outputs that cannot be written) or usage error, 3 numerical
invariant violation during a run.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from typing import NoReturn

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

# the usage block above (python -OO strips docstrings)
USAGE = __doc__.split("\n\n")[1] if __doc__ else "usage: fpsearch {run,list,verify}"


def _usage_error(reason: str) -> NoReturn:
    print(f"{USAGE}\nfpsearch: error: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _parse_run(args: list[str]) -> tuple[str, dict[str, list[str]]]:
    """``run``'s EXPERIMENT and the values given to each option, in order. Options
    may come before or after EXPERIMENT, with their value next or after ``=``."""
    opts: dict[str, list[str]] = {"--config": [], "--out": [], "--override": []}
    names = []
    tokens = iter(args)
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in opts:
            if token.startswith("-"):
                _usage_error(f"unrecognized option {token}")
            names.append(token)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                _usage_error(f"option {name} expects a value")
        opts[name].append(value)
    if len(names) != 1 or names[0] not in EXPERIMENT_NAMES:
        _usage_error(f"run takes one experiment of {', '.join(EXPERIMENT_NAMES)}, "
                     f"got {' '.join(names) or 'none'}")
    return names[0], opts


def _cmd_run(experiment: str, opts: dict[str, list[str]]) -> int:
    try:
        mapping: dict[str, str] = {}
        if opts["--config"]:  # the last --config and --out win
            path = Path(opts["--config"][-1])
            mapping = parse_config_text(path.read_text(encoding="utf-8"))
        mapping = apply_overrides(mapping, opts["--override"])
        if opts["--out"]:
            mapping["output.dir"] = opts["--out"][-1]
        cfg = build_config(experiment, mapping)
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
    gc.freeze()  # the objects made at import live for the whole command: keep GC off them
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    command, *rest = argv or [""]
    if command == "run":
        return _cmd_run(*_parse_run(rest))
    if command not in ("list", "verify"):
        _usage_error(f"unknown command {command!r}" if command else "no command given")
    if rest:
        _usage_error(f"{command} takes no arguments, got {' '.join(rest)}")
    return _cmd_list() if command == "list" else _cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
