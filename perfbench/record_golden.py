"""Record the golden outputs the benchmark checks the default seed against.

    python3 perfbench/record_golden.py

Writes ``golden/<workload>-seed0.tar.xz`` (every file the workload's
commands write for the default seed) and ``golden/default-outputs.json``
(sha256 of each file every experiment writes with its default config,
which ``fpsearch verify`` reruns). Re-record only at a commit whose outputs
are meant to change, and say why in the change.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tarfile
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _run(argv: list[str]) -> None:
    import fpsearch.cli

    with redirect_stdout(io.StringIO()):
        code = fpsearch.cli.main(argv)
    if code != 0:
        raise SystemExit(f"fpsearch {' '.join(argv)} exited {code}")


def _tar_xz(files: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:xz", preset=9) as tar:
        for name in sorted(files):
            info = tarfile.TarInfo(name)
            info.size = len(files[name])
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(files[name]))
    return buf.getvalue()


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from fpsearch.config import EXPERIMENT_NAMES

    check.GOLDEN.mkdir(exist_ok=True)
    for name in ("sweep-r5", "spectra-k12"):
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        with tempfile.TemporaryDirectory() as tmp:
            for command in workload.commands:
                _run(command.argv(Path(tmp)))
            files = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
        check.golden_path(name).write_bytes(_tar_xz(files))
    defaults = {}
    for experiment in EXPERIMENT_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            _run(["run", experiment, "--out", tmp])
            defaults[experiment] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(tmp).iterdir())
            }
    (check.GOLDEN / "default-outputs.json").write_text(json.dumps(defaults, indent=1) + "\n")


if __name__ == "__main__":
    main()
