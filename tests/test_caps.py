"""Each experiment's largest admitted config runs within the README's envelope.

The README's resource table states, for each experiment's cap corner, the
bytes it writes and a bound on its peak resident memory. This test runs
every corner through ``fpsearch.cli.main`` in fresh interpreters and checks
exit 0, the exact bytes and file count, and the child's own ``VmHWM``
(``/proc/self/status``; ``ru_maxrss`` would carry a parent's peak across
fork and exec) against those rows. It sets no wall-time bound, since the
host's speed varies.

To stay short, it starts two children at once: one runs the `robustness`
corner, the other every other corner in turn, smallest bound first.
``VmHWM`` never falls, so each reading after a corner is at least that
corner's own peak, and every reading within its row's bound means every
corner is.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fpsearch import cli

README = Path(__file__).resolve().parents[1] / "README.md"

GRID = ",".join(f"{i * 0.0015:.4f}" for i in range(64))  # 0, 0.0015, ..., 0.0945
ORDERS = "0,1,2,3,4,5,6,7,8,inf"

# README row label -> (experiment, overrides)
CORNERS = {
    "table1": ("table1", ["r.max=8"]),
    "k1-curves": ("k1-curves", ["r.max=8"]),
    "k2-curves": ("k2-curves", ["r.max=8", "style=naive,bb1"]),
    "bb1-scaling": ("bb1-scaling", ["eps.points=1000"]),
    "spectra k=2": ("spectra", ["oracle.k=2", f"r.values={ORDERS}", "freq.points=16666"]),
    "spectra k=1": ("spectra", ["oracle.matching=00", f"r.values={ORDERS}",
                                "freq.points=100000"]),
    "robustness": ("robustness", ["r.max=8", f"error.eps={GRID}", f"error.delta_j={GRID}"]),
}

# runs each argv list of argv[1] through the CLI; appends (exit code, VmHWM kB)
# to the JSON file argv[2] after each, with the CLI's own output discarded
CHILD = """
import contextlib, io, json, sys
from fpsearch.cli import main
readings = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    readings.append((code, kb))
with open(sys.argv[2], "w") as out:
    json.dump(readings, out)
"""


def _envelope() -> dict[str, tuple[float, int, int]]:
    """README row label -> (VmHWM bound in MB, bytes written, files written)."""
    rows = {}
    for line in README.read_text().splitlines():
        m = re.match(r"\| `([^`]+)`( k=\d)?, .*\| (\d+) MB \| ([\d,]+) B in (\d+) files? \|$",
                     line)
        if m:
            label = m[1] + (m[2] or "")
            rows[label] = (float(m[3]), int(m[4].replace(",", "")), int(m[5]))
    return rows


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM is read from /proc/self/status (Linux)")
def test_every_cap_corner_runs_within_the_readme_envelope(tmp_path):
    envelope = _envelope()
    assert envelope.keys() == CORNERS.keys()
    small = sorted((label for label in CORNERS if label != "robustness"),
                   key=lambda label: envelope[label][0])
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    children = []
    for group in (["robustness"], small):
        argvs = []
        for label in group:
            experiment, overrides = CORNERS[label]
            out = tmp_path / label.replace(" ", "_").replace("=", "")
            argvs.append(["run", experiment, "--out", str(out),
                          *(arg for o in overrides for arg in ("--override", o))])
        result = tmp_path / f"{group[0]}.json"
        proc = subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(argvs), str(result)],
                                env=env, cwd=tmp_path)
        children.append((group, argvs, result, proc))
    for group, argvs, result, proc in children:
        assert proc.wait() == 0
        for label, argv, (code, kb) in zip(group, argvs, json.loads(result.read_text())):
            bound_mb, size, count = envelope[label]
            files = list(Path(argv[3]).iterdir())
            assert (code, len(files), sum(f.stat().st_size for f in files)) == (0, count, size), label
            assert kb / 1024 <= bound_mb, f"{label}: VmHWM {kb / 1024:.1f} MB over {bound_mb} MB"
