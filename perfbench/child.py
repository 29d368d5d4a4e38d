"""One benchmark iteration in a fresh interpreter.

    python3 child.py '<json spec>'

The spec names the source tree, the CLI arguments, the configs set-up
builds, whether to trace, and the file the result is written to. Set-up is
``import fpsearch.cli`` plus building the command's configs; the timed
region is ``fpsearch.cli.main(argv)``, exactly what the ``fpsearch``
console script runs. A spec without ``argv`` stops after set-up.

Around the timed region, outside it, the child times :func:`host_probe`,
a fixed kernel that runs no fpsearch code; ``run.py`` uses those times to
correct for the host's speed, which swings far more than the effects this
benchmark must resolve.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def clock() -> float:
    # tracer.clock, kept local so an untraced child imports nothing extra
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_probe() -> float:
    """Seconds this fixed mix of small-matrix, formatting and interpreter work takes."""
    import numpy as np

    start = clock()
    u = np.eye(4, dtype=complex)
    r = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
    for _ in range(1500):
        u = np.kron(r, np.eye(2, dtype=complex)) @ u
    "\n".join(f"{x:.12g} {x * x:.12g}" for x in np.linspace(-150.0, 150.0, 9000))
    sum(i * i for i in range(150000))
    return clock() - start


def main() -> None:
    spec = json.loads(sys.argv[1])
    t_import = clock()
    sys.path.insert(0, spec["src"])
    import fpsearch.cli
    from fpsearch.config import EXPERIMENT_NAMES, build_config

    t_config = clock()
    for experiment, mapping in spec["configs"] or [(n, {}) for n in EXPERIMENT_NAMES]:
        build_config(experiment, mapping)
    t_ready = clock()
    result = {
        "fpsearch": fpsearch.__file__,
        "t_ready": t_ready,
        "import_s": t_config - t_import,
        "build_config_s": t_ready - t_config,
        "probe_s": [host_probe()],
    }
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = clock()
        try:
            code = fpsearch.cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code
        run_s = clock() - t0
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = {
                "spans": tracer.spans,
                "counts": tracer.counts,
                "files": tracer.files,
                "checks": tracer.checks,
            }
        result.update(exit=code, run_s=run_s)
    sys.stdout.flush()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["argv"] is not None:
        result["probe_s"].append(host_probe())
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
