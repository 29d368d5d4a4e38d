"""Benchmark workloads: seeded command lines for the fpsearch CLI.

A seed changes input values (error magnitudes) but never the amount of
work: every seed of a workload runs the same experiments over the same
oracles, orders and grid sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    """One ``fpsearch`` invocation; ``experiment=None`` is ``fpsearch verify``."""

    experiment: str | None
    overrides: tuple[str, ...] = ()

    def argv(self, out_dir: Path) -> list[str]:
        if self.experiment is None:
            return ["verify"]
        argv = ["run", self.experiment, "--out", str(out_dir)]
        for item in self.overrides:
            argv += ["--override", item]
        return argv

    def mapping(self, out_dir: Path) -> dict[str, str]:
        """The raw key=value mapping the CLI builds from :meth:`argv`."""
        pairs = (item.partition("=") for item in self.overrides)
        return {**{k: v for k, _, v in pairs}, "output.dir": str(out_dir)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    expected_exit: int


def _draws(rng: random.Random, count: int, lo: int, hi: int) -> list[str]:
    """``count`` distinct values k/10000 with lo <= k <= hi, ascending."""
    return [f"{k / 10000:.4f}" for k in sorted(rng.sample(range(lo, hi + 1), count))]


def sweep_r5(seed: int) -> Workload:
    rng = random.Random(f"sweep-r5/{seed}")
    eps = _draws(rng, 4, 1, 1000)  # (0, 0.1]
    delta_j = _draws(rng, 2, 0, 1000)  # [0, 0.1]
    return Workload(
        "sweep-r5",
        "robustness r<=5: 192 programs, 91840 simulated events; the 3^r "
        "compile+simulate path, output layer <0.1%",
        (
            Command(
                "robustness",
                ("r.max=5", f"error.eps={','.join(eps)}",
                 f"error.delta_j={','.join(delta_j)}"),
            ),
        ),
        expected_exit=0,
    )


def spectra_k12(seed: int) -> Workload:
    rng = random.Random(f"spectra-k12/{seed}")
    eps, delta_j = (f"{rng.randint(0, 500) / 10000:.4f}" for _ in range(2))
    errors = (f"error.eps={eps}", f"error.delta_j={delta_j}")
    return Workload(
        "spectra-k12",
        "spectra for k=1 and k=2: ~80% trace text and SVG output, ~15% pulse "
        "physics; the output path, and the bypass case for gate memoization",
        (Command("spectra", errors), Command("spectra", ("oracle.k=2", *errors))),
        expected_exit=0,
    )


def verify(seed: int) -> Workload:
    del seed  # fixed suite
    return Workload(
        "verify",
        "fpsearch verify: 616 short programs (r<=3, 10 oracles, both styles) "
        "plus all six experiments twice; per-call and cache-fill costs show here",
        (Command(None),),
        expected_exit=1,  # criterion 4 is a documented, deliberate failure
    )


WORKLOADS = {"sweep-r5": sweep_r5, "spectra-k12": spectra_k12, "verify": verify}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
