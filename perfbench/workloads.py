"""Seeded CLI inputs for each benchmark workload.

The seed never changes the regime a workload exercises: it only shifts a
coupling grid by a sub-step offset, or picks (delta, g/g_c) inside a
stated window.  Every job of one run uses the same inputs, so per-job
times are comparable and their median is meaningful.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Inputs:
    """One CLI job: the subcommand and the values passed as flags."""

    command: str
    delta: float
    ratio_start: float
    ratio_step: float
    points: int
    n_trunc: int
    levels: int
    workers: Optional[int]
    truncs: tuple = ()
    ref: int = 0

    @property
    def items(self) -> int:
        """Work items per job: grid points for sweeps, exported levels otherwise."""
        return self.levels if self.command == "wavefunction" else self.points

    def argv(self, out_dir: Path) -> list:
        if self.command == "wavefunction":
            coupling = repr(self.ratio_start)
        else:
            # half a step past the last point keeps the count exact under rounding
            stop = self.ratio_start + (self.points - 0.5) * self.ratio_step
            coupling = f"{self.ratio_start!r}:{stop!r}:{self.ratio_step!r}"
        argv = [self.command, "--delta", repr(self.delta), "--g-over-gc", coupling]
        if self.command == "converge":
            argv += ["--truncs", ",".join(map(str, self.truncs)), "--ref", str(self.ref)]
        else:
            argv += ["--n-trunc", str(self.n_trunc)]
        argv += ["--levels", str(self.levels)]
        if self.workers is not None:
            argv += ["--workers", str(self.workers)]
        return argv + ["--out", str(out_dir)]


def parity_dense(seed: int) -> Inputs:
    # four points at step 0.05 across 1.43-1.58, the golden onset window
    offset = random.Random(seed).uniform(0.0, 0.01)
    return Inputs("parity", 50.0, 1.43 + offset, 0.05, 4, 1000, 8, 1)


def converge_sector(seed: int) -> Inputs:
    # 120 points at step 0.05 covering g/g_c 0 to 6
    offset = random.Random(seed).uniform(0.0, 0.05)
    return Inputs("converge", 1.0, offset, 0.05, 120, 0, 8, 1, (200, 400, 1000), 2000)


def converge_pool(seed: int) -> Inputs:
    return replace(converge_sector(seed), workers=min(2, os.cpu_count() or 1))


def wavefunction_export(seed: int) -> Inputs:
    rng = random.Random(seed)
    delta = rng.uniform(4.9, 5.1)
    ratio = rng.uniform(1.48, 1.52)
    return Inputs("wavefunction", delta, ratio, 0.0, 1, 300, 8, None)


WORKLOADS = {
    "parity_dense": parity_dense,
    "converge_sector": converge_sector,
    "converge_pool": converge_pool,
    "wavefunction_export": wavefunction_export,
}
