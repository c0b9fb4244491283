"""Spans around rabi_lab's public functions, for the traced run only.

Each wrapper is installed at the name its caller looks the function up
by (``rabi_lab.sweeps.eig_sym_dense``, ``rabi_lab.cli.write_table``, ...)
and removed again after the job, so untraced jobs and the output checks
run the library unmodified.  Spans stay in memory until the run ends.

Wrappers live in this process only.  Pool workers start from a fresh
import under ``spawn``, so with ``--workers`` > 1 the per-point spans are
invisible and only the outer spans (cli, the sweep call that waits on
the pool, io) are recorded.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from rabi_lab import cli, eigensolve, io, position, sweeps


@dataclass
class JobRecord:
    """Counters of one traced job, and the inputs of its dense solves."""

    counts: defaultdict = field(default_factory=lambda: defaultdict(float))
    dense_solves: list = field(default_factory=list)  # (params, trunc, n_levels)


def _record_solve(record, args, result):
    record.dense_solves.append(args)


def _count_matrix(record, args, result):
    record.counts["model.build_hamiltonian.bytes"] += 8 * result.shape[0] ** 2


def _count_spectrum(record, args, result):
    counts = record.counts
    counts["eigensolve.near_degenerate_flags"] += int(np.count_nonzero(result.near_degenerate))
    ratio = float(result.residual_norms.max()) / (eigensolve.RESIDUAL_RTOL * result.meta.scale)
    counts["eigensolve.max_residual_ratio"] = max(counts["eigensolve.max_residual_ratio"], ratio)


def _count_dense(record, args, result):
    _count_spectrum(record, args, result)
    record.counts["eigensolve.eig_sym_dense.gflop"] += 4.0 / 3.0 * result.meta.dim**3 / 1e9


def _count_pairs(record, args, result):
    counts = record.counts
    counts["parity.irregular_pairs"] += sum(not pair.regular for pair in result)
    worst = max(abs(pair.parity_sum) for pair in result)
    counts["parity.max_abs_parity_sum"] = max(counts["parity.max_abs_parity_sum"], worst)


def _count_rendered(record, args, result):
    record.counts["io.render_table.bytes"] += len(result)


# (module, attribute the caller looks up, span name, counter or None)
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "coupling_sweep", "sweeps.coupling_sweep", None),
    (cli, "convergence_sweep", "sweeps.convergence_sweep", None),
    (cli, "solve_point", "sweeps.solve_point", _record_solve),
    (sweeps, "solve_point", "sweeps.solve_point", _record_solve),
    (cli, "tail_population", "sweeps.tail_population", None),
    (sweeps, "tail_population", "sweeps.tail_population", None),
    (sweeps, "merged_sector_levels", "sweeps.merged_sector_levels", None),
    (sweeps, "build_hamiltonian", "model.build_hamiltonian", _count_matrix),
    (sweeps, "sector_hamiltonian", "model.sector_hamiltonian", None),
    (sweeps, "eig_sym_dense", "eigensolve.eig_sym_dense", _count_dense),
    (sweeps, "eig_sym_tridiag", "eigensolve.eig_sym_tridiag", _count_spectrum),
    (sweeps, "pair_report", "parity.pair_report", _count_pairs),
    (cli, "parity_expectation", "parity.parity_expectation", None),
    (cli, "position_wavefunction", "position.position_wavefunction", None),
    (position, "hermite_basis", "position.hermite_basis", None),
    (cli, "symmetry_defect", "position.symmetry_defect", None),
    (cli, "write_table", "io.write_table", None),
    (io, "render_table", "io.render_table", _count_rendered),
    (io, "atomic_write_bytes", "io.atomic_write_bytes", None),
    (cli, "write_manifest", "io.write_manifest", None),
)


class Tracer:
    """Records spans [name, start, end, parent index, job id] and a JobRecord per job."""

    def __init__(self):
        self.spans: list = []
        self.records = defaultdict(JobRecord)
        self._stack: list = []
        self._job = None

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._job]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.records[self._job], args, result)
            return result

        return wrapper

    @contextmanager
    def active(self, job):
        """Install every wrapper for the duration of one job."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        self._job = job
        try:
            for (module, attr, name, count), (_, _, original) in zip(TARGETS, saved):
                setattr(module, attr, self._wrap(name, original, count))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            self._job = None

    def layers(self, job) -> dict:
        """Per span name: self time, inclusive time and call count for one job.

        Self time is duration minus child coverage; children of one span
        run one after another on this thread, so coverage is their sum.
        """
        own = {}
        for index, (name, start, end, parent, span_job) in enumerate(self.spans):
            if span_job != job:
                continue
            own[index] = own.get(index, 0.0) + (end - start)
            if parent is not None:
                own[parent] = own.get(parent, 0.0) - (end - start)
        out = defaultdict(lambda: {"s": 0.0, "total_s": 0.0, "calls": 0})
        for index, self_time in own.items():
            name, start, end = self.spans[index][:3]
            out[name]["s"] += self_time
            out[name]["total_s"] += end - start
            out[name]["calls"] += 1
        return dict(out)
