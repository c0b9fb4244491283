"""Closed-loop benchmark of the rabi-lab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One benchmark process calls
``rabi_lab.cli.main(argv)`` in process, one job at a time, until
``--seconds`` have passed, and checks every job's output (checks.py).
BLAS and worker-count variables are removed from the environment first,
so each run sees the library defaults a user gets; what was removed is
recorded.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced jobs and reports per-layer
self times and counts from spans (tracing.py); the gap between the two
kinds of job is the tracing overhead.

Standard output: one JSON line ``{"report": ...}`` with everything
recorded (environment, sample counts, tail percentile, table digests,
failures), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced run
are written to ``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

# numpy, rabi_lab and the sibling modules that import them are imported
# inside functions: numpy must load after the BLAS variables are removed,
# and spawned pool workers re-import this file as their main module.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCRUBBED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RABI_LAB_THREADS")
SETUP_REPEATS = 4  # before the timed jobs, and as many again after them
SETUP_PROBE = (
    "import sys, rabi_lab.cli; "
    "sys.exit(0 if {'numpy', 'scipy.linalg'} <= set(sys.modules) else 1)"
)

END_TO_END = {"solution_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# span names reported as <name>.s (self time); those in CALLS also as <name>.calls
SPANS = (
    "cli.main",
    "cli.parse_config",
    "model.build_hamiltonian",
    "model.sector_hamiltonian",
    "eigensolve.eig_sym_dense",
    "eigensolve.eig_sym_tridiag",
    "parity.pair_report",
    "parity.parity_expectation",
    "sweeps.coupling_sweep",
    "sweeps.convergence_sweep",
    "sweeps.solve_point",
    "sweeps.tail_population",
    "sweeps.merged_sector_levels",
    "position.hermite_basis",
    "position.position_wavefunction",
    "position.symmetry_defect",
    "io.write_table",
    "io.render_table",
    "io.atomic_write_bytes",
    "io.write_manifest",
)
CALLS = (
    "model.build_hamiltonian",
    "model.sector_hamiltonian",
    "eigensolve.eig_sym_dense",
    "eigensolve.eig_sym_tridiag",
    "parity.pair_report",
    "sweeps.solve_point",
    "sweeps.tail_population",
    "sweeps.merged_sector_levels",
    "position.hermite_basis",
    "position.position_wavefunction",
    "io.render_table",
    "io.atomic_write_bytes",
)
# counters filled by tracing.py, with units
COUNTS = {
    "model.build_hamiltonian.bytes": "bytes",
    "eigensolve.eig_sym_dense.gflop": "Gflop",
    "eigensolve.near_degenerate_flags": "count",
    "eigensolve.max_residual_ratio": "ratio",
    "parity.irregular_pairs": "count",
    "parity.max_abs_parity_sum": "1",
    "io.render_table.bytes": "bytes",
}
DERIVED = {
    "cli.main.total_s": "s",
    "trace.overhead_s": "s",
    "trace.non_cli_share": "ratio",
    "eigensolve.eig_sym_dense.lapack_floor_s": "s",
    "eigensolve.eig_sym_dense.gflops": "Gflop/s",
    "sweeps.sentinel_failures": "count",
    "sweeps.pool_overhead_s": "s",
    "sweeps.pool_child_peak_rss_mb": "MB",
}
POOL_NOTE = (
    "pool workers start from a fresh import under spawn, so per-point spans "
    "(model, eigensolve, merged_sector_levels) are not visible; only the outer "
    "spans are, and sweeps.convergence_sweep self time includes the wait on the pool"
)


def per_layer_units() -> dict:
    units = {f"{name}.s": "s" for name in SPANS}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update(COUNTS)
    units.update(DERIVED)
    return units


@dataclass
class Job:
    elapsed: float
    problems: list
    info: dict


def run_job(inputs, out_dir: Path, sample: int, main, tracer=None, job_id=None) -> Job:
    """One timed CLI call, then its output checks (never traced)."""
    from checks import check_job

    argv = inputs.argv(out_dir)
    with tracer.active(job_id) if tracer else nullcontext():
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            code = exc
        elapsed = time.perf_counter() - start
    if isinstance(code, Exception):
        problems, info = [f"cli.main raised {type(code).__name__}: {code}"], {}
    else:
        problems, info = check_job(inputs, out_dir, code, sample)
    shutil.rmtree(out_dir, ignore_errors=True)
    return Job(elapsed, problems, info)


def error_rate(jobs: list) -> float:
    return sum(bool(job.problems) for job in jobs) / len(jobs)


def tail(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return {"percentile": 100.0 * rank / len(ordered), "value": ordered[rank - 1]}


def measure_setup(env: dict) -> list:
    """Wall time of fresh interpreters that import rabi_lab.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT, capture_output=True, timeout=120
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return times


def untraced_run(inputs, seconds: float, workdir: Path, main, env: dict) -> tuple:
    from envinfo import peak_rss_mb

    # probes on both sides of the jobs, so the median spans the run's window
    setup = measure_setup(env)
    jobs = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(run_job(inputs, workdir / f"job{len(jobs)}", len(jobs), main))
    setup += measure_setup(env)
    times = [job.elapsed for job in jobs]
    metrics = {
        "solution_s": statistics.median(times),
        "items_per_s": inputs.items / statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "solution_s": {
            "median": metrics["solution_s"],
            "tail": tail(times),
            "samples": len(times),
            "times": times,
        },
        "setup_s": {"median": metrics["setup_s"], "samples": setup},
        "items_per_job": inputs.items,
        "error_rate": error_rate(jobs),
    }
    return jobs, metrics, report


def lapack_floor(solves: list) -> float:
    """Bare evr solves of the matrices a traced job's dense calls saw."""
    import scipy.linalg
    from rabi_lab.model import build_hamiltonian

    total = 0.0
    for params, trunc, k in solves:
        matrix = build_hamiltonian(params, trunc)
        start = time.perf_counter()
        scipy.linalg.eigh(matrix, subset_by_index=(0, k - 1), driver="evr")
        total += time.perf_counter() - start
    return total


def _get(layers: dict, name: str, key: str):
    return layers.get(name, {}).get(key, 0)


def traced_run(inputs, seconds: float, workdir: Path, main) -> tuple:
    from tracing import Tracer

    tracer = Tracer()
    jobs, untraced, traced, floors = [], [], [], []
    deadline = time.perf_counter() + seconds
    serial_total = None
    if (inputs.workers or 1) > 1:
        # converge_sector's per-point work, the base of pool_overhead_s
        jobs.append(run_job(replace(inputs, workers=1), workdir / "serial", 0, main, tracer, "serial"))
        serial_total = _get(tracer.layers("serial"), "sweeps.convergence_sweep", "total_s")
    while not traced or time.perf_counter() < deadline:
        index = len(jobs)
        if len(untraced) <= len(traced):
            jobs.append(run_job(inputs, workdir / f"job{index}", index, main))
            untraced.append(jobs[-1].elapsed)
        else:
            jobs.append(run_job(inputs, workdir / f"job{index}", index, main, tracer, index))
            traced.append(index)
            floors.append(lapack_floor(tracer.records[index].dense_solves))

    per_job = []
    for index in traced:
        layers = tracer.layers(index)
        values = {f"{name}.s": _get(layers, name, "s") for name in SPANS}
        values.update({f"{name}.calls": _get(layers, name, "calls") for name in CALLS})
        values.update({key: tracer.records[index].counts[key] for key in COUNTS})
        total = _get(layers, "cli.main", "total_s")
        dense_s = values["eigensolve.eig_sym_dense.s"]
        values["cli.main.total_s"] = total
        values["trace.non_cli_share"] = 1.0 - (
            values["cli.main.s"] + values["cli.parse_config.s"]
        ) / total if total else 0.0
        values["eigensolve.eig_sym_dense.gflops"] = (
            values["eigensolve.eig_sym_dense.gflop"] / dense_s if dense_s else 0.0
        )
        values["sweeps.pool_overhead_s"] = (
            _get(layers, "sweeps.convergence_sweep", "total_s") - serial_total / inputs.workers
            if serial_total is not None
            else 0.0
        )
        values["sweeps.sentinel_failures"] = jobs[index].info.get("sentinel_failures", 0)
        per_job.append(values)
    metrics = {key: statistics.median(job[key] for job in per_job) for key in per_job[0]}
    metrics["trace.overhead_s"] = metrics["cli.main.total_s"] - statistics.median(untraced)
    metrics["eigensolve.eig_sym_dense.lapack_floor_s"] = statistics.median(floors)
    report = {
        "traced_jobs": len(traced),
        "untraced_jobs": len(untraced),
        "serial_traced_job": serial_total is not None,
        "spans": len(tracer.spans),
        "notes": [POOL_NOTE] if serial_total is not None else [],
    }
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workdir.name}.json"
    fields = ("name", "start", "end", "parent", "job")
    spans_path.write_text(json.dumps([dict(zip(fields, span)) for span in tracer.spans]))
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return jobs, metrics, report


def stop_children() -> None:
    """End and reap every process the run started.

    The spawn pool in rabi_lab.sweeps also starts multiprocessing's
    resource tracker, which otherwise outlives this process by a moment
    and is left for init to reap.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rabi_lab" / "cli.py").is_file():
        print(f"rabi_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    scrubbed = {key: os.environ.pop(key) for key in SCRUBBED if key in os.environ}
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )

    import envinfo
    from rabi_lab import cli, sweeps
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != SRC / "rabi_lab":
        print(f"imported rabi_lab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pool_peaks: list = []
    sweeps.ProcessPoolExecutor = envinfo.probed_pool(pool_peaks)
    inputs = WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)

    def call_cli(argv):
        return cli.main(argv)  # looked up per call, so a traced job sees the wrapper

    try:
        if args.trace:
            jobs, metrics, report = traced_run(inputs, args.seconds, workdir, call_cli)
            metrics["sweeps.pool_child_peak_rss_mb"] = max(pool_peaks, default=0.0)
            units = per_layer_units()
        else:
            jobs, metrics, report = untraced_run(
                inputs, args.seconds, workdir, call_cli, dict(os.environ)
            )
            report["peak_rss_mb"] = {
                "benchmark_process": metrics["peak_rss_mb"],
                "pool_children": max(pool_peaks, default=None),
            }
            units = END_TO_END
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [job for job in jobs if job.problems]
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        argv=inputs.argv(Path("OUT")),
        workers=sorted({job.info["workers"] for job in jobs if job.info}),
        table_sha256=sorted({d for job in jobs for d in job.info.get("digests", {}).values()}),
        problems=[problem for job in failed for problem in job.problems][:10],
        env=envinfo.environment(scrubbed),
    )
    print(json.dumps({"report": report}))
    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
