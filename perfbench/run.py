"""elastoq benchmark: one workload per call, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  With --trace 0 the result carries the end-to-end metrics (wall_s,
setup_s, peak_rss_mb); with --trace 1 it carries the per-layer metrics from
spans recorded around calls into each layer (see spans.py), plus the
tracing overhead.  The line before the result holds host facts, sample
counts and quartiles.  Workloads, their reasons and the layer -> end-to-end
map are in README.md next to this file.
"""
from __future__ import annotations

import os

# One thread in total, counting BLAS: pinned before numpy loads OpenBLAS.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "ELASTOQ_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Before each job, set-up is repeated at least SETUP_MIN_REPS times and for
#: at least SETUP_SHARE of the previous job's time.  Spreading the samples
#: over the run keeps a slow phase of the host from hitting all of them.
SETUP_MIN_REPS = 5
SETUP_SHARE = 0.05
#: Fewest timed jobs per run, even when they overrun --seconds.
MIN_JOBS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "hamiltonian.build_model_calls": "count",
    "hamiltonian.build_model_s": "s",
    "media.eigendecompose_s": "s",
    "experiments.initial_state_s": "s",
    "circuits.build_s": "s",
    "circuits.program_gates": "count",
    "circuits.oracle_steps": "count",
    "circuits.oracle_s": "s",
    "circuits.oracle_share": "fraction",
    "hamiltonian.apply_H_calls": "count",
    "hamiltonian.apply_H_s": "s",
    "hamiltonian.apply_H_per_oracle_step": "ratio",
    "hamiltonian.materialize_calls": "count",
    "hamiltonian.materialize_s": "s",
    "hamiltonian.factorizations_per_model": "ratio",
    "circuits.fast_step_calls": "count",
    "circuits.fast_step_s": "s",
    "circuits.fast_step_bytes": "B-computed",
    "circuits.fast_step_gbps": "GB/s-computed",
    "lattice.pair_rotation_calls": "count",
    "lattice.pair_rotation_s": "s",
    "lattice.pair_rotation_us": "us",
    "lattice.d_axis_calls": "count",
    "lattice.d_axis_s": "s",
    "circuits.simulate_s": "s",
    "circuits.gate_applications": "count",
    "circuits.us_per_gate": "us",
    "circuits.serialize_s": "s",
    "circuits.parse_s": "s",
    "circuits.program_text_bytes": "B",
    "classical.leapfrog_steps": "count",
    "classical.leapfrog_s": "s",
    "classical.leapfrog_us_per_step": "us",
    "classical.l_norm_estimates": "count",
    "classical.l_norm_s": "s",
    "classical.power_bound_s": "s",
    "classical.local_s": "s",
    "classical.global_s": "s",
    "classical.cost_model_s": "s",
    "experiments.reconstruct_s": "s",
    "experiments.output_s": "s",
    "experiments.output_bytes": "B",
    "cli.self_s": "s",
    "media.errors": "count",
    "lattice.errors": "count",
    "hamiltonian.errors": "count",
    "circuits.errors": "count",
    "classical.errors": "count",
    "experiments.errors": "count",
    "cli.errors": "count",
    "trace.overhead_s": "s",
}


def _spread(values: list[float]) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "ELASTOQ_THREADS": os.environ.get("ELASTOQ_THREADS"),
        "seed": seed,
    }


def _time(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run_plain(workload, rng, workdir: Path, check, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: median set-up, median job wall, peak RSS."""
    deadline = time.perf_counter() + seconds
    setup: list[float] = []
    walls: list[float] = []
    while len(walls) < MIN_JOBS or time.perf_counter() + walls[-1] <= deadline:
        budget = SETUP_SHARE * walls[-1] if walls else 0.0
        reps = 0
        while reps < SETUP_MIN_REPS or budget > 0:
            took = _time(workload.setup, rng)[0]
            setup.append(took)
            budget -= took
            reps += 1
        walls.append(_time(workload.job, rng, workdir, check)[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
               "peak_rss_mb": peak_rss_mb}
    return metrics, {"wall_s": {**_spread(walls), "values": walls},
                     "setup_s": _spread(setup)}


def run_traced(workload, rng, workdir: Path, check, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from pairs of one untraced and one traced job.

    Pairs run until time is up; which job of a pair goes first alternates,
    so the first job's warm-up does not land on one side only.
    """
    import spans

    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_job: list[dict] = []
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(_time(workload.job, rng, workdir, check)[0])
                continue
            with spans.traced(tracer):
                wall, written = _time(workload.job, rng, workdir, check)
            traced.append(wall)
            job = spans.job_metrics(*tracer.take(), wall_s=wall)
            job["experiments.output_bytes"] = float(written)
            per_job.append(job)
    metrics = {name: statistics.fmean(job[name] for job in per_job)
               for name in per_job[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"wall_s": _spread(plain), "traced_wall_s": _spread(traced)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "trotter", "circuit_certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        import elastoq
    except ImportError as exc:
        print(f"cannot import elastoq from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(elastoq.__file__).resolve().parents:
        print(f"elastoq was imported from {elastoq.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import numpy as np

    from workloads import WORKLOADS, Checker

    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    check = Checker(args.workload)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = run_traced if args.trace else run_plain
        values, spread = runner(workload, rng, Path(tmp), check, args.seconds)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    detail = {"workload": args.workload, "trace": args.trace,
              "host": host_facts(args.seed), **spread,
              "error_rate": check.failed / check.attempted,
              "problems": check.problems[:10]}
    result = {"correct": check.failed == 0, "attempted": check.attempted,
              "failed": check.failed,
              "metrics": {name: {"value": float(values[name]), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
