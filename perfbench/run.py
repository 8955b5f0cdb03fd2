"""Benchmark for adapterqa: adapter training, ablation sweeps with gradient
audits, and table-QA ingest and evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload, summary table

One workload runs in one process. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end set, with --trace 1 the per-layer set from a
traced run (spans written to perfbench/out/). The lines before it record
the machine, the run, and every workload metric by name with its unit.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # at or below nproc; one thread keeps matmul timings steady on a shared host
WORKLOAD_NAMES = ("train-full", "ablation-sweep", "qa-data")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny model and corpus sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas_lib = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_lib,
        "blas_threads": _blas_threads(),
        "note": f"measured on {nproc} cores; timings are for this machine only",
    }


def _run_all(args) -> int:
    """Run every workload, each in its own process, and print one table."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--short"] if args.short else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        named = next(json.loads(line)["named"] for line in lines if line.startswith('{"named"'))
        summary[name] = {"result": result, "named": named}
    from bench_workloads import END_TO_END, WORKLOAD_METRICS

    print(f"{'metric':34} {'unit':8} {'better':7} " + " ".join(f"{n:>16}" for n in WORKLOAD_NAMES))
    rows = [(n, u, b, "metrics") for n, u, b in END_TO_END] if args.trace == 0 else []
    rows += [(n, u, b, "named") for n, u, b in WORKLOAD_METRICS]
    for name, unit, better, where in rows:
        cells = []
        for w in WORKLOAD_NAMES:
            src = summary[w]["result"]["metrics"] if where == "metrics" else summary[w]["named"]
            entry = src.get(name)
            if entry is None:
                cells.append(f"{'n/a':>16}")
            else:
                value = entry["value"] if isinstance(entry, dict) else entry
                cells.append(f"{value:16.6g}")
        print(f"{name:34} {unit:8} {better:7} " + " ".join(cells))
    print(json.dumps({w: s["result"] for w, s in summary.items()}))
    return 0 if all(s["result"]["correct"] for s in summary.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return _run_all(args)

    try:
        import adapterqa
    except ImportError as exc:
        print(f"cannot import adapterqa from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(adapterqa.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"adapterqa was imported from {adapterqa.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import bench_workloads

    import_s = time.perf_counter() - _T_START
    machine = machine_info()
    print(json.dumps({"machine": machine}))
    out_dir = HERE / "out"
    result = bench_workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workdir=HERE / ".work" / f"{args.workload}-{os.getpid()}",
        import_s=import_s, short=args.short,
        trace_out=out_dir / f"trace-{args.workload}.jsonl.gz" if args.trace else None,
        meta={"machine": machine})
    for problem in result.problems[:10]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "ops_untraced": result.ops_untraced,
                      "ops_traced": result.ops_traced, "spans": result.n_spans,
                      "output_sha256": result.digest}))
    units = bench_workloads.UNITS
    print(json.dumps({"named": {k: {"value": v, "unit": units[k]}
                                for k, v in result.named.items()},
                      "absent": result.absent}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
