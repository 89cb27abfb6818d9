"""Benchmark of entconc: the p_d sweep, the gate-noise sweep and compilation.

Run from the repository root:

    python3 bench/run.py --workload pd-sweep --seed 1 --seconds 20 --trace 0

It imports entconc from ./src, sets up the workload three times (inputs
and catalysts), runs one warm-up op, then runs whole rounds of ops, one at
a time in this one process, until ``--seconds`` have passed, and checks
every op's outputs against ``oracle``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (ops_per_s,
op_p50_ms, setup_s, peak_rss_mb); with ``--trace 1`` every public entconc
function is wrapped in a span and the metrics are the per-layer ones, and
the spans are written to bench/out/spans-<workload>.npz. See README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: multi-threaded OpenBLAS stalls small complex matmuls now
# and then, which makes op times bimodal. Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 3


def import_entconc() -> types.SimpleNamespace:
    """Import entconc from this checkout's src/, never from elsewhere."""
    init = SRC / "entconc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    ec = types.SimpleNamespace(
        **{m: importlib.import_module(f"entconc.{m}")
           for m in ("cli", "protocols", "locc", "noise")}
    )
    if Path(ec.cli.__file__).resolve().parent != init.parent.resolve():
        sys.exit(f"error: entconc imported from {ec.cli.__file__}, not {SRC}")
    return ec


def set_up(name: str, ec, capture, seed: int):
    """Build the workload and draw round 0 (with its catalysts)."""
    wl = workloads.WORKLOADS[name](ec, capture, seed)
    return wl, wl.make_round(0)


def tail(times: list):
    """(q, value) of the highest quantile with ten or more ops beyond it.

    None below 40 ops, where even the 75th percentile would be no tail.
    """
    best = None
    for q in (0.75, 0.9, 0.99, 0.999):
        if len(times) * (1 - q) >= 10:
            best = (q, float(np.quantile(times, q)))
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ec = import_entconc()
    import_s = time.perf_counter() - _T0
    modules = spans.entconc_modules(sys.modules)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(modules)
    capture = workloads.Capture(modules)

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl, ops = set_up(args.workload, ec, capture, args.seed)
        setups.append(time.perf_counter() - t)
    t = time.perf_counter()
    wl.run(wl.warmup_op)
    setup_s = import_s + statistics.median(setups) + time.perf_counter() - t
    if hasattr(wl, "reference"):
        wl.reference(ec)

    times, failures = [], []
    start = time.perf_counter()
    r = 0
    while True:
        for op in ops:
            if tracer is not None:
                span = tracer.begin_op(len(times))
            t0 = time.perf_counter()
            out = wl.run(op)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op(span)
            times.append(t1 - t0)
            problems = wl.check(op, out)
            if problems:
                label = op if args.workload != "compile-grid" else f"draw {len(times)}"
                failures.append((label, problems, workloads.known_fault_only(wl, problems)))
            del out
        r += 1
        if time.perf_counter() - start >= args.seconds:
            break
        ops = wl.make_round(r)

    for label, problems, known in failures:
        kind = "known fault" if known else "FAIL"
        print(f"{kind}: {label}: {'; '.join(problems[:4])}", file=sys.stderr)
    n = len(times)
    summary = f"{args.workload}: {n} ops in {r} rounds, median {1e3 * statistics.median(times):.1f} ms"
    worst = tail(times)
    if worst is not None:
        summary += f", p{100 * worst[0]:g} {1e3 * worst[1]:.1f} ms"
    print(summary, file=sys.stderr)

    if tracer is None:
        metrics = {
            "ops_per_s": {"value": n / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        values = spans.per_layer_values(tracer, n)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in spans.per_layer_spec()
        }
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}.npz")
    print(json.dumps({
        "correct": all(known for _, _, known in failures),
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
