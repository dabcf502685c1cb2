"""Run one workload of the highgirth benchmark and print its metrics.

    python3 perfbench/run.py --workload erasure-1024 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports highgirth from ./src and
from nowhere else, and exits with code 2 when that is missing.  The last
line of standard output is one JSON object with "correct", "attempted",
"failed" and "metrics".  With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json; with --trace 1 they are the per-layer ones, from
spans recorded around calls into the program.  The line before it holds
the machine facts.  Each run also writes its facts, figures, failed
checks and (traced) spans under perfbench/results/.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def import_seconds(clock, samples: int = 5) -> float:
    """Median time, in calibrated seconds, to import highgirth (and numpy
    with it) in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import highgirth; print(time.perf_counter() - t); print(highgirth.__file__)"
    )
    times = []
    for _ in range(samples):
        done, secs, raw = clock.timed(
            subprocess.run,
            [sys.executable, "-I", "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        inner, path = done.stdout.split("\n")[:2]
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported highgirth from {path}, not from {SRC}")
        times.append(float(inner) * secs / raw)
    return statistics.median(times)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "highgirth" / "__init__.py").is_file():
        return fail(f"no highgirth package under {SRC}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if not 0 <= args.seed < 1 << 40:
        return fail("--seed must lie in [0, 2**40)")
    if not args.seconds > 0:
        return fail("--seconds must be positive")

    from clock import Clock

    clock = Clock()
    import_s = import_seconds(clock)
    sys.path.insert(0, str(SRC))
    import highgirth
    import numpy as np

    if not Path(highgirth.__file__).resolve().is_relative_to(SRC):
        return fail(f"imported highgirth from {highgirth.__file__}, not from {SRC}")
    import layers
    import workloads
    from spans import Tracer

    ctx = workloads.Context(args.seed, args.seconds, nproc(), import_s, clock)
    work = workloads.WORKLOADS[args.workload](ctx)
    out = workloads.Outcome()
    tracer = Tracer() if args.trace else None
    if tracer:
        layers.install(tracer)
    try:
        work.setup(out)
        work.measure(out)
    finally:
        if tracer:
            tracer.uninstall()
    out.details["calibration_scale_median"] = statistics.median(clock.scales)
    work.check(out)

    declared = spec["per_layer"] if tracer else spec["end_to_end"]
    values = layers.metrics(tracer, [m["name"] for m in declared]) if tracer else out.metrics
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": sorted({1, ctx.nproc}),
        "nproc": ctx.nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "facts": facts,
        "result": result,
        "failed_checks": out.problems,
        # in a traced run these figures include the tracing overhead
        "end_to_end": out.metrics,
        "details": out.details,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.save(RESULTS / f"{stem}-spans.npz")
    for problem in out.problems:
        print(f"check failed: {problem}")
    print("facts: " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
