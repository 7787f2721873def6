"""maskforge benchmark: one run of one workload, result as a JSON last line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

The run imports maskforge from the checkout's `src/`, never an installed
copy, and exits 2 without a result when that tree is missing. It writes only
under `perfbench/_work/` and removes its own files on exit. The separation
rounds run in one forked child process, which ends before the run does.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
timers wrap the package's public functions and the metrics are the
per-layer ones. A line of environment facts (versions, thread counts, git
SHA) goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def _openblas() -> dict:
    """OpenBLAS build string and runtime thread count, when numpy bundles it."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            try:
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"config": config().decode(), "threads": threads()}
    return {"config": "unknown", "threads": None}


def environment() -> dict:
    import numpy as np
    import scipy

    names = ("MASKFORGE_THREADS", "MASKFORGE_NO_NUMBA", "OMP_NUM_THREADS",
             "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in names if k in os.environ},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maskforge" / "__init__.py").is_file():
        print(f"error: no maskforge source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import maskforge
    import workloads

    if Path(maskforge.__file__).resolve().parent != SRC / "maskforge":
        print(f"error: imported maskforge from {maskforge.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work = workloads.make_workdir(HERE / "_work")
    tracer = None
    try:
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install(workloads.TARGETS, callers=(workloads,))
        try:
            outcome = workloads.run(workload, args.seed, args.seconds, work, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        failures = workloads.verify(workload, outcome)
        if tracer is None:
            metrics = workloads.end_to_end(outcome)
        else:
            metrics = workloads.per_layer(tracer, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in failures:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps(environment()), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
