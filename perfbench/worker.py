"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --mode full|setup --traced 0|1
        --t-spawn T --run-id ID [--spans PATH]

T is the caller's time.monotonic() just before it started this process, so
wall_s and the first solve's set-up include interpreter start and
`import subdiff`. In mode "setup" each solve stops after its first step.
Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    """High-water resident set of this process alone, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy as np
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("full", "setup"), required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import subdiff
    if Path(subdiff.__file__).resolve().parent != ROOT / "src" / "subdiff":
        raise SystemExit(f"imported subdiff from {subdiff.__file__}, not from this checkout")
    import workloads

    tracer = None
    if args.traced:
        import spans
        tracer = spans.Tracer(args.run_id)
        tracer.install()
    clock = workloads.SolveClock(args.t_spawn, setup_only=args.mode == "setup")
    outputs = workloads.WORKLOADS[args.workload](clock)
    t_end = time.monotonic()
    result = {
        "outputs": outputs,
        "wall_s": t_end - args.t_spawn,
        "setup_s": clock.setup_s(),
        "dof_steps": clock.dof_steps(),
        "peak_rss_mb": _peak_rss_mb(),
        "env": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
