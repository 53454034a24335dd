"""subdiff benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads are the fixed presets in workloads.py; the seed is recorded only.
Load model: closed loop, one client. Each repetition is a fresh process
(worker.py), run one at a time, so memory and import cost are per
repetition and nothing carries over. The worker's BLAS and OpenMP pools
are pinned to one thread: on a host of two shared cores a second BLAS
thread mostly spins, and waiting for the other core widens the spread
between runs.

--trace 0 runs full repetitions while the next one still fits in S seconds
(at least one), then set-up-only repetitions until there are at least three
set-up samples, and up to nine while time is left. It reports the medians
of the end-to-end metrics.

--trace 1 runs one untraced and two traced full repetitions. It reports the
per-layer metrics (mean of the two traced times; counts must repeat
exactly), and checks that tracing leaves every output bit for bit unchanged.

Every repetition's outputs must match reference.json within 1e-10 relative.
The last line of standard output is the result object; the line before it
records the environment and the samples. Spans and the full record go to
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
REL_TOL = 1e-10
MIN_SETUP_SAMPLES, MAX_SETUP_SAMPLES = 3, 9
DEADLINE_S = 170.0   # every run must end within 180 s
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

# counts that must be identical between runs of the same code
EXACT_REPEAT = ("sparse.cg_iters", "sparse.cg_iters_max", "sparse.cg_calls",
                "sparse.solver_builds", "mittag_leffler.args", "mittag_leffler.series_args",
                "mittag_leffler.quadrature_args", "mittag_leffler.asymptotic_args",
                "assembly.load_vector_calls", "metrics.interp_calls",
                "stepping.history_bytes")


class Session:
    """Starts repetitions one at a time and keeps the tally of failures."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.reps = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def repeat(self, mode: str, traced: bool = False):
        """One worker process; returns its result, or None if it failed."""
        k = self.attempted
        self.attempted += 1
        run_id = f"{self.workload}-seed{self.seed}-rep{k}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--mode", mode, "--traced", str(int(traced)), "--run-id", run_id]
        if traced:
            cmd += ["--spans", str(OUT / f"spans-{run_id}.jsonl")]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=WORKER_ENV,
                                  stdout=subprocess.PIPE, timeout=timeout, text=True)
        except subprocess.TimeoutExpired:
            print(f"{run_id}: timed out after {timeout:.0f} s", file=sys.stderr)
            self.failed += 1
            return None
        if proc.returncode != 0:
            print(f"{run_id}: worker exited with {proc.returncode}", file=sys.stderr)
            self.failed += 1
            return None
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res.update(run_id=run_id, mode=mode, traced=traced,
                   duration_s=time.monotonic() - t_spawn)
        if mode == "full" and not self._gate(run_id, res["outputs"]):
            self.failed += 1
            res["gate_failed"] = True
        self.reps.append(res)
        return res

    def _gate(self, run_id: str, outputs: dict) -> bool:
        ref = self.reference
        if outputs.keys() != ref.keys():
            print(f"{run_id}: outputs {sorted(outputs)} != reference {sorted(ref)}",
                  file=sys.stderr)
            return False
        bad = {k: (v, ref[k]) for k, v in outputs.items()
               if not abs(v - ref[k]) <= REL_TOL * abs(ref[k])}
        for k, (v, r) in bad.items():
            print(f"{run_id}: {k} = {v!r}, reference {r!r}", file=sys.stderr)
        return not bad

    def mismatch(self, what: str) -> None:
        print(f"{self.workload}: {what}", file=sys.stderr)
        self.failed += 1


def end_to_end(s: Session, seconds: float) -> dict:
    full = []
    while True:
        res = s.repeat("full")
        if res is None:
            break
        full.append(res)
        if s.elapsed() + res["duration_s"] > seconds:
            break
    setups = [r["setup_s"] for r in full]
    last = 0.0
    while (len(setups) < MIN_SETUP_SAMPLES
           or (len(setups) < MAX_SETUP_SAMPLES and s.elapsed() + last <= seconds)):
        res = s.repeat("setup")
        if res is None:
            break
        setups.append(res["setup_s"])
        last = res["duration_s"]
    ok = [r for r in full if not r.get("gate_failed")]
    if not ok or len(setups) < MIN_SETUP_SAMPLES:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "setup_s": statistics.median(setups),
        "dof_steps_per_s": statistics.median(
            r["dof_steps"] / (r["wall_s"] - r["setup_s"]) for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(s: Session) -> dict:
    plain = s.repeat("full")
    traced = [s.repeat("full", traced=True) for _ in range(2)]
    if plain is None or None in traced:
        return {}
    for r in traced:
        if r["outputs"] != plain["outputs"]:
            s.mismatch(f"{r['run_id']}: traced outputs differ from the untraced run")
    a, b = (r["layers"] for r in traced)
    for name in EXACT_REPEAT:
        if a[name] != b[name]:
            s.mismatch(f"count {name} did not repeat: {a[name]} vs {b[name]}")
    layers = {k: (a[k] if k in EXACT_REPEAT else (a[k] + b[k]) / 2) for k in a}
    traced_wall = (traced[0]["wall_s"] + traced[1]["wall_s"]) / 2
    layers["trace.overhead_frac"] = (traced_wall - plain["wall_s"]) / plain["wall_s"]
    return layers


def source_record() -> dict:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "subdiff").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "subdiff" / "__init__.py").is_file():
        print(f"no subdiff sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    s = Session(args.workload, args.seed, reference)
    if args.trace:
        values, metrics = per_layer(s), spec["per_layer"]
    else:
        values, metrics = end_to_end(s, args.seconds), spec["end_to_end"]
    if not values:
        print(f"{args.workload}: no repetition completed; no result", file=sys.stderr)
        return 1

    env = dict(s.reps[0]["env"], **source_record(), seed=args.seed)
    result = {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    reps = [{k: v for k, v in r.items() if k != "env"} for r in s.reps]
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": env, "reps": reps, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"env": env, "samples": {
        k: [r[k] for r in s.reps] for k in ("mode", "wall_s", "setup_s", "peak_rss_mb")}}))
    print(json.dumps(result))
    return 0 if s.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
