"""The repository benchmark: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Each repetition runs the workload's whole input once in a fresh
interpreter (``worker.py``), one at a time.  Repetitions continue until
``--seconds`` of wall time is spent (at least ``MIN_REPS``), and the
end-to-end metrics are their medians.  ``--trace 1`` adds two traced
passes (see ``worker.py``) and prints the per-layer ledger instead.  The last line of
stdout is the JSON result; the lines before it are the run record.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("openloop-scale", "partition-observed", "compile-suite")
DEFAULT_SEED = 1
MIN_REPS = 3
#: No repetition starts after this much wall time, so a run ends
#: well inside three minutes even when the machine is slow.
HARD_STOP_S = 120.0

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}

_LAYERS = ("sim", "osim", "core", "device", "telemetry", "cad", "netlist",
           "numpy", "other")
_SUBSCRIBERS = ("auditor", "metrics", "spans", "profiler", "slo", "queueing")
PER_LAYER = {
    **{f"{layer}.self_share": "ratio" for layer in _LAYERS},
    **{f"{layer}.calls_per_op": "calls/op" for layer in _LAYERS},
    "trace_overhead": "x",
    "host_wall_s": "s",
    "host_cpu_s": "s",
    "sim.steps_per_op": "steps/op",
    "osim.context_switches_per_op": "switches/op",
    "osim.preemptions": "count",
    "core.loads_per_op": "loads/op",
    "core.hit_rate": "ratio",
    "core.evictions": "count",
    "core.compactions": "count",
    "core.relocations": "count",
    "core.bitcache_hit_ratio": "ratio",
    "device.frames_written_per_op": "frames/op",
    "device.load_us": "us",
    "device.load_calls_per_op": "calls/op",
    "telemetry.events_per_op": "events/op",
    **{f"telemetry.{sub}.host_s": "s" for sub in _SUBSCRIBERS},
    "sim.queue_share": "ratio",
    "sim.reconfig_share": "ratio",
    "sim.service_share": "ratio",
    **{f"cad.{phase}.host_s": "s" for phase in (
        "techmap", "pack", "place", "rrg", "route", "timing", "bitgen")},
    "cad.sa_acceptance": "ratio",
    "cad.route_iterations": "count",
    "cad.route_ripups_per_net": "ripups/net",
    "model.sim_ops_per_s": "sim_ops/s",
    "model.sim_op_p99_ms": "sim_ms",
    "model.sim_op_p50_ms": "sim_ms",
    "model.sim_op_samples": "count",
    "model.qor_crit_path_ns": "ns",
    "model.qor_wirelength": "segments",
}


def worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """One repetition in a fresh interpreter; a crash becomes a record
    with one failed op so it is never silently dropped."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ops": 1, "failed": 1, "failures": [f"{mode} timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ops": 1, "failed": 1, "failures": [
            f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-800:]}"]}
    return json.loads(lines[-1])


def deterministic(rec: dict) -> dict:
    return {"model": rec.get("model"), "counts": rec.get("counts")}


def check_identical(runs) -> None:
    """Same seed, same model: every repetition and every traced pass must
    agree exactly on the model's outputs and work counts, and the
    instrumented compiles on the QoR.  A run that differs from the first
    fails all its ops."""
    ok = [r for r in runs if not r["failed"]]
    if not ok:
        return
    ref = deterministic(ok[0])
    for rec in ok[1:]:
        cad_qor = rec.get("cad_qor", {})
        if deterministic(rec) != ref or any(
                ref["model"].get(k) != v for k, v in cad_qor.items()):
            rec["failed"] = rec["ops"]
            rec.setdefault("failures", []).append(
                "model, counts or QoR differ from the first repetition")


def per_layer(timed, ref, profiled, wrapped) -> dict:
    """The traced passes' ledger plus the per-layer counts and model
    values of the first good repetition ``ref``."""
    out = {name: 0.0 for name in PER_LAYER}
    for rec in (profiled, wrapped):
        out.update(rec.get("trace", {}))
    wall = statistics.median(r["wall_s"] for r in timed)
    out["host_wall_s"] = wall
    out["host_cpu_s"] = statistics.median(r["cpu_s"] for r in timed)
    if "wall_s" in profiled:
        out["trace_overhead"] = profiled["wall_s"] / wall
    ops, counts, model = ref.get("ops"), ref.get("counts", {}), \
        ref.get("model", {})
    if "loads" in counts:
        lookups = counts["bitcache_lookups"]
        out.update({
            "osim.context_switches_per_op": counts["context_switches"] / ops,
            "osim.preemptions": counts["preemptions"],
            "core.loads_per_op": counts["loads"] / ops,
            "core.hit_rate": counts["hits"] / (counts["hits"]
                                               + counts["misses"]),
            "core.evictions": counts["evictions"],
            "core.compactions": counts["compactions"],
            "core.relocations": counts["relocations"],
            "core.bitcache_hit_ratio": (counts["bitcache_hits"] / lookups
                                        if lookups else 0.0),
            "device.frames_written_per_op": counts["frames_written"] / ops,
            "telemetry.events_per_op": counts["events"] / ops,
        })
    for stage in ("queue", "reconfig", "service"):
        out[f"sim.{stage}_share"] = model.get(f"sim_{stage}_share", 0.0)
    for key, value in model.items():
        if f"model.{key}" in out:
            out[f"model.{key}"] = value
    return out


def more_reps(done: int, elapsed: float, seconds: float) -> bool:
    """Whether another whole repetition fits the budget, judged by the
    mean repetition so far."""
    if done == 0:
        return True
    if elapsed > HARD_STOP_S:
        return False
    return done < MIN_REPS or elapsed * (done + 1) / done <= seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    load_1m = os.getloadavg()[0]
    warm = worker(args.workload, args.seed, "warmup", 170)
    if "warmup_s" not in warm:
        print(f"warm-up failed: {warm['failures']}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    reps = []
    while more_reps(len(reps), time.perf_counter() - start, args.seconds):
        reps.append(worker(args.workload, args.seed, "timed", max(
            10.0, 170 - (time.perf_counter() - start))))
    traced = []
    if args.trace:
        for mode in ("profiled", "wrapped"):
            traced.append(worker(args.workload, args.seed, mode, max(
                10.0, 175 - (time.perf_counter() - start))))
    runs = reps + traced
    check_identical(runs)

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r.get("failures", [])]
    for failure in failures:
        print(failure, file=sys.stderr)
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        print("no repetition produced a timing", file=sys.stderr)
        return 1

    ref = next((r for r in reps if not r["failed"]), {})
    model = ref.get("model", {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "recipe_digest": timed[0].get("recipe_digest"),
        "python": timed[0].get("python"),
        "numpy": timed[0].get("numpy"),
        "load_avg_1m_at_start": load_1m,
        "repetitions": [{k: r.get(k) for k in (
            "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ops", "failed")}
            for r in reps],
        "model": model,
        "failures": failures,
    }
    if args.trace:
        metrics = per_layer(timed, ref, *traced)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in timed),
            "ops_per_s": statistics.median(
                r["ops"] / r["wall_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    for key, value in model.items():
        print(f"{'  ' + key:34s} {value:14.6g} (deterministic per seed)")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
