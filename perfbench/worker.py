"""One repetition of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED MODE`` where MODE is

* ``warmup``: import everything once (writes bytecode caches) and exit;
* ``timed``: the untraced repetition the end-to-end metrics come from;
* ``profiled``: the same input under cProfile, folded by layer;
* ``wrapped``: the same input with the ledger's timing wrappers on the
  observers and the device, then (compile suite) the instrumented CAD
  pass.  Kept apart from ``profiled`` so cProfile does not inflate the
  times the wrappers take.

Prints one JSON record on stdout.  ``setup_s`` runs from just before
``import repro`` to the first timed call; the timed region is the
workload's whole input once.
"""

import cProfile
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv) -> int:
    workload_name, seed, mode = argv[0], int(argv[1]), argv[2]
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # imports repro: the first cost set-up counts
    import ledger  # cheap once repro is imported; traced modes use it

    if mode == "warmup":
        print(json.dumps({"warmup_s": time.perf_counter() - t0}))
        return 0
    profile = cProfile.Profile() if mode == "profiled" else None
    subscribers = device = None
    if mode == "wrapped":
        subscribers = ledger.SubscriberTimers()
        device = ledger.DeviceTimer()
    wl = workloads.build(workload_name, seed, observe=(
        subscribers.bus_for if subscribers is not None else None))
    setup_s = time.perf_counter() - t0
    record = {"setup_s": setup_s, "ops": wl.n_ops,
              "recipe_digest": workloads.recipe_digest(workload_name, seed)}
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if profile is not None:
            profile.enable()
        try:
            wl.run()
        finally:
            if profile is not None:
                profile.disable()
        record.update(
            wall_s=time.perf_counter() - wall0,
            cpu_s=time.process_time() - cpu0,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if profile is not None:
            record["trace"] = ledger.profile_metrics(profile, wl.n_ops)
        if subscribers is not None:  # before the checks load the device
            record["trace"] = ledger.wrapper_metrics(
                subscribers, device, wl.n_ops)
        record.update(wl.results())
        if subscribers is not None and workload_name == "compile-suite":
            cad = ledger.cad_ledger(wl)
            record["trace"].update(cad["metrics"])
            record["cad_qor"] = workloads.qor(cad["compiled"])
    except Exception:  # the run failed: report every op as failed
        record.update(failed=wl.n_ops,
                      failures=[traceback.format_exc(limit=3)])
    import numpy

    record.update(python=platform.python_version(), numpy=numpy.__version__)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
