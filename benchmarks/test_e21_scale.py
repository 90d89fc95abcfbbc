"""E21 — scale sweep: simulator cost per task against the task count.

The VFPGA is an OS-level manager multiplexing one device among many
tasks, so the simulator's cost should scale with the work, not with how
many tasks have arrived.  This experiment runs the E20 shape (the E20
registry, one single-op task every 1/400 s with configurations
round-robin, policy ``dynamic``, ``RoundRobin(1 ms)``, no subscribers)
at a small and a large task count.  Past the dynamic-loading knee the
backlog grows all run long, so any per-op work that is O(tasks) shows
up as a per-task cost that grows with N.

Each size runs twice: once bare for the host figures (µs/task and
published events per wall second, machine-dependent and only recorded)
and once under :mod:`cProfile` for the Python call count per task.  The
call count is a work count that does not depend on the machine, so the
gate is on it: calls/task at the largest size may be at most
``MAX_CALL_GROWTH`` times calls/task at the smallest.
"""

import cProfile
import pstats
import time

from _harness import emit, record_run
from test_e20_saturation import build_registry, open_loop_tasks

from repro.analysis import format_table
from repro.core import make_service
from repro.osim import Kernel, RoundRobin
from repro.sim import Simulator
from repro.telemetry import EventBus

RATE = 400.0                    # offered ops/s, past the dynamic knee
SIZES = [500, 8000]
MAX_CALL_GROWTH = 1.3


def build_kernel(n_tasks: int) -> Kernel:
    kernel = Kernel(
        Simulator(),
        RoundRobin(time_slice=1e-3),
        make_service("dynamic", build_registry()),
        bus=EventBus(),
    )
    kernel.spawn_all(open_loop_tasks(RATE, n_tasks))
    return kernel


def run_size(n_tasks: int) -> dict:
    kernel = build_kernel(n_tasks)
    t0 = time.perf_counter()
    stats = kernel.run()
    wall = time.perf_counter() - t0

    profiled = build_kernel(n_tasks)
    prof = cProfile.Profile()
    prof.enable()
    profiled_stats = profiled.run()
    prof.disable()
    calls = pstats.Stats(prof).total_calls
    assert profiled_stats.makespan == stats.makespan

    point = {
        "n_tasks": n_tasks,
        "wall_seconds": wall,
        "us_per_task": wall / n_tasks * 1e6,
        "events_per_s": kernel.bus.n_published / wall,
        "calls_per_task": calls / n_tasks,
        "makespan": stats.makespan,
    }
    record_run({
        "policy": "scale:dynamic",
        "policy_kw": {"rate": RATE, "n_tasks": n_tasks},
        "scheduler": {"name": "RoundRobin", "time_slice": 1e-3},
        **point,
    })
    return point


def test_e21_scale(benchmark):
    points = benchmark.pedantic(
        lambda: [run_size(n) for n in SIZES], rounds=1, iterations=1,
    )
    growth = points[-1]["calls_per_task"] / points[0]["calls_per_task"]
    emit("e21_scale", format_table(
        [
            {
                "tasks": p["n_tasks"],
                "wall_s": f"{p['wall_seconds']:.2f}",
                "us/task": f"{p['us_per_task']:.0f}",
                "events/s": f"{p['events_per_s']:.0f}",
                "calls/task": f"{p['calls_per_task']:.1f}",
                "makespan_s": f"{p['makespan']:.3f}",
            }
            for p in points
        ],
        title=f"E21: per-task cost vs task count (dynamic, {RATE:g} ops/s "
              f"offered; calls/task growth {growth:.2f}x)",
    ))

    # Every task ran: the backlog grows with N, so the makespan does too.
    assert points[-1]["makespan"] > points[0]["makespan"]
    # Flat per-task cost, as a machine-independent work count.
    assert growth <= MAX_CALL_GROWTH, (
        f"Python calls per task grew {growth:.2f}x from "
        f"{SIZES[0]} to {SIZES[-1]} tasks (limit {MAX_CALL_GROWTH}x)"
    )
