"""The traced run's instruments, all applied from outside the program.

* :func:`profile_metrics` folds a cProfile of the timed region by
  package into per-layer self time and call counts;
* :class:`SubscriberTimers` hands each observer a bus that times its
  callbacks (self time: callbacks it triggers by republishing are
  charged to their own observer);
* :class:`DeviceTimer` wraps ``Fpga.load``/``Fpga.unload``;
* :func:`cad_ledger` reruns the compile suite cold through
  ``CadInstrumentation`` for per-phase host time and the SA and router
  counters.
"""

from __future__ import annotations

import os
import pstats
import re
import time
from collections import defaultdict
from typing import Callable, Dict

from repro.cad import (
    PHASES,
    CadAnnealStep,
    CadInstrumentation,
    CadRouteIteration,
    CompileCache,
)
from repro.device import Fpga
from repro.telemetry import EventBus

#: The packages of ``src/repro`` the ledger reports, plus numpy.
LAYERS = ("sim", "osim", "core", "device", "telemetry", "cad", "netlist",
          "numpy")

_REPRO_PKG = re.compile(r"[\\/]repro[\\/](\w+)[\\/]")
_NUMPY = os.sep + "numpy" + os.sep


def _layer_of(filename: str) -> str:
    m = _REPRO_PKG.search(filename)
    if m and m.group(1) in LAYERS:
        return m.group(1)
    if _NUMPY in filename:
        return "numpy"
    return "other"


def fold_profile(stats: Dict) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` (cProfile tottime) and ``calls`` from a
    ``pstats.Stats(...).stats`` table.

    A Python function belongs to the package its file is in.  A built-in
    belongs to numpy when it is a numpy callable; any other built-in
    (``heapq.heappop``, ``list.sort``...) is charged to the layers that
    called it, in proportion to the time each call edge spent.  Calls
    count Python functions (and numpy built-ins) only, so they measure
    the program's own work."""
    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS + ("other",)}
    for (filename, _line, func), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename != "~":
            layer = _layer_of(filename)
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
        elif "numpy" in func:
            out["numpy"]["self_s"] += tt
            out["numpy"]["calls"] += nc
        else:
            edges = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(edges.values())
            for caller, edge_tt in edges.items():
                layer = "other" if caller[0] == "~" else _layer_of(caller[0])
                share = edge_tt / total if total else 1.0 / len(edges)
                out[layer]["self_s"] += tt * share
            if not edges:
                out["other"]["self_s"] += tt
    return out


def calls_of(stats: Dict, suffix: str, func: str) -> int:
    """Call count of the function ``func`` defined in a file ending
    with ``suffix`` (0 when it never ran)."""
    return sum(v[1] for (filename, _l, name), v in stats.items()
               if name == func and filename.endswith(suffix))


def profile_metrics(profile, ops: int) -> Dict[str, float]:
    """``<layer>.self_share``, ``<layer>.calls_per_op`` and
    ``sim.steps_per_op`` from a cProfile of the timed region."""
    stats = pstats.Stats(profile).stats
    layers = fold_profile(stats)
    total = sum(v["self_s"] for v in layers.values())
    out = {}
    for name, v in layers.items():
        out[f"{name}.self_share"] = v["self_s"] / total
        out[f"{name}.calls_per_op"] = v["calls"] / ops
    out["sim.steps_per_op"] = calls_of(stats, "simulator.py", "step") / ops
    return out


def wrapper_metrics(subscribers: "SubscriberTimers", device: "DeviceTimer",
                    ops: int) -> Dict[str, float]:
    """Each observer's callback self time, and the mean time and count
    of the device's load/unload calls."""
    out = {f"telemetry.{label}.host_s": seconds
           for label, seconds in subscribers.seconds.items()}
    out["device.load_us"] = (device.seconds / device.calls * 1e6
                             if device.calls else 0.0)
    out["device.load_calls_per_op"] = device.calls / ops
    return out


class _TimedBus:
    """What one observer sees as its bus: its subscriptions reach the real
    bus through a timing wrapper; what it publishes goes straight through."""

    def __init__(self, real: EventBus, wrap: Callable) -> None:
        self._real, self._wrap = real, wrap

    def subscribe(self, callback, *event_types):
        return self._real.subscribe(self._wrap(callback), *event_types)

    def subscribe_all(self, callback):
        return self.subscribe(callback)

    def publish(self, event) -> None:
        self._real.publish(event)


class SubscriberTimers:
    """Host self time of each observer's bus callbacks."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self._children = []  # nested callback time, one slot per frame

    def bus_for(self, label: str, real: EventBus) -> _TimedBus:
        return _TimedBus(real, lambda cb: self._timed(label, cb))

    def _timed(self, label: str, callback: Callable) -> Callable:
        clock, children = time.perf_counter, self._children
        seconds = self.seconds

        def timed(event):
            children.append(0.0)
            start = clock()
            try:
                callback(event)
            finally:
                spent = clock() - start
                seconds[label] += spent - children.pop()
                if children:
                    children[-1] += spent
        return timed


class DeviceTimer:
    """Counts and times every ``Fpga.load``/``Fpga.unload`` call."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        for name in ("load", "unload"):
            setattr(Fpga, name, self._timed(getattr(Fpga, name)))

    def _timed(self, method: Callable) -> Callable:
        def timed(fpga, *args, **kwargs):
            start = time.perf_counter()
            try:
                return method(fpga, *args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1
        return timed


def cad_ledger(suite) -> Dict[str, object]:
    """Recompile ``suite`` cold under one ``CadInstrumentation`` and
    return the per-phase host time, SA and router counters, and the
    QoR of the instrumented compiles (which must equal the timed run's)."""
    instrument = CadInstrumentation()
    compiled = suite.compile_results(CompileCache(), instrument=instrument)
    phase_s = instrument.profile().phase_seconds
    moves = accepted = iterations = ripups = 0
    for event in instrument.events:
        if isinstance(event, CadAnnealStep):
            moves += event.moves
            accepted += event.accepted
        elif isinstance(event, CadRouteIteration):
            iterations += 1
            ripups += event.ripped_up
    nets = sum(r.n_nets for r in compiled)
    out: Dict[str, object] = {
        f"cad.{p}.host_s": phase_s.get(p, 0.0) for p in PHASES}
    out["cad.sa_acceptance"] = accepted / moves if moves else 0.0
    out["cad.route_iterations"] = iterations
    out["cad.route_ripups_per_net"] = ripups / nets if nets else 0.0
    return {"metrics": out, "compiled": compiled}
