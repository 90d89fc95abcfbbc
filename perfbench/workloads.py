"""The three benchmark workloads, built from a seed through the public API.

Each workload object splits into the stages the benchmark times:

* ``__init__`` is set-up: netlists, registry, tasks, bus and observers;
* :meth:`run` is the timed region (one whole input, never truncated);
* :meth:`results` reads the model's outputs, checks them and returns the
  deterministic values (``model``) and work counts (``counts``).

Everything here goes through ``VirtualFpga.simulate``,
``VirtualFpga.add_circuit``, ``registry.register_synthetic`` and the public
telemetry subscribers, so internal rewrites of the run assembly do not
change what is measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, List, Optional

from repro.cad import CompileCache, compile_netlist, verify_bitstream
from repro.core import VirtualFpga
from repro.device import get_family
from repro.netlist import generators
from repro.osim import CpuBurst, FpgaOp, RoundRobin, Task, TaskState
from repro.telemetry import (
    Auditor,
    EventBus,
    FpgaComplete,
    FpgaRequest,
    MetricsAggregator,
    Profiler,
    QueueingDecomposition,
    SloEngine,
    SloObjective,
    SpanBuilder,
)

#: Bump when a recipe's meaning changes without its parameters changing.
RECIPE_VERSION = 1

RECIPES: Dict[str, Dict[str, object]] = {
    # ROADMAP item 1's reference load (the E20 shape).  Dynamic loading
    # saturates near 275 ops/s here, so the backlog grows all run long.
    "openloop-scale": {
        "family": "VF12", "port_rate": 4e6, "widths": [5, 5, 5],
        "critical_path": 25e-9, "tasks": 2000, "rate": 400.0,
        "cycles": 40_000, "policy": "dynamic", "rr_slice": 1e-3,
    },
    # Variable partitioning with the whole observer stack, below the knee.
    "partition-observed": {
        "family": "VF12", "port_rate": 4e6, "widths": [2, 3, 4, 5, 6, 7],
        "critical_path": 25e-9, "tasks": 1000, "rate": 300.0,
        "cycles": 20_000, "cpu_burst": 2e-4, "policy": "variable",
        "layout": "rect", "gc": "compact", "rr_slice": 1e-3,
        "slo_p99": 0.1,
    },
    # Cold compiles; placement-bound and routing-heavy designs mixed.
    "compile-suite": {
        "family": "VF16", "effort": "sa",
        "circuits": [
            ["array_multiplier", [5]],
            ["moving_sum_fir", [4, 4]],
            ["kogge_stone_adder", [8]],
            ["barrel_shifter", [16]],
            ["random_logic", [80, 10, 8, 4]],
            ["alu", [8]],
            ["comparator", [16]],
            ["accumulator", [6]],
            ["gray_counter", [6]],
            ["serial_crc", [8, 7]],
        ],
    },
}


def recipe_digest(workload: str, seed: int) -> str:
    """Checksum of everything that defines a run's input.  Two records
    with different digests measure different work and are never
    compared."""
    blob = json.dumps({"workload": workload, "seed": seed,
                       "version": RECIPE_VERSION,
                       "recipe": RECIPES[workload]}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def nearest_rank(sorted_values: List[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule."""
    idx = max(0, -(-int(q * 100) * len(sorted_values) // 100) - 1)
    return sorted_values[idx]


class OpLatencyProbe:
    """Pairs ``FpgaRequest`` with ``FpgaComplete`` by ``op_id`` and keeps
    each op's simulated latency.  A typed subscriber to two event types:
    the benchmark's own probe, not one of the observers under test."""

    def __init__(self, bus: EventBus) -> None:
        self._open: Dict[int, float] = {}
        self.latencies: List[float] = []
        bus.subscribe(self, FpgaRequest, FpgaComplete)

    def __call__(self, event) -> None:
        if type(event) is FpgaRequest:
            self._open[event.op_id] = event.time
        else:
            self.latencies.append(event.time - self._open.pop(event.op_id))

    @property
    def n_open(self) -> int:
        return len(self._open)


class SimWorkload:
    """A task stream run once through ``VirtualFpga.simulate``."""

    def __init__(self, name: str, seed: int,
                 observe: Optional[Callable[[str, EventBus], object]] = None
                 ) -> None:
        r = RECIPES[name]
        self.name, self.recipe = name, r
        arch = get_family(r["family"]).scaled(
            serial_rate=r["port_rate"], readback_rate=r["port_rate"])
        self.vf = VirtualFpga(arch)
        configs = [f"c{i}w{w}" for i, w in enumerate(r["widths"])]
        for cfg, w in zip(configs, r["widths"]):
            self.vf.registry.register_synthetic(
                cfg, w, arch.height, critical_path=r["critical_path"])
        rng = random.Random(seed)
        self.tasks = [self._task(i, configs, rng) for i in range(r["tasks"])]
        self.n_ops = sum(len(t.fpga_ops) for t in self.tasks)
        self.bus = EventBus()
        self.probe = OpLatencyProbe(self.bus)
        self.observers = self._observers(arch, observe)

    def _task(self, i: int, configs: List[str], rng: random.Random) -> Task:
        r = self.recipe
        if self.name == "openloop-scale":
            program = [FpgaOp(rng.choice(configs), r["cycles"])]
        else:
            a, b = rng.sample(configs, 2)
            program = [CpuBurst(r["cpu_burst"]), FpgaOp(a, r["cycles"]),
                       CpuBurst(r["cpu_burst"]), FpgaOp(b, r["cycles"])]
        return Task(f"t{i}", program, arrival=i / r["rate"])

    def _observers(self, arch, observe) -> Dict[str, object]:
        """The stack ``repro report``/``slo``/``audit`` users attach.
        ``observe(label, bus)`` lets the traced run hand each observer a
        bus that times its callbacks without changing what they see."""
        if self.name != "partition-observed":
            return {}

        def bus(label: str):
            return self.bus if observe is None else observe(label, self.bus)

        n_clbs = arch.n_clbs
        objective = SloObjective(name="p99", latency=self.recipe["slo_p99"],
                                 percentile=0.99)
        return {
            "auditor": Auditor(bus("auditor"), mode="strict",
                               clb_capacity=n_clbs),
            "profiler": Profiler(bus("profiler")),
            "metrics": MetricsAggregator(bus("metrics"), clb_capacity=n_clbs),
            "spans": SpanBuilder(bus("spans")),
            "slo": SloEngine([objective], bus("slo")),
            "queueing": QueueingDecomposition(bus("queueing")),
        }

    def run(self) -> None:
        r = self.recipe
        kw = {}
        if r["policy"] == "variable":
            kw = {"layout": r["layout"], "gc": r["gc"]}
        # A strict auditor raises on the first violation, failing the run.
        self.stats = self.vf.simulate(
            self.tasks, policy=r["policy"],
            scheduler=RoundRobin(time_slice=r["rr_slice"]),
            bus=self.bus, audit=self.observers.get("auditor"), **kw)
        slo = self.observers.get("slo")
        if slo is not None:
            slo.finish()

    def results(self) -> Dict[str, object]:
        failures = []
        done = sum(1 for t in self.tasks if t.state is TaskState.DONE
                   and t.accounting.n_fpga_ops == len(t.fpga_ops))
        lat = sorted(self.probe.latencies)
        failed_ops = self.n_ops - len(lat)
        if done != len(self.tasks):
            failures.append(f"{len(self.tasks) - done} tasks did not complete")
        if self.probe.n_open:
            failures.append(f"{self.probe.n_open} ops never completed")
        auditor = self.observers.get("auditor")
        if auditor is not None and auditor.violations:
            failures.append(f"{len(auditor.violations)} audit violations")
        if failures:
            return {"ops": self.n_ops, "failed": max(failed_ops, 1),
                    "failures": failures, "model": {}, "counts": {}}
        m = self.vf.last_service.metrics
        cache = self.vf.registry.bitcache.stats()
        lookups = cache["hits"] + cache["misses"]
        counts = {
            "loads": m.n_loads, "hits": m.n_hits, "misses": m.n_misses,
            "evictions": m.n_evictions, "compactions": m.n_compactions,
            "relocations": m.n_relocations,
            "frames_written": m.frames_written,
            "bitcache_hits": cache["hits"], "bitcache_lookups": lookups,
            "context_switches": self.vf.last_kernel.total_context_switches,
            "preemptions": self.stats.n_preemptions,
            "events": self.bus.n_published,
        }
        model = {
            "sim_ops_per_s": self.n_ops / self.stats.makespan,
            "sim_op_p99_ms": nearest_rank(lat, 0.99) * 1e3,
            "sim_op_p50_ms": nearest_rank(lat, 0.50) * 1e3,
            "sim_op_samples": len(lat),
            "sim_makespan_s": self.stats.makespan,
            "sim_last_arrival_s": self.tasks[-1].arrival,
        }
        decomp = self.observers.get("queueing")
        if decomp is not None:
            for stage, share in sorted(decomp.stage_shares().items()):
                model[f"sim_{stage}_share"] = share
        return {"ops": self.n_ops, "failed": 0, "failures": [],
                "model": model, "counts": counts}


class CompileSuite:
    """A fixed circuit list compiled cold through ``add_circuit``."""

    def __init__(self, name: str, seed: int) -> None:
        r = RECIPES[name]
        self.name, self.recipe = name, r
        rng = random.Random(seed)
        self.circuits = []
        for gen, args in r["circuits"]:
            label = f"{gen}_{'_'.join(map(str, args))}"
            netlist = getattr(generators, gen)(*args)
            self.circuits.append((label, netlist, rng.randrange(2 ** 31)))
        self.n_ops = len(self.circuits)
        self.vf = VirtualFpga(r["family"])

    def run(self) -> None:
        for label, netlist, place_seed in self.circuits:
            self.vf.add_circuit(netlist, name=label, seed=place_seed,
                                effort=self.recipe["effort"])

    def compile_results(self, cache: CompileCache, instrument=None):
        """Each circuit's :class:`CompileResult` through ``cache`` (the
        registry's warm cache returns the timed compile's own results)."""
        return [compile_netlist(netlist, self.vf.arch, seed=place_seed,
                                effort=self.recipe["effort"], cache=cache,
                                instrument=instrument)
                for _label, netlist, place_seed in self.circuits]

    def results(self) -> Dict[str, object]:
        cache = self.vf.registry.compile_cache
        hits_before = cache.hits
        compiled = self.compile_results(cache)
        failures = []
        if cache.hits - hits_before != self.n_ops:
            failures.append("compile cache did not return the timed results")
        failed = 0
        for label, netlist, _seed in self.circuits:
            entry = self.vf.registry.get(label)
            try:
                verify_bitstream(netlist, entry.bitstream, self.vf.arch)
            except Exception as exc:  # any failure is a failed op
                failed += 1
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
        if failures:
            return {"ops": self.n_ops, "failed": max(failed, 1),
                    "failures": failures, "model": {}, "counts": {}}
        model = qor(compiled)
        stats = cache.stats()
        counts = {"compile_cache_misses": stats["misses"],
                  "clbs": sum(r.design.n_clbs for r in compiled)}
        return {"ops": self.n_ops, "failed": 0, "failures": [],
                "model": model, "counts": counts}


def qor(compiled) -> Dict[str, object]:
    return {
        "qor_crit_path_ns": sum(r.critical_path for r in compiled) * 1e9,
        "qor_wirelength": sum(r.wirelength for r in compiled),
    }


def build(name: str, seed: int, observe=None):
    if name == "compile-suite":
        return CompileSuite(name, seed)
    return SimWorkload(name, seed, observe)
