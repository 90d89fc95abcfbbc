"""CAD-kernel microbenchmarks: numpy place/route kernels vs the python
references.

The numpy kernels replace the per-terminal python loops in the SA
placer's move evaluation and the router's per-node cost function with
array kernels — same RNG stream, same accepted moves, same routed
trees, bit-identical results.  The python formulations live on as the
reference kernels in ``tests/cad/oracles.py``.  These microbenchmarks
isolate each kernel (the full-flow wins are E13d's job) and pin the
contract the speedup rides on: *identical output first, faster second*.

Mirrors ``test_delta_microbench.py``: simulated-result equality asserted
exactly, wall-clock compared with generous CI margins, one table per
quantity emitted into the artifact stream.
"""

import time

from _harness import emit

from repro.analysis import format_table
from repro.cad import (
    NetSpec,
    Router,
    RoutingGraph,
    compile_netlist,
    nets_of,
    pack,
    place,
    technology_map,
)
from repro.cad.flow import _virtual_pin_pool, minimal_region
from repro.device import get_family
from repro.netlist import moving_sum_fir
from tests.cad.oracles import ScalarRouter, reference_place

ARCH = get_family("VF16")
N_ROUNDS = 3  # best-of-N: results are deterministic, only timing jitters


def packed_fir():
    """The E13d target design: placement-bound (169 BLEs, a 49-terminal
    net) — large enough that kernel time dominates setup."""
    mapped = technology_map(moving_sum_fir(8, 4), ARCH.k)
    return pack(mapped, ARCH.k)


def test_sa_kernel_scalar_vs_vector(benchmark):
    design = packed_fir()
    io_count = len(design.inputs) + len(design.outputs)
    region = minimal_region(design.n_clbs, io_count, ARCH)

    def run_engines():
        out = {}
        for engine, run in (("scalar", reference_place), ("vector", place)):
            best, coords = None, None
            for _ in range(N_ROUNDS):
                t0 = time.perf_counter()
                p = run(design, region, seed=3, effort="sa")
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
                coords = p.coords
            out[engine] = (best, coords)
        return out

    out = benchmark.pedantic(run_engines, rounds=1, iterations=1)
    (s, s_coords), (v, v_coords) = out["scalar"], out["vector"]
    # Bit-exact: the engine may only change how fast moves are scored,
    # never which moves are accepted or where BLEs land.
    assert v_coords == s_coords
    # The vectorized kernel must win outright on a placement-bound
    # design (measured ~2x; strict inequality leaves CI headroom).
    assert v < s, f"vector SA kernel slower: {v * 1e3:.1f}ms vs {s * 1e3:.1f}ms"

    emit("cad_microbench_sa", format_table(
        [{"engine": e, "place_ms": round(t * 1e3, 2),
          "vs_scalar": f"{t / s:.2f}x"}
         for e, (t, _) in out.items()],
        title=f"SA placement kernel: {design.n_clbs} BLEs on "
              f"{ARCH.name} {region.w}x{region.h} (identical coords)",
    ))


def route_inputs():
    """Routing inputs built exactly as the flow builds them (relocatable
    mode), so the microbench routes the real net list of the design."""
    design = packed_fir()
    io_count = len(design.inputs) + len(design.outputs)
    region = minimal_region(design.n_clbs, io_count, ARCH)
    placement = place(design, region, seed=3, effort="sa")
    pool = _virtual_pin_pool(ARCH, region)
    virtual_inputs = {p: pool[i] for i, p in enumerate(design.inputs)}
    virtual_outputs = {
        p: pool[len(pool) - 1 - j]
        for j, p in enumerate(sorted(design.outputs))
    }
    ble_names = {b.name for b in design.bles}
    specs = {}
    for src, sinks in nets_of(design).items():
        source = (("clb", placement.coords[src]) if src in ble_names
                  else ("wire", virtual_inputs[src]))
        specs[src] = NetSpec(name=src, source=source, sinks=[
            ("clbpin", placement.coords[b], pin) for b, pin in sinks
        ])
    for port, src in design.outputs.items():
        if src not in specs:
            specs[src] = NetSpec(
                name=src, source=("clb", placement.coords[src]), sinks=[]
            )
        specs[src].sinks.append(("wire", virtual_outputs[port]))
    graph = RoutingGraph(ARCH, region=region)
    reserved = {graph.wire_id(w): p for p, w in virtual_inputs.items()}
    for port, w in virtual_outputs.items():
        reserved[graph.wire_id(w)] = design.outputs[port]
    return graph, reserved, [specs[n] for n in sorted(specs)]


def test_route_kernel_scalar_vs_vector(benchmark):
    graph, reserved, net_list = route_inputs()

    def run_engines():
        out = {}
        for engine, cls in (("scalar", ScalarRouter), ("vector", Router)):
            best, routed = None, None
            for _ in range(N_ROUNDS):
                router = cls(graph, reserved=dict(reserved))
                t0 = time.perf_counter()
                routed = router.route(net_list)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            out[engine] = (best, routed)
        return out

    out = benchmark.pedantic(run_engines, rounds=1, iterations=1)
    (s, s_routed), (v, v_routed) = out["scalar"], out["vector"]
    # Node-for-node identical trees: the cost vector is exact, not an
    # approximation of the scalar cost function.
    assert set(s_routed) == set(v_routed)
    for name in s_routed:
        assert v_routed[name].nodes == s_routed[name].nodes, name
        assert v_routed[name].switches == s_routed[name].switches, name
        assert v_routed[name].sink_taps == s_routed[name].sink_taps, name
    # Generous bound — the vector path wins, but by less than the SA
    # kernel (Dijkstra itself is untouched), so gate only disasters.
    assert v < s * 1.5, f"vector route kernel slower: {v * 1e3:.1f}ms " \
                        f"vs {s * 1e3:.1f}ms"

    emit("cad_microbench_route", format_table(
        [{"engine": e, "route_ms": round(t * 1e3, 2),
          "vs_scalar": f"{t / s:.2f}x"}
         for e, (t, _) in out.items()],
        title=f"PathFinder cost kernel: {len(net_list)} nets, "
              f"{len(graph)} RRG nodes on {ARCH.name} (identical trees)",
    ))


def test_warm_compile_is_a_metadata_hit():
    """Host-side: the compile cache turns a repeat compile into a
    dictionary lookup (the compile-path analogue of
    ``test_bitcache_removes_reencoding``)."""
    from repro.cad import CompileCache

    cache = CompileCache()
    t0 = time.perf_counter()
    cold = compile_netlist(moving_sum_fir(8, 4), ARCH, seed=3,
                           effort="sa", cache=cache)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(N_ROUNDS):
        warm = compile_netlist(moving_sum_fir(8, 4), ARCH, seed=3,
                               effort="sa", cache=cache)
        assert warm.bitstream == cold.bitstream
    warm_s = (time.perf_counter() - t0) / N_ROUNDS

    stats = cache.stats()
    assert stats["hits"] == N_ROUNDS
    assert stats["entries"] >= 1
    # Generous bound — the real margin is ~99%, but CI machines vary.
    assert warm_s < cold_s / 2
