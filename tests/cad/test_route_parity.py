"""Numpy PathFinder pricing vs the per-node python reference.

The router precomputes one cost vector
(``base * (1 + history) * (1 + pressure * over)``) per net instead of
calling the reference ``_node_cost`` (``tests/cad/oracles.py``) per
visited node inside Dijkstra.  Within one ``_route_net`` call only the
net's own commits change occupancy, and membership subtraction cancels
them — so the vector is *exact*, not an approximation, and the router
must produce node-for-node identical trees, the same overuse trajectory
and the same final occupancy as a router priced by the reference.
"""

import numpy as np
import pytest

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
from repro.netlist import alu, comparator, ripple_adder, serial_crc
from tests.cad.oracles import ScalarRouter, reference_kernels

ARCH = get_family("VF10")

CIRCUITS = [
    pytest.param(lambda: ripple_adder(4), id="adder4"),
    pytest.param(lambda: comparator(4), id="cmp4"),
    pytest.param(lambda: alu(3), id="alu3"),
    pytest.param(lambda: serial_crc(8, 0x07), id="crc8"),
]


def route_inputs(factory, seed=3):
    """Routing inputs built exactly as the flow builds them
    (relocatable mode)."""
    design = pack(technology_map(factory(), ARCH.k), ARCH.k)
    io_count = len(design.inputs) + len(design.outputs)
    region = minimal_region(design.n_clbs, io_count, ARCH)
    placement = place(design, region, seed=seed, effort="sa")
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


@pytest.mark.parametrize("factory", CIRCUITS)
@pytest.mark.parametrize("seed", [0, 3])
def test_engines_route_identically(factory, seed):
    graph, reserved, net_list = route_inputs(factory, seed=seed)
    routers = {}
    routed = {}
    for engine, cls in (("scalar", ScalarRouter), ("vector", Router)):
        r = cls(graph, reserved=dict(reserved))
        routed[engine] = r.route(net_list)
        routers[engine] = r
    s, v = routed["scalar"], routed["vector"]
    assert set(s) == set(v)
    for name in s:
        assert v[name].nodes == s[name].nodes, name
        assert v[name].source_taps == s[name].source_taps, name
        assert v[name].sink_taps == s[name].sink_taps, name
        assert v[name].switches == s[name].switches, name
        assert v[name].pad_taps == s[name].pad_taps, name
        assert v[name].sink_path_stats == s[name].sink_path_stats, name
    # Same negotiation trajectory, not just the same endpoint.
    assert routers["scalar"].overuse_history == \
        routers["vector"].overuse_history
    assert np.array_equal(routers["scalar"].occupancy,
                          routers["vector"].occupancy)
    assert np.array_equal(routers["scalar"].history,
                          routers["vector"].history)


def test_cost_vector_matches_node_cost_everywhere():
    """At every ``_route_net`` call of a full route, the cost vector
    equals the reference ``_node_cost`` at every node — infinity on
    nodes reserved for other nets included — both against the empty
    tree the call starts from and against the tree it commits, so the
    vector stays exact for the whole call."""
    node_cost = ScalarRouter._node_cost
    for param in CIRCUITS:
        graph, reserved, net_list = route_inputs(*param.values)
        router = Router(graph, reserved=reserved)
        route_net = router._route_net
        calls = []
        reserved_priced = 0

        def spy(net):
            nonlocal reserved_priced
            vec = router._net_cost_vector(net.name)
            for nid in range(len(graph)):
                assert vec[nid] == node_cost(router, nid, (), net.name), nid
            result = route_net(net)
            for nid in range(len(graph)):
                assert vec[nid] == node_cost(router, nid, result.nodes,
                                             net.name), nid
            reserved_priced += vec.count(float("inf"))
            calls.append(net.name)
            return result

        router._route_net = spy
        router.route(net_list)
        # Every net was priced, rip-up rounds included, and the
        # reservations were in force.
        assert len(calls) > len(net_list)
        assert reserved_priced > 0


def test_full_flow_bitstreams_engine_independent():
    """End to end: the reference kernels change nothing observable
    about a compile — bitstream, wirelength and critical path all
    match."""
    arch = get_family("VF10")
    with reference_kernels():
        base = compile_netlist(serial_crc(8, 0x07), arch, seed=3,
                               effort="sa")
    res = compile_netlist(serial_crc(8, 0x07), arch, seed=3, effort="sa")
    assert res.bitstream == base.bitstream
    assert res.wirelength == base.wirelength
    assert res.critical_path == base.critical_path
    assert res.placement.coords == base.placement.coords
