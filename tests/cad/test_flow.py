"""End-to-end CAD flow tests: compile → load → decode → equivalence."""

import pytest

from repro.cad import (
    PinCapacityError,
    PlacementError,
    compile_netlist,
    minimal_region,
    verify_bitstream,
    virtual_pin_capacity,
)
from repro.cad.flow import _virtual_pin_pool
from repro.device import FAMILIES, Fpga, Rect, Wire, get_family
from repro.netlist import (
    alu,
    comparator,
    counter,
    lfsr,
    moore_fsm,
    parity_tree,
    ripple_adder,
    serial_crc,
    shift_register,
)

ARCH = get_family("VF8")


@pytest.mark.parametrize(
    "nl_factory",
    [
        lambda: parity_tree(5),
        lambda: ripple_adder(3),
        lambda: comparator(3),
        lambda: alu(2),
        lambda: counter(4),
        lambda: serial_crc(4, 0x3),
        lambda: lfsr(5),
        lambda: moore_fsm(8, 2, seed=6),
        lambda: shift_register(5),
    ],
    ids=["parity", "adder", "cmp", "alu", "counter", "crc", "lfsr", "fsm", "shift"],
)
def test_compile_and_verify_relocatable(nl_factory):
    nl = nl_factory()
    res = compile_netlist(nl, ARCH, seed=1, effort="greedy")
    verify_bitstream(nl, res.bitstream, ARCH)
    assert res.bitstream.relocatable
    assert res.critical_path > 0


def test_compile_and_verify_dedicated():
    nl = ripple_adder(3)
    res = compile_netlist(nl, ARCH, mode="dedicated", seed=1)
    verify_bitstream(nl, res.bitstream, ARCH)
    assert not res.bitstream.relocatable
    assert res.bitstream.pad_inputs and res.bitstream.pad_outputs


def test_relocated_bitstream_still_correct():
    nl = serial_crc(4, 0x3)
    res = compile_netlist(nl, ARCH, seed=1, effort="greedy")
    r = res.bitstream.region
    moved = res.bitstream.translated(ARCH.width - r.x2, ARCH.height - r.y2)
    verify_bitstream(nl, moved, ARCH)


def test_two_circuits_coexist_and_verify():
    a = compile_netlist(parity_tree(4), ARCH, region=Rect(0, 0, 3, 3), seed=1).bitstream
    b = compile_netlist(counter(3), ARCH, region=Rect(0, 0, 3, 3), seed=1).bitstream
    fpga = Fpga(ARCH)
    fpga.load("a", a)
    fpga.load("b", b.translated(4, 4))
    va, vb = fpga.view("a"), fpga.view("b")
    assert va.evaluate({f"d[{i}]": 1 for i in range(4)})["p"] == 0
    outs = [vb.step({"en": 1}) for _ in range(3)]
    assert [o["q[0]"] for o in outs] == [0, 1, 0]


def test_state_bits_metadata_complete():
    nl = counter(4)
    res = compile_netlist(nl, ARCH, seed=1, effort="greedy")
    assert set(res.bitstream.state_bits) == {f"q{i}_ff" for i in range(4)}


def test_area_failure():
    with pytest.raises(PlacementError):
        compile_netlist(ripple_adder(4), ARCH, region=Rect(0, 0, 2, 2))


def test_pin_capacity_failure_relocatable():
    # 2x2 region with cw=8 has 32 virtual pins; adder8 needs 8+8+1+8+1 = 26
    # ports — force failure with a tiny region and a wide circuit.
    small = get_family("VF8").scaled(channel_width=2)
    with pytest.raises((PinCapacityError, PlacementError)):
        compile_netlist(ripple_adder(8), small, region=Rect(0, 0, 2, 2))


def test_pin_capacity_failure_dedicated():
    tiny = get_family("VF4").scaled(io_per_edge=1)  # 16 pins
    with pytest.raises(PinCapacityError):
        compile_netlist(ripple_adder(8), tiny, mode="dedicated")


def test_minimal_region_grows_for_pins():
    # Few CLBs but many I/Os must still get a big enough boundary.
    r = minimal_region(2, 40, ARCH)
    assert virtual_pin_capacity(ARCH, r) >= 40


def test_compile_deterministic():
    nl = ripple_adder(3)
    b1 = compile_netlist(nl, ARCH, seed=5).bitstream
    b2 = compile_netlist(nl, ARCH, seed=5).bitstream
    assert b1.clbs == b2.clbs
    assert b1.switches == b2.switches


def test_seed_changes_placement():
    nl = ripple_adder(3)
    b1 = compile_netlist(nl, ARCH, seed=1).bitstream
    b2 = compile_netlist(nl, ARCH, seed=2).bitstream
    assert b1.clbs != b2.clbs  # different placement → different tile configs


def test_dedicated_region_override_rejected():
    with pytest.raises(ValueError):
        compile_netlist(counter(2), ARCH, mode="dedicated", region=Rect(0, 0, 2, 2))


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        compile_netlist(counter(2), ARCH, mode="warp")


def test_timing_report_sane():
    res = compile_netlist(ripple_adder(4), ARCH, seed=1, effort="greedy")
    assert res.timing.critical_path > ARCH.lut_delay
    assert res.timing.fmax < 1e9  # sub-GHz for a mid-90s fabric
    assert res.timing.critical_kind in ("to-output", "to-register")
    deeper = compile_netlist(ripple_adder(6), get_family("VF10"), seed=1,
                             effort="greedy")
    assert deeper.timing.critical_path > res.timing.critical_path


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_virtual_pin_pool_lists_each_boundary_wire_once(family):
    """The pool enumerates the region's bottom horizontal and left
    vertical channel wires, every track, each exactly once — for every
    region shape and anchor on the device."""
    arch = FAMILIES[family]
    cw = arch.channel_width
    sizes = sorted({1, 2, arch.width // 2, arch.width})
    for w in sizes:
        for h in sizes:
            for x, y in {(0, 0), (arch.width - w, arch.height - h)}:
                region = Rect(x, y, w, h)
                pool = _virtual_pin_pool(arch, region)
                boundary = {
                    Wire("H", cx, y, t)
                    for cx in region.columns() for t in range(cw)
                } | {
                    Wire("V", x, cy, t)
                    for cy in range(y, region.y2) for t in range(cw)
                }
                assert len(pool) == len(boundary) == \
                    virtual_pin_capacity(arch, region)
                assert set(pool) == boundary
