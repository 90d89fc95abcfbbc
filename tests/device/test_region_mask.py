"""Slice-built region masks against the per-CLB loop they replaced.

``Fpga._region_mask`` sets a region's CLB fields and its switch-box
fields as one slice each per column range.  The reference below is the
former loop, kept verbatim: it sets every CLB's and every switch box's
field one at a time.  Both must give the same mask bit for bit, and
``Fpga.scrub`` (which reads owned bits through the mask) must still tell
owned upsets from unowned ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import (
    Bitstream,
    ClbConfig,
    Fpga,
    IobConfig,
    IobDirection,
    Rect,
    get_family,
)
from repro.device.interconnect import iob_sites

FAMILY_NAMES = ("VF8", "VF12", "VF16")


def reference_region_mask(fpga, bs):
    """The per-CLB double loop ``_region_mask`` used to run."""
    a = fpga.arch
    mask = np.zeros((a.n_frames, a.frame_bits), dtype=np.uint8)
    if not bs.relocatable:
        mask[:] = 1
        return mask
    r = bs.region
    for x in r.columns():
        for y in range(r.y, r.y2):
            off = fpga.codec.clb_offset(y)
            mask[x, off : off + a.clb_config_bits] = 1
            off = fpga.codec.switch_offset_in_clb_frame(y)
            mask[x, off : off + a.switchbox_config_bits] = 1
    for site in bs.iobs:
        off = fpga.codec.iob_offset(site)
        mask[a.width, off : off + a.iob_config_bits] = 1
    return mask


def bitstream(arch, region, relocatable=True, iobs=()):
    """A bitstream over ``region`` with one configured CLB at its origin.

    The mask depends only on region, relocatability and IOB sites, so
    this is enough content for the mask; ``scrub`` tests load it.
    """
    clbs = {
        next(region.coords()): ClbConfig(
            lut_truth=0xBEEF, input_sel=(0,) * arch.k
        )
    }
    return Bitstream(
        name="b", arch_name=arch.name, region=region, clbs=clbs,
        relocatable=relocatable,
        iobs={s: IobConfig(True, IobDirection.INPUT, 1) for s in iobs},
    )


@st.composite
def family_and_region(draw):
    arch = get_family(draw(st.sampled_from(FAMILY_NAMES)))
    x = draw(st.integers(0, arch.width - 1))
    y = draw(st.integers(0, arch.height - 1))
    w = draw(st.integers(1, arch.width - x))
    h = draw(st.integers(1, arch.height - y))
    return arch, Rect(x, y, w, h)


def assert_same_mask(fpga, bs):
    got = fpga._region_mask(bs)
    want = reference_region_mask(fpga, bs)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestMaskParity:
    @given(family_and_region())
    @settings(max_examples=150, deadline=None)
    def test_relocatable_regions(self, drawn):
        arch, region = drawn
        assert_same_mask(Fpga(arch), bitstream(arch, region))

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @pytest.mark.parametrize("corner", ["top-right", "right", "top", "full"])
    def test_edge_regions(self, name, corner):
        arch = get_family(name)
        W, H = arch.width, arch.height
        region = {
            "top-right": Rect(W - 3, H - 2, 3, 2),
            "right": Rect(W - 1, 0, 1, H),
            "top": Rect(0, H - 1, W, 1),
            "full": Rect(0, 0, W, H),
        }[corner]
        assert region.x2 == W or region.y2 == H
        assert_same_mask(Fpga(arch), bitstream(arch, region))

    @given(family_and_region(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relocatable_with_iobs(self, drawn, data):
        # validate() refuses relocatable IOBs, but the mask itself must
        # still add each site's field in the final frame.
        arch, region = drawn
        sites = data.draw(
            st.lists(st.sampled_from(iob_sites(arch)), max_size=6, unique=True)
        )
        assert_same_mask(Fpga(arch), bitstream(arch, region, iobs=sites))

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_dedicated_owns_everything(self, name):
        arch = get_family(name)
        fpga = Fpga(arch)
        bs = bitstream(arch, arch.full_rect, relocatable=False,
                       iobs=iob_sites(arch)[:3])
        assert_same_mask(fpga, bs)
        assert fpga._region_mask(bs).all()


class TestScrubThroughMask:
    @given(family_and_region(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_flags_owned_flip_ignores_unowned(self, drawn, data):
        arch, region = drawn
        fpga = Fpga(arch)
        bs = bitstream(arch, region)
        fpga.load("b", bs)
        assert fpga.scrub() == []
        owned = reference_region_mask(fpga, bs)
        frames = sorted(bs.frames_touched(arch))

        # An unowned bit inside one of the region's own frames.
        unowned = [(fx, int(b)) for fx in frames
                   for b in np.flatnonzero(owned[fx] == 0)]
        if unowned:
            fx, bit = data.draw(st.sampled_from(unowned))
            fpga.ram.flip_bit(fx, bit)
            assert fpga.scrub() == []
            fpga.ram.flip_bit(fx, bit)

        fx = data.draw(st.sampled_from(frames))
        bit = int(data.draw(st.sampled_from(list(np.flatnonzero(owned[fx])))))
        fpga.ram.flip_bit(fx, bit)
        assert fpga.scrub() == ["b"]
