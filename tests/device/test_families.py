"""Unit tests for architecture parameters and the family catalog."""

import dataclasses
import math

import pytest

from repro.device import FAMILIES, Architecture, get_family


class TestValidation:
    def test_tiny_array_rejected(self):
        with pytest.raises(ValueError):
            Architecture("bad", 1, 4)

    def test_k_range(self):
        with pytest.raises(ValueError):
            Architecture("bad", 4, 4, k=1)
        with pytest.raises(ValueError):
            Architecture("bad", 4, 4, k=7)

    def test_channel_width(self):
        with pytest.raises(ValueError):
            Architecture("bad", 4, 4, channel_width=1)


class TestDerived:
    def test_counts(self):
        a = Architecture("t", 4, 6, io_per_edge=2)
        assert a.n_clbs == 24
        assert a.n_pins == 2 * (2 * 4 + 2 * 6)
        assert a.full_rect.area == 24

    def test_sel_bits(self):
        a = Architecture("t", 4, 4, channel_width=8)
        # 4*8 = 32 candidates + open = 33 values -> 6 bits
        assert a.input_sel_bits == 6
        assert a.iob_sel_bits == math.ceil(math.log2(9))

    def test_clb_config_bits(self):
        a = Architecture("t", 4, 4, k=4, channel_width=8)
        assert a.clb_config_bits == 16 + 3 + 4 * 6 + 32

    def test_frame_accounting(self):
        a = Architecture("t", 4, 4)
        assert a.n_frames == 5
        assert a.total_config_bits == a.n_frames * a.frame_bits
        # CLB frame must fit its column + switch column
        assert a.frame_bits >= a.clb_column_bits + a.switchbox_column_bits
        assert a.frame_bits >= a.switchbox_column_bits + a.iob_total_bits

    def test_full_config_time_near_paper_figure(self):
        """Paper §2: XC4000-class full serial download <= 200 ms.  The
        largest catalog device must land in that era (tens to ~200 ms)."""
        big = get_family("VF32")
        assert 0.02 <= big.full_config_time <= 0.25

    def test_config_time_scales_with_area(self):
        assert get_family("VF32").full_config_time > get_family("VF8").full_config_time

    def test_scaled_override(self):
        a = get_family("VF8").scaled(serial_rate=2e6)
        assert a.serial_rate == 2e6
        assert a.width == 8


class TestCatalog:
    def test_monotone_sizes(self):
        sizes = [f.n_clbs for f in FAMILIES.values()]
        assert sizes == sorted(sizes)

    def test_get_family_error(self):
        with pytest.raises(KeyError, match="unknown family"):
            get_family("XC9999")

    def test_gate_counts_span_paper_range(self):
        gates = [f.equivalent_gates for f in FAMILIES.values()]
        assert min(gates) < 1000
        assert max(gates) > 20000


# -- cached bit-layout properties --------------------------------------------

def layout_formulas(a):
    """Closed forms of every cached layout property, from fields only."""
    isel = math.ceil(math.log2(4 * a.channel_width + 1))
    iobsel = math.ceil(math.log2(a.channel_width + 1))
    clb = (1 << a.k) + 3 + a.k * isel + 4 * a.channel_width
    sb = 6 * a.channel_width + 2 * a.long_per_channel
    iob = 2 + iobsel
    n_pins = a.io_per_edge * (2 * a.width + 2 * a.height)
    clb_col = a.height * clb
    sb_col = (a.height + 1) * sb
    frame = max(clb_col + sb_col, sb_col + n_pins * iob)
    return {
        "input_sel_bits": isel,
        "iob_sel_bits": iobsel,
        "clb_config_bits": clb,
        "switchbox_config_bits": sb,
        "iob_config_bits": iob,
        "n_frames": a.width + 1,
        "clb_column_bits": clb_col,
        "switchbox_column_bits": sb_col,
        "iob_total_bits": n_pins * iob,
        "frame_bits": frame,
        "total_config_bits": (a.width + 1) * frame,
    }


def assert_layout(a):
    for name, want in layout_formulas(a).items():
        assert getattr(a, name) == want, name


class TestCachedLayout:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_catalog_matches_formulas(self, name):
        a = FAMILIES[name]
        assert_layout(a)
        assert_layout(a)  # second read comes from the cache

    @pytest.mark.parametrize("name", ["VF8", "VF12", "VF16"])
    @pytest.mark.parametrize("changes", [
        {"channel_width": 4},
        {"channel_width": 12, "k": 6},
        {"k": 3},
        {"height": 5},
        {"channel_width": 6, "k": 5, "height": 20},
    ])
    def test_replaced_arch_recomputes(self, name, changes):
        base = get_family(name)
        assert_layout(base)  # warm the base instance's cache first
        variant = dataclasses.replace(base, **changes)
        assert_layout(variant)
        assert layout_formulas(variant) != layout_formulas(base)
        assert_layout(base)

    @pytest.mark.parametrize("name", ["VF8", "VF16"])
    def test_reading_keeps_eq_and_hash(self, name):
        a = dataclasses.replace(get_family(name))  # an empty cache
        fresh = dataclasses.replace(a)
        h = hash(a)
        assert_layout(a)
        assert a == dataclasses.replace(a)
        assert a == fresh and fresh == a
        assert hash(a) == h == hash(fresh)
        assert {a: 1}[fresh] == 1
