"""Capacity classes and bin machinery."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import binning
from repro.exceptions import BinningError


class TestBin:
    def test_lower_edge_exclusive(self):
        b = binning.Bin(1.0, 2.0)
        assert 1.0 not in b

    def test_upper_edge_inclusive(self):
        b = binning.Bin(1.0, 2.0)
        assert 2.0 in b

    def test_interior(self):
        assert 1.5 in binning.Bin(1.0, 2.0)

    def test_outside(self):
        b = binning.Bin(1.0, 2.0)
        assert 0.5 not in b
        assert 2.5 not in b

    def test_non_number_not_contained(self):
        assert "x" not in binning.Bin(1.0, 2.0)
        assert None not in binning.Bin(1.0, 2.0)
        assert complex(1.5, 0.0) not in binning.Bin(1.0, 2.0)

    @pytest.mark.parametrize(
        "value",
        [np.float32(1.5), np.float64(1.5), np.int64(2), Decimal("1.5")],
    )
    def test_non_builtin_real_numbers_contained(self, value):
        # Regression: the old isinstance(int, float) gate silently
        # rejected numpy scalars and Decimal, dropping those users from
        # BinSpec.group.
        assert value in binning.Bin(1.0, 2.0)

    @pytest.mark.parametrize(
        "value", [np.float32(0.5), np.float64(2.5), Decimal("0.5")]
    )
    def test_non_builtin_reals_outside(self, value):
        assert value not in binning.Bin(1.0, 2.0)

    def test_nan_not_contained(self):
        assert float("nan") not in binning.Bin(1.0, 2.0)
        assert np.float64("nan") not in binning.Bin(1.0, 2.0)

    def test_empty_bin_rejected(self):
        with pytest.raises(BinningError):
            binning.Bin(2.0, 2.0)

    def test_label(self):
        assert binning.Bin(3.2, 6.4).label() == "(3.2, 6.4] Mbps"

    def test_label_infinite(self):
        assert "inf" in binning.Bin(32.0, math.inf).label()

    def test_width(self):
        assert binning.Bin(1.0, 3.0).width == 2.0


class TestCapacityClass:
    def test_paper_class_definition(self):
        # Class k is (100 kbps * 2^(k-1), 100 kbps * 2^k].
        assert binning.capacity_class(0.15) == 1
        assert binning.capacity_class(0.2) == 1
        assert binning.capacity_class(0.201) == 2
        assert binning.capacity_class(0.4) == 2

    def test_upper_edges_belong_to_class(self):
        for k in range(1, 12):
            upper = binning.CAPACITY_CLASS_BASE_MBPS * 2**k
            assert binning.capacity_class(upper) == k

    def test_just_above_edge_next_class(self):
        for k in range(1, 10):
            upper = binning.CAPACITY_CLASS_BASE_MBPS * 2**k
            assert binning.capacity_class(upper * 1.0001) == k + 1

    def test_sub_base_maps_to_class_one(self):
        assert binning.capacity_class(0.05) == 1

    def test_non_positive_rejected(self):
        with pytest.raises(BinningError):
            binning.capacity_class(0.0)

    def test_bounds_round_trip(self):
        for k in range(1, 12):
            bounds = binning.capacity_class_bounds(k)
            mid = math.sqrt(bounds.low * bounds.high)
            assert binning.capacity_class(mid) == k

    def test_bounds_invalid_class(self):
        with pytest.raises(BinningError):
            binning.capacity_class_bounds(0)

    def test_spec_covers_contiguously(self):
        spec = binning.capacity_class_spec(10)
        for left, right in zip(spec, list(spec)[1:]):
            assert left.high == right.low


class TestCapacityClassBoundsConsistency:
    """``capacity_class`` and ``capacity_class_bounds`` must agree at,
    just below, and just above every class edge for classes 1..14."""

    @pytest.mark.parametrize("k", range(1, 15))
    def test_upper_edge_belongs_to_class_and_bin(self, k):
        upper = binning.capacity_class_bounds(k).high
        assert binning.capacity_class(upper) == k
        assert upper in binning.capacity_class_bounds(k)

    @pytest.mark.parametrize("k", range(1, 15))
    def test_just_below_upper_edge_stays_in_class(self, k):
        bounds = binning.capacity_class_bounds(k)
        value = math.nextafter(bounds.high, 0.0)
        assert binning.capacity_class(value) == k
        assert value in bounds

    @pytest.mark.parametrize("k", range(1, 15))
    def test_just_above_upper_edge_is_next_class(self, k):
        bounds = binning.capacity_class_bounds(k)
        value = math.nextafter(bounds.high, math.inf)
        assert binning.capacity_class(value) == k + 1
        assert value not in bounds
        assert value in binning.capacity_class_bounds(k + 1)

    @pytest.mark.parametrize("k", range(2, 15))
    def test_lower_edge_belongs_to_previous_class(self, k):
        bounds = binning.capacity_class_bounds(k)
        assert bounds.low not in bounds
        assert binning.capacity_class(bounds.low) == k - 1

    @pytest.mark.parametrize("k", range(1, 15))
    def test_spec_agrees_with_scalar_classifier(self, k):
        spec = binning.capacity_class_spec(15)
        bounds = binning.capacity_class_bounds(k)
        for value in (
            math.nextafter(bounds.low, math.inf),
            math.sqrt(bounds.low * bounds.high),
            bounds.high,
        ):
            assert spec.index_of(value) == binning.capacity_class(value) - 1


class TestBinSpec:
    def test_index_of(self):
        spec = binning.explicit_bins([(0.0, 1.0), (1.0, 8.0)])
        assert spec.index_of(0.5) == 0
        assert spec.index_of(1.0) == 0
        assert spec.index_of(4.0) == 1
        assert spec.index_of(9.0) is None

    def test_bin_of_none_outside(self):
        spec = binning.explicit_bins([(1.0, 2.0)])
        assert spec.bin_of(5.0) is None

    def test_overlapping_rejected(self):
        with pytest.raises(BinningError):
            binning.explicit_bins([(0.0, 2.0), (1.0, 3.0)])

    def test_gaps_allowed(self):
        spec = binning.explicit_bins([(0.0, 1.0), (2.0, 3.0)])
        assert spec.bin_of(1.5) is None

    def test_empty_rejected(self):
        with pytest.raises(BinningError):
            binning.BinSpec([])

    def test_ordering_normalized(self):
        spec = binning.explicit_bins([(2.0, 3.0), (0.0, 1.0)])
        assert spec[0].low == 0.0

    def test_group_drops_out_of_range(self):
        spec = binning.explicit_bins([(0.0, 1.0)])
        grouped = spec.group([(0.5, "a"), (2.0, "b")])
        assert sum(len(v) for v in grouped.values()) == 1

    def test_group_collects_payloads(self):
        spec = binning.explicit_bins([(0.0, 1.0), (1.0, 2.0)])
        grouped = spec.group([(0.5, "a"), (0.7, "b"), (1.5, "c")])
        assert grouped[spec[0]] == ["a", "b"]
        assert grouped[spec[1]] == ["c"]

    def test_len_and_getitem(self):
        spec = binning.explicit_bins([(0.0, 1.0), (1.0, 2.0)])
        assert len(spec) == 2
        assert spec[1].high == 2.0


class TestGeometricBins:
    def test_doubling(self):
        spec = binning.geometric_bins(0.1, 3)
        assert spec[0].low == pytest.approx(0.1)
        assert spec[0].high == pytest.approx(0.2)
        assert spec[2].high == pytest.approx(0.8)

    def test_invalid_base_rejected(self):
        with pytest.raises(BinningError):
            binning.geometric_bins(0.0, 3)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(BinningError):
            binning.geometric_bins(1.0, 3, ratio=1.0)


class TestPaperBinConstants:
    def test_case_study_tiers_cover_all_capacities(self):
        spec = binning.explicit_bins(binning.CASE_STUDY_TIERS)
        for capacity in (0.3, 1.0, 5.0, 12.0, 20.0, 100.0, 900.0):
            assert spec.bin_of(capacity) is not None

    def test_price_bins_match_paper(self):
        spec = binning.explicit_bins(binning.PRICE_OF_ACCESS_BINS_USD)
        assert spec.index_of(20.0) == 0
        assert spec.index_of(25.0) == 0
        assert spec.index_of(40.0) == 1
        assert spec.index_of(60.0) == 1
        assert spec.index_of(150.0) == 2

    def test_upgrade_cost_bins_match_paper(self):
        spec = binning.explicit_bins(binning.UPGRADE_COST_BINS_USD)
        assert spec.index_of(0.5) == 0
        assert spec.index_of(0.9) == 1
        assert spec.index_of(40.0) == 2

    def test_latency_bins_match_table7(self):
        spec = binning.explicit_bins(binning.LATENCY_BINS_MS)
        assert len(spec) == 5
        assert spec[4].low == 512.0
        assert spec[4].high == 2048.0

    def test_loss_bins_match_table8(self):
        spec = binning.explicit_bins(binning.LOSS_BINS_FRACTION)
        # Fractions of 0.01% / 0.1% / 1% / 15%.
        assert spec[0].high == pytest.approx(1e-4)
        assert spec[3].high == pytest.approx(0.15)

    def test_upgrade_tiers_match_fig5(self):
        assert binning.UPGRADE_TIERS_MBPS[0] == (0.25, 1.0)
        assert binning.UPGRADE_TIERS_MBPS[-1] == (64.0, 256.0)


def _linear_index_of(spec, value):
    """The reference lookup: first bin whose membership test accepts."""
    return next((i for i, b in enumerate(spec) if value in b), None)


@st.composite
def bin_specs(draw):
    """Sorted, non-overlapping bins over integer edges, with optional
    gaps between bins and an optional infinite last upper edge."""
    n_bins = draw(st.integers(1, 6))
    edges = sorted(
        draw(
            st.sets(
                st.integers(-20, 40), min_size=2 * n_bins, max_size=2 * n_bins
            )
        )
    )
    bins = []
    for i in range(n_bins):
        low, high = edges[2 * i], edges[2 * i + 1]
        if i and draw(st.booleans()):
            low = bins[-1][1]  # adjacent to the previous bin, no gap
        bins.append((low, high))
    if draw(st.booleans()):
        bins[-1] = (bins[-1][0], math.inf)
    scale = draw(st.sampled_from((1, 0.1, 0.25)))
    return binning.explicit_bins(
        [(low * scale, high * scale) for low, high in bins]
    )


@st.composite
def probe_values(draw, spec):
    """Values to look up: on, next to, between and outside the edges,
    in every numeric type a bin accepts, plus non-numbers."""
    edges = [e for b in spec for e in (b.low, b.high) if math.isfinite(e)]
    base = draw(
        st.one_of(
            st.sampled_from(edges),
            st.sampled_from(edges).map(lambda e: math.nextafter(e, math.inf)),
            st.sampled_from(edges).map(lambda e: math.nextafter(e, -math.inf)),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-30, 50),
        )
    )
    kind = draw(
        st.sampled_from(
            ("float", "int", "float64", "float32", "int64", "decimal", "bool")
        )
    )
    if kind == "int" or kind == "int64":
        if not float(base).is_integer() or abs(base) > 2**62:
            return base
        return int(base) if kind == "int" else np.int64(int(base))
    if kind == "float64":
        return np.float64(base)
    if kind == "float32":
        # Bases past float32's range round to +-inf, which is the probe
        # wanted; only the cast's overflow warning is unwanted.
        with np.errstate(over="ignore"):
            return np.float32(base)
    if kind == "decimal":
        return Decimal(base) if not math.isnan(base) else Decimal("Infinity")
    if kind == "bool":
        return bool(base)
    return float(base)


class TestIndexOfProperty:
    """The bisect lookup is the linear membership scan, everywhere."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equals_linear_scan(self, data):
        spec = data.draw(bin_specs())
        for _ in range(8):
            value = data.draw(probe_values(spec))
            assert spec.index_of(value) == _linear_index_of(spec, value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_vectorized_lookup_on_floats(self, data):
        spec = data.draw(bin_specs())
        values = [float(data.draw(probe_values(spec))) for _ in range(8)]
        vectorized = spec.index_of_array(np.array(values))
        assert [
            -1 if spec.index_of(v) is None else spec.index_of(v)
            for v in values
        ] == vectorized.tolist()

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, np.float64("nan"),
         Decimal("Infinity"), Decimal("-Infinity"), None, "1.5", b"1",
         complex(1.5, 0.0), [1.5]],
    )
    def test_special_values(self, value):
        for spec in (
            binning.explicit_bins(binning.CASE_STUDY_TIERS),
            binning.explicit_bins([(0.0, 1.0), (2.0, 3.0)]),
            binning.capacity_class_spec(),
        ):
            assert spec.index_of(value) == _linear_index_of(spec, value)

    def test_edges_of_paper_specs(self):
        for spec in (
            binning.capacity_class_spec(),
            binning.explicit_bins(binning.PRICE_OF_ACCESS_BINS_USD),
            binning.explicit_bins(binning.LOSS_BINS_FRACTION),
        ):
            for b in spec:
                for edge in (b.low, b.high):
                    for value in (
                        edge,
                        math.nextafter(edge, math.inf),
                        math.nextafter(edge, -math.inf),
                        Decimal(edge) if math.isfinite(edge) else edge,
                    ):
                        assert spec.index_of(value) == _linear_index_of(
                            spec, value
                        )
