"""Robustness regression: dirty-but-sanitized worlds reproduce the paper.

The issue's bar: at ``light`` and ``default`` severity the capacity
(Table 2) and price (Table 3) experiments must reach the clean world's
findings. With ~50-80 matched pairs per comparison, binomial p-values
sitting *at* the 0.05 threshold legitimately wobble when sanitization
removes a handful of hosts — so the contract is stated robustly:

* every **decisive** clean verdict (p below alpha/2) must still reject
  the null, in the same direction;
* no comparison may **materially flip direction** (both worlds clearing
  a 5-point margin from 50% on opposite sides);
* the dirty world must never mint a *contradictory* significant finding
  (rejecting the null in the direction the clean world's data oppose).

At ``heavy`` severity the pipeline must *run* — the analyses degrade
gracefully — but no verdict is guaranteed.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis import capacity, price
from tests.analysis.record_model import to_records

#: Minimum matched pairs before a comparison's direction is meaningful.
_MIN_PAIRS = 30
#: fraction_holds must clear 0.5 by this much to count as a direction.
_DIRECTION_MARGIN = 0.05


def _direction(result) -> int:
    """+1 / -1 for a material direction, 0 for too-close-to-call."""
    if result.n_pairs < _MIN_PAIRS:
        return 0
    if abs(result.fraction_holds - 0.5) <= _DIRECTION_MARGIN:
        return 0
    return 1 if result.fraction_holds > 0.5 else -1


def _is_decisive(result) -> bool:
    """Rejects the null with margin: the verdict must survive faults."""
    return result.rejects_null and result.p_value < result.alpha / 2


def _assert_experiments_agree(clean, dirty, label):
    if _direction(clean) * _direction(dirty) == -1:
        pytest.fail(
            f"{label}: direction flipped (clean holds="
            f"{clean.fraction_holds:.3f}, dirty holds="
            f"{dirty.fraction_holds:.3f})"
        )
    if _is_decisive(clean):
        assert dirty.rejects_null, (
            f"{label}: decisive clean verdict lost "
            f"(clean p={clean.p_value:.3g}, dirty p={dirty.p_value:.3g} "
            f"holds={dirty.fraction_holds:.3f})"
        )
    if dirty.rejects_null and _direction(clean) != 0:
        assert _direction(clean) == 1, (
            f"{label}: dirty world rejects the null against the clean "
            f"world's direction (clean holds={clean.fraction_holds:.3f})"
        )


def _table2_by_bin(result):
    return {row.control_bin.low: row.experiment.result for row in result.rows}


@pytest.fixture(params=["light", "default"])
def profile(request):
    return request.param


@pytest.fixture
def faulted_world(profile, request):
    return request.getfixturevalue(f"faulted_world_{profile}")


class TestDirectionalFindingsSurvive:
    def test_capacity_experiment_matches_clean_world(
        self, small_world, faulted_world, profile
    ):
        clean = _table2_by_bin(capacity.table2(small_world.dasu.columns, "dasu"))
        dirty = _table2_by_bin(capacity.table2(faulted_world.dasu.columns, "dasu"))
        common = sorted(set(clean) & set(dirty))
        # Sanitization may drop a thin edge class, but the bulk of the
        # capacity ladder must survive at these severities.
        assert len(common) >= max(2, len(clean) - 1)
        decisive = [low for low in common if _is_decisive(clean[low])]
        assert decisive, "clean world lost its headline capacity findings"
        for low in common:
            _assert_experiments_agree(
                clean[low], dirty[low], f"table2[{profile}] control>{low}"
            )

    def test_capacity_headline_direction_preserved(
        self, small_world, faulted_world, profile
    ):
        # The paper's finding: higher capacity classes demand more. The
        # majority of well-populated comparisons must stay positive.
        dirty = capacity.table2(faulted_world.dasu.columns, "dasu")
        populated = [
            row.experiment.result
            for row in dirty.rows
            if row.experiment.result.n_pairs >= _MIN_PAIRS
        ]
        assert populated
        positive = sum(1 for r in populated if r.fraction_holds > 0.5)
        assert positive >= len(populated) / 2

    def test_price_experiment_matches_clean_world(
        self, small_world, faulted_world, profile
    ):
        clean = price.table3(small_world.dasu.columns)
        dirty = price.table3(faulted_world.dasu.columns)
        for (label, _, c), (_, _, d) in zip(clean.rows(), dirty.rows()):
            _assert_experiments_agree(
                c.result, d.result, f"table3[{profile}] {label}"
            )

    def test_price_direction_stays_positive(self, faulted_world, profile):
        # Expensive markets demand more (Table 3's direction) even on a
        # dirty substrate.
        dirty = price.table3(faulted_world.dasu.columns)
        for label, _, exp in dirty.rows():
            assert exp.result.fraction_holds > 0.5, (
                f"table3[{profile}] {label} lost the paper's direction"
            )

    def test_panel_is_smaller_but_not_gutted(
        self, small_world, faulted_world, profile
    ):
        clean_n = small_world.dasu.n_users
        dirty_n = faulted_world.dasu.n_users
        assert dirty_n < clean_n  # churn/attrition really removed hosts
        assert dirty_n > clean_n * 0.6  # ...but most of the panel survives

    def test_sanitization_report_accounts_damage(self, faulted_world, profile):
        report = faulted_world.sanitization
        assert report is not None
        assert report.rule("counter_reset").dropped > 0
        assert report.rule("counter_wrap").repaired > 0
        assert report.rule("duplicate_sample").dropped > 0
        assert report.samples_kept <= report.samples_in


class TestHeavySeverityDegradesGracefully:
    """Adversarially dirty input: analyses run, no verdicts promised."""

    def test_capacity_pipeline_runs(self, faulted_world_heavy):
        result = capacity.table2(faulted_world_heavy.dasu.columns, "dasu")
        for row in result.rows:
            fraction = row.experiment.result.fraction_holds
            assert math.isnan(fraction) or 0.0 <= fraction <= 1.0

    def test_price_pipeline_runs(self, faulted_world_heavy):
        result = price.table3(faulted_world_heavy.dasu.columns)
        assert result.group_sizes[0] > 0

    def test_records_are_still_clean(self, faulted_world_heavy):
        # However dirty the substrate, sanitized records carry only
        # finite, usable statistics.
        for user in to_records(faulted_world_heavy.all_columns):
            assert math.isfinite(user.peak_no_bt_mbps)
            assert user.peak_no_bt_mbps >= 0
            assert math.isfinite(user.capacity_down_mbps)
            assert user.capacity_down_mbps > 0
