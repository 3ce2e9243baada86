"""The internet quality barometer (:mod:`repro.analysis.iqb`).

The scoring core is locked by a hypothesis property suite — bounded
scores, per-metric monotonicity, weight-rescaling invariance, exact 1.0
when every threshold is met, zero-weight entries ignored, and exact
(bit-for-bit) equivalence between the vectorized columnar path and the
straight-line scalar reference in ``tests/analysis/record_oracle.py``.
Config validation must reject every
malformed payload with an error that names the offending use case and
requirement, so a bad threshold can never silently become NaN scores.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.iqb import (
    DEFAULT_IQB_CONFIG,
    IQB_PRESETS,
    METRIC_KINDS,
    IqbConfig,
    IqbRequirement,
    IqbUseCase,
    format_iqb_report,
    iqb_experiment,
    iqb_payload,
    market_barometer,
    resolve_iqb_config,
    score_columns,
)
from repro.core.upgrades import NetworkId, ServicePeriod
from repro.datasets import UserColumns
from repro.exceptions import AnalysisError
from tests.analysis.record_model import (
    PeriodObservation,
    UserRecord,
    from_records,
    to_records,
)
from tests.analysis.record_oracle import score_record

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
GOLDEN_IQB = GOLDEN_DIR / "iqb_report_small.txt"

METRICS = tuple(sorted(METRIC_KINDS))  # deterministic draw order


# ---------------------------------------------------------------------------
# Synthetic households
# ---------------------------------------------------------------------------


def make_record(
    download: float = 20.0,
    upload: float = 5.0,
    latency: float = 50.0,
    loss: float = 0.002,
    *,
    user_id: str = "u0",
    country: str = "Chile",
) -> UserRecord:
    period = ServicePeriod(
        user_id=user_id,
        network=NetworkId("isp", "10.0.0.0/24", "city"),
        start_day=0.0,
        end_day=90.0,
        capacity_mbps=download,
        mean_mbps=1.0,
        peak_mbps=4.0,
        mean_no_bt_mbps=0.8,
        peak_no_bt_mbps=3.0,
    )
    observation = PeriodObservation(
        period=period,
        latency_ms=latency,
        loss_fraction=loss,
        capacity_up_mbps=upload,
        n_ndt_tests=5,
        n_usage_samples=100,
    )
    return UserRecord(
        user_id=user_id,
        source="dasu",
        country=country,
        region="south america",
        development="developing",
        vantage="direct",
        technology="cable",
        bt_user=False,
        observations=(observation,),
        price_of_access_usd=40.0,
        upgrade_cost_usd_per_mbps=1.0,
        gdp_per_capita_usd=15000.0,
    )


#: (download, upload, latency, loss) with every value measured.
finite_metrics = st.tuples(
    st.floats(min_value=0.001, max_value=5000.0),
    st.floats(min_value=0.001, max_value=1000.0),
    st.floats(min_value=0.1, max_value=5000.0),
    st.floats(min_value=0.0, max_value=1.0),
)

#: As above, but download/upload/latency may be unmeasured (NaN/inf) —
#: the shapes an un-sanitized dirty dataset can carry. (Loss is range
#: checked at record construction, so it stays finite here.)
_maybe_bad = lambda s: st.one_of(  # noqa: E731
    s, st.just(float("nan")), st.just(float("inf"))
)
dirty_metrics = st.tuples(
    _maybe_bad(st.floats(min_value=0.001, max_value=5000.0)),
    _maybe_bad(st.floats(min_value=0.001, max_value=1000.0)),
    _maybe_bad(st.floats(min_value=0.1, max_value=5000.0)),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def iqb_configs(draw) -> IqbConfig:
    """Random valid configs: 1-3 use cases, unique metrics per case,
    at least one positive weight at every level."""
    use_cases = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        metrics = draw(st.permutations(METRICS))
        metrics = metrics[: draw(st.integers(min_value=1, max_value=4))]
        requirements = []
        for j, metric in enumerate(metrics):
            weight = draw(
                st.floats(min_value=0.5, max_value=8.0)
                if j == 0
                else st.floats(min_value=0.0, max_value=8.0)
            )
            threshold = draw(
                st.floats(min_value=0.0001, max_value=0.5)
                if metric == "loss_fraction"
                else st.floats(min_value=0.01, max_value=500.0)
            )
            requirements.append(IqbRequirement(metric, weight, threshold))
        case_weight = draw(
            st.floats(min_value=0.5, max_value=5.0)
            if i == 0
            else st.floats(min_value=0.0, max_value=5.0)
        )
        use_cases.append(
            IqbUseCase(f"case-{i}", case_weight, tuple(requirements))
        )
    return IqbConfig(name="generated", use_cases=tuple(use_cases))


# ---------------------------------------------------------------------------
# The property suite
# ---------------------------------------------------------------------------


class TestScoringProperties:
    @given(values=dirty_metrics, config=iqb_configs())
    @settings(max_examples=120, deadline=None)
    def test_scores_bounded(self, values, config):
        """Every score — per use case and composite — is in [0, 1]."""
        result = score_record(make_record(*values), config)
        assert 0.0 <= result.composite <= 1.0
        for name, score in result.use_case_scores.items():
            assert 0.0 <= score <= 1.0, name

    @given(
        values=finite_metrics,
        config=iqb_configs(),
        index=st.integers(min_value=0, max_value=3),
        factor=st.floats(min_value=1.0001, max_value=100.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_monotone_in_each_metric(self, values, config, index, factor):
        """Improving any one metric never lowers any score; worsening it
        never raises one. (Metric order: download, upload, latency,
        loss — the first two improve upward, the last two downward.)"""
        scaled = list(values)
        scaled[index] = min(values[index] * factor, 1.0 if index == 3 else 1e9)
        base = score_record(make_record(*values), config)
        moved = score_record(make_record(*scaled), config)
        higher_is_better = index < 2
        for name in base.use_case_scores:
            b, m = base.use_case_scores[name], moved.use_case_scores[name]
            assert (m >= b) if higher_is_better else (m <= b), name
        if higher_is_better:
            assert moved.composite >= base.composite
        else:
            assert moved.composite <= base.composite

    @given(
        values=finite_metrics,
        config=iqb_configs(),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_weight_rescaling_invariance(self, values, config, scale):
        """Multiplying every weight by one constant changes nothing."""
        payload = config.to_payload()
        for case in payload["use_cases"].values():
            # A subnormal weight times a scale below one can round to
            # 0.0; that turns a counted entry into an ignored one, so
            # the product is no longer a rescaling of the config.
            assume(case["weight"] == 0 or case["weight"] * scale > 0)
            case["weight"] *= scale
            for requirement in case["requirements"].values():
                weight = requirement["weight"]
                assume(weight == 0 or weight * scale > 0)
                requirement["weight"] *= scale
        rescaled = IqbConfig.from_payload(payload)
        record = make_record(*values)
        base = score_record(record, config)
        moved = score_record(record, rescaled)
        assert math.isclose(
            moved.composite, base.composite, rel_tol=1e-9, abs_tol=1e-12
        )
        for name in base.use_case_scores:
            assert math.isclose(
                moved.use_case_scores[name],
                base.use_case_scores[name],
                rel_tol=1e-9,
                abs_tol=1e-12,
            ), name
        assert moved.ready == base.ready

    @given(config=iqb_configs(), slack=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=120, deadline=None)
    def test_all_thresholds_met_scores_exactly_one(self, config, slack):
        """Meeting every threshold gives *exactly* 1.0, not 0.999…"""
        min_needed = {"download_mbps": 0.001, "upload_mbps": 0.001}
        max_allowed = {"latency_ms": 5000.0, "loss_fraction": 1.0}
        for use_case in config.use_cases:
            for requirement in use_case.requirements:
                if requirement.kind == "min":
                    min_needed[requirement.metric] = max(
                        min_needed[requirement.metric], requirement.threshold
                    )
                else:
                    max_allowed[requirement.metric] = min(
                        max_allowed[requirement.metric], requirement.threshold
                    )
        record = make_record(
            download=min_needed["download_mbps"] * slack,
            upload=min_needed["upload_mbps"] * slack,
            latency=max_allowed["latency_ms"] / slack,
            loss=max_allowed["loss_fraction"] / slack,
        )
        result = score_record(record, config)
        assert result.composite == 1.0
        assert all(s == 1.0 for s in result.use_case_scores.values())
        assert result.ready

    @given(values=dirty_metrics)
    @settings(max_examples=60, deadline=None)
    def test_zero_weight_requirements_and_cases_ignored(self, values):
        """Adding zero-weight requirements (with absurd thresholds) and
        a zero-weight use case leaves every score bit-identical."""
        base_config = IqbConfig(
            name="base",
            use_cases=(
                IqbUseCase(
                    "browsing",
                    1.0,
                    (
                        IqbRequirement("download_mbps", 2.0, 10.0),
                        IqbRequirement("latency_ms", 1.0, 100.0),
                    ),
                ),
            ),
        )
        padded_config = IqbConfig(
            name="padded",
            use_cases=(
                IqbUseCase(
                    "browsing",
                    1.0,
                    (
                        IqbRequirement("download_mbps", 2.0, 10.0),
                        IqbRequirement("latency_ms", 1.0, 100.0),
                        # Impossible thresholds, but weight 0: ignored.
                        IqbRequirement("upload_mbps", 0.0, 1e9),
                        IqbRequirement("loss_fraction", 0.0, 1e-12),
                    ),
                ),
                IqbUseCase(
                    "dead weight",
                    0.0,
                    (IqbRequirement("download_mbps", 1.0, 1e9),),
                ),
            ),
        )
        record = make_record(*values)
        base = score_record(record, base_config)
        padded = score_record(record, padded_config)
        assert padded.composite == base.composite
        assert (
            padded.use_case_scores["browsing"]
            == base.use_case_scores["browsing"]
        )
        assert padded.ready == base.ready
        columns = from_records([record])
        vec_base = score_columns(columns, base_config)
        vec_padded = score_columns(columns, padded_config)
        assert vec_padded.composite[0] == vec_base.composite[0]
        assert vec_padded.ready[0] == vec_base.ready[0]

    @given(
        batch=st.lists(dirty_metrics, min_size=1, max_size=8),
        config=iqb_configs(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_vectorized_paths_identical(self, batch, config):
        """score_columns == score_record per household, bit for bit."""
        records = [
            make_record(*values, user_id=f"u{i}")
            for i, values in enumerate(batch)
        ]
        vectorized = score_columns(from_records(records), config)
        for i, record in enumerate(records):
            scalar = score_record(record, config)
            assert vectorized.composite[i] == scalar.composite
            assert bool(vectorized.ready[i]) == scalar.ready
            for name, scores in vectorized.use_case_scores.items():
                assert scores[i] == scalar.use_case_scores[name], name

    def test_non_finite_measurements_score_zero(self):
        """An unmeasured metric contributes 0 — never NaN."""
        config = IqbConfig(
            name="latency only",
            use_cases=(
                IqbUseCase(
                    "gaming", 1.0, (IqbRequirement("latency_ms", 1.0, 50.0),)
                ),
            ),
        )
        for latency in (float("nan"), float("inf")):
            result = score_record(make_record(latency=latency), config)
            assert result.composite == 0.0
            assert not result.ready
            columns = from_records([make_record(latency=latency)])
            assert score_columns(columns, config).composite[0] == 0.0


# ---------------------------------------------------------------------------
# Config validation: every error names the offending piece.
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def payload(self) -> dict:
        return DEFAULT_IQB_CONFIG.to_payload()

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), -1.0, 0.0]
    )
    def test_bad_threshold_names_use_case_and_requirement(self, bad):
        payload = self.payload()
        payload["use_cases"]["web browsing"]["requirements"]["latency_ms"][
            "max"
        ] = bad
        with pytest.raises(AnalysisError) as error:
            IqbConfig.from_payload(payload)
        assert "web browsing" in str(error.value)
        assert "latency_ms" in str(error.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -2.0])
    def test_bad_requirement_weight_names_use_case_and_requirement(self, bad):
        payload = self.payload()
        payload["use_cases"]["video streaming"]["requirements"][
            "download_mbps"
        ]["weight"] = bad
        with pytest.raises(AnalysisError) as error:
            IqbConfig.from_payload(payload)
        assert "video streaming" in str(error.value)
        assert "download_mbps" in str(error.value)

    def test_bad_use_case_weight_names_use_case(self):
        payload = self.payload()
        payload["use_cases"]["audio streaming"]["weight"] = -1.0
        with pytest.raises(AnalysisError, match="audio streaming"):
            IqbConfig.from_payload(payload)

    def test_non_numeric_weight_rejected(self):
        payload = self.payload()
        payload["use_cases"]["web browsing"]["requirements"]["latency_ms"][
            "weight"
        ] = "heavy"
        with pytest.raises(AnalysisError, match="must be a number"):
            IqbConfig.from_payload(payload)

    def test_boolean_weight_rejected(self):
        payload = self.payload()
        payload["use_cases"]["web browsing"]["weight"] = True
        with pytest.raises(AnalysisError, match="must be a number"):
            IqbConfig.from_payload(payload)

    def test_unknown_metric_rejected(self):
        payload = self.payload()
        payload["use_cases"]["web browsing"]["requirements"]["jitter_ms"] = {
            "weight": 1,
            "max": 30,
        }
        with pytest.raises(AnalysisError, match="jitter_ms"):
            IqbConfig.from_payload(payload)

    def test_wrong_threshold_kind_explained(self):
        payload = self.payload()
        requirement = payload["use_cases"]["web browsing"]["requirements"][
            "download_mbps"
        ]
        requirement["max"] = requirement.pop("min")
        with pytest.raises(AnalysisError, match="takes a 'min' threshold"):
            IqbConfig.from_payload(payload)

    def test_missing_threshold_rejected(self):
        payload = self.payload()
        del payload["use_cases"]["web browsing"]["requirements"][
            "loss_fraction"
        ]["max"]
        with pytest.raises(AnalysisError, match="missing the 'max'"):
            IqbConfig.from_payload(payload)

    def test_unknown_keys_rejected_at_every_level(self):
        top = self.payload()
        top["extra"] = 1
        with pytest.raises(AnalysisError, match="unknown keys: extra"):
            IqbConfig.from_payload(top)
        case = self.payload()
        case["use_cases"]["web browsing"]["bonus"] = 1
        with pytest.raises(AnalysisError, match="bonus"):
            IqbConfig.from_payload(case)

    def test_duplicate_requirement_metric_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate requirement"):
            IqbConfig(
                name="dup",
                use_cases=(
                    IqbUseCase(
                        "case",
                        1.0,
                        (
                            IqbRequirement("latency_ms", 1.0, 50.0),
                            IqbRequirement("latency_ms", 2.0, 80.0),
                        ),
                    ),
                ),
            )

    def test_duplicate_use_case_rejected(self):
        case = IqbUseCase(
            "case", 1.0, (IqbRequirement("latency_ms", 1.0, 50.0),)
        )
        with pytest.raises(AnalysisError, match="duplicate use case"):
            IqbConfig(name="dup", use_cases=(case, case))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(AnalysisError, match="no positive-weight"):
            IqbUseCase(
                "case", 1.0, (IqbRequirement("latency_ms", 0.0, 50.0),)
            ).validate()
        case = IqbUseCase(
            "case", 0.0, (IqbRequirement("latency_ms", 1.0, 50.0),)
        )
        with pytest.raises(AnalysisError, match="no positive-weight"):
            IqbConfig(name="zero", use_cases=(case,))

    def test_empty_shapes_rejected(self):
        with pytest.raises(AnalysisError, match="non-empty name"):
            IqbConfig(
                name="",
                use_cases=(
                    IqbUseCase(
                        "c", 1.0, (IqbRequirement("latency_ms", 1.0, 1.0),)
                    ),
                ),
            )
        with pytest.raises(AnalysisError, match="no use cases"):
            IqbConfig(name="empty", use_cases=())
        with pytest.raises(AnalysisError, match="non-empty 'use_cases'"):
            IqbConfig.from_payload({"name": "x", "use_cases": {}})
        with pytest.raises(AnalysisError, match="JSON object"):
            IqbConfig.from_payload([1, 2])  # type: ignore[arg-type]

    def test_round_trip_through_payload(self):
        for preset in IQB_PRESETS.values():
            assert IqbConfig.from_payload(preset.to_payload()) == preset

    def test_resolve_presets_and_unknown(self):
        assert resolve_iqb_config(None) is DEFAULT_IQB_CONFIG
        assert resolve_iqb_config("streaming") is IQB_PRESETS["streaming"]
        assert resolve_iqb_config(DEFAULT_IQB_CONFIG) is DEFAULT_IQB_CONFIG
        with pytest.raises(AnalysisError, match="unknown IQB preset"):
            resolve_iqb_config("gaming")

    def test_from_json_errors(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot read"):
            IqbConfig.from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(AnalysisError, match="not valid JSON"):
            IqbConfig.from_json(bad)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(DEFAULT_IQB_CONFIG.to_payload()))
        assert IqbConfig.from_json(good) == DEFAULT_IQB_CONFIG


# ---------------------------------------------------------------------------
# Market aggregation and the demand experiment on a real world.
# ---------------------------------------------------------------------------


class TestMarketBarometer:
    def test_records_and_columns_agree_exactly(self, small_world):
        records = list(to_records(small_world.dasu.columns))
        from_columns = market_barometer(small_world.dasu.columns)
        via_records = market_barometer(from_records(records))
        assert via_records == from_columns
        # Each market's ready count is the scalar reference's.
        ready = {}
        for record in records:
            if score_record(record).ready:
                ready[record.country] = ready.get(record.country, 0) + 1
        for market in from_columns:
            assert market.n_ready == ready.get(market.market, 0)

    def test_markets_sorted_and_thresholded(self, dasu_users):
        markets = market_barometer(dasu_users, min_users=25)
        assert markets
        names = [m.market for m in markets]
        assert names == sorted(names)
        for market in markets:
            assert market.n_users >= 25
            assert 0.0 <= market.mean_composite <= 1.0
            # The Wilson low can exceed an exactly-zero share by one
            # rounding ulp, hence the epsilon.
            assert market.ready_ci.low <= market.ready_share + 1e-12
            assert market.ready_share <= market.ready_ci.high

    def test_higher_threshold_keeps_a_subset(self, dasu_users):
        all_markets = {m.market for m in market_barometer(dasu_users)}
        big_markets = {
            m.market for m in market_barometer(dasu_users, min_users=60)
        }
        assert big_markets < all_markets


class TestIqbExperiment:
    def test_too_few_households_rejected(self):
        records = [make_record(user_id=f"u{i}") for i in range(10)]
        with pytest.raises(AnalysisError, match="at least 30"):
            iqb_experiment(from_records(records))

    def test_runs_on_a_real_world(self, dasu_users):
        result = iqb_experiment(
            dasu_users.select_users(np.arange(dasu_users.n_users) < 600)
        )
        assert result.config_name == "default"
        assert result.n_classes >= 1
        assert result.n_control > 0 and result.n_treatment > 0
        outcome = result.experiment.result
        assert outcome.n_pairs > 0
        assert 0.0 <= outcome.fraction_holds <= 1.0
        assert 0.0 <= outcome.p_value <= 1.0

    def test_identical_scores_leave_no_terciles(self):
        records = [
            make_record(user_id=f"u{i}", country="Chile") for i in range(40)
        ]
        with pytest.raises(AnalysisError, match="distinct"):
            iqb_experiment(from_records(records))


# ---------------------------------------------------------------------------
# Rendering: golden snapshot and payload shape.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def iqb_world():
    from repro.datasets import WorldConfig, build_world

    return build_world(
        WorldConfig(seed=5, n_dasu_users=150, n_fcc_users=40, days_per_year=1.0)
    )


def test_iqb_report_matches_golden(iqb_world, request):
    text = format_iqb_report(iqb_world.dasu.columns, iqb_world.fcc.columns)
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_IQB.write_text(text + "\n")
        pytest.skip(f"regenerated {GOLDEN_IQB}")
    assert GOLDEN_IQB.exists(), (
        "golden snapshot missing — regenerate with "
        "`python -m pytest tests/analysis/test_iqb.py --regen-golden`"
    )
    assert text + "\n" == GOLDEN_IQB.read_text(), (
        "the IQB report drifted from the golden snapshot; if intentional, "
        "regenerate with --regen-golden and review the diff"
    )


def test_payload_is_deterministic_json(iqb_world):
    a = iqb_payload(iqb_world.dasu.columns, iqb_world.fcc.columns)
    b = iqb_payload(
        from_records(list(to_records(iqb_world.dasu.columns))),
        from_records(list(to_records(iqb_world.fcc.columns))),
    )
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(a) == {"config", "dasu", "fcc", "markets", "experiment"}
    assert a["config"] == DEFAULT_IQB_CONFIG.to_payload()


def test_empty_dasu_rejected():
    with pytest.raises(AnalysisError, match="needs Dasu households"):
        format_iqb_report(UserColumns.empty())
