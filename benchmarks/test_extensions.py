"""Extension benchmarks beyond the paper's published evaluation.

1. **QED vs natural experiments** — the paper (Sec. 8) chose natural
   experiments over the quasi-experimental design of Krishnan &
   Sitaraman; running both estimators on the same comparison shows they
   agree on direction, with QED trading pair volume for stratum purity.
2. **User segmentation** — the paper's future-work item: categories of
   users (bulk/sustained/bursty/light) recovered from measured behavior,
   and how each segment behaves in the market.
"""

import numpy as np
import pytest

from repro.analysis.caps import caps_experiment
from repro.analysis.common import demand_outcome, matched_experiment
from repro.analysis.diurnal import population_diurnal_profile
from repro.analysis.segments import segment_users
from repro.core.qed import QuasiExperiment
from repro.datasets import WorldConfig, build_world

from conftest import emit


def test_extension_qed_vs_natural_experiment(benchmark, paper_world):
    columns = paper_world.dasu.columns
    capacity = columns.capacity_down_mbps
    in_low = (0.8 < capacity) & (capacity <= 3.2)
    in_high = (3.2 < capacity) & (capacity <= 12.8)
    # The QED's units are user positions; its extractors read the same
    # columns the natural experiment matches on. An absent (NaN) or zero
    # price of access stratifies as 1.0.
    latency, loss = columns.latency_ms, columns.loss_fraction
    price = columns.price_of_access_usd
    price = np.where(np.isnan(price) | (price == 0.0), 1.0, price)
    peak = columns.demand("peak")

    def run_both():
        natural = matched_experiment(
            "natural",
            columns.select_users(in_low),
            columns.select_users(in_high),
            confounders=("latency", "loss", "price_of_access"),
            outcome=demand_outcome("peak", include_bt=False),
        )
        qed = QuasiExperiment(
            "qed",
            [
                lambda i: latency[i],
                lambda i: max(loss[i], 1e-4),
                lambda i: price[i],
            ],
            bins_per_decade=2,
        ).run(
            np.flatnonzero(in_low),
            np.flatnonzero(in_high),
            outcome=lambda i: peak[i],
            rng=np.random.default_rng(0),
        )
        return natural, qed

    natural, qed = benchmark.pedantic(run_both, rounds=2, iterations=1)
    emit(
        "Extension: QED vs natural experiment (capacity raises demand)",
        [
            f"  natural experiment: H holds "
            f"{100 * natural.result.fraction_holds:.1f}% "
            f"(n={natural.result.n_pairs}, p={natural.result.p_value:.3g})",
            f"  QED:                net outcome score "
            f"{qed.net_outcome_score:+.3f} "
            f"(n={qed.n_pairs}, p={qed.p_value:.3g})",
        ],
    )
    # Both estimators must find the same direction; both significant
    # given the pair volumes involved.
    assert natural.result.fraction_holds > 0.5
    assert qed.net_outcome_score > 0.0
    assert natural.result.statistically_significant
    assert qed.significant


def test_extension_user_segments(benchmark, dasu_users):
    result = benchmark.pedantic(
        segment_users, args=(dasu_users,), rounds=2, iterations=1
    )

    lines = []
    for profile in result.profiles:
        lines.append(
            f"  {profile.segment:<10} n={profile.n_users:<6} "
            f"median capacity {profile.median_capacity_mbps:>7.2f} Mbps  "
            f"median peak {profile.median_peak_mbps:>6.3f} Mbps  "
            f"mean util {100 * profile.mean_peak_utilization:>5.1f}%  "
            f"switched {100 * profile.share_switched_service:>4.1f}%"
        )
    emit("Extension: user segments (paper future work)", lines)

    shares = result.shares
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    light = result.profile("light")
    sustained = result.profile("sustained")
    # Heavier segments press their links harder and churn more.
    assert sustained.mean_peak_utilization > light.mean_peak_utilization
    assert sustained.median_peak_mbps > light.median_peak_mbps


def test_extension_usage_caps(benchmark, dasu_users):
    """Chetty et al.'s rationing effect, tested with the paper's tools."""
    result = benchmark.pedantic(
        caps_experiment, args=(dasu_users,), rounds=2, iterations=1
    )
    r = result.experiment.result
    emit(
        "Extension: monthly usage caps (Chetty et al. effect)",
        [
            f"  populations: {result.n_uncapped} uncapped, "
            f"{result.n_tight_capped} tightly capped (<100 GB), "
            f"{result.n_loose_capped} loosely capped",
            f"  uncapped users demand more: H holds "
            f"{100 * r.fraction_holds:.1f}% (n={r.n_pairs}, "
            f"p={r.p_value:.3g})",
        ],
    )
    # Direction must hold; with the cross-market price caliper the pair
    # volume is modest, so strict significance is only demanded when the
    # matching yields a large sample.
    assert result.capped_use_less
    assert r.fraction_holds > 0.52
    if r.n_pairs >= 300:
        assert r.statistically_significant


def test_extension_diurnal_profiles(benchmark, paper_world):
    """Day-shape curves per collection channel: the Fig. 3 bias, seen
    directly in hour coverage."""

    def both():
        return (
            population_diurnal_profile(paper_world.dasu.columns),
            population_diurnal_profile(paper_world.fcc.columns),
        )

    dasu, fcc = benchmark.pedantic(both, rounds=2, iterations=1)
    emit(
        "Extension: diurnal profiles by collection channel",
        [
            f"  Dasu: peak {dasu.peak_hour}:00, trough {dasu.trough_hour}:00,"
            f" peak/trough x{dasu.peak_to_trough_ratio:.1f},"
            f" evening/night coverage bias {dasu.coverage_bias():.2f}",
            f"  FCC : peak {fcc.peak_hour}:00, trough {fcc.trough_hour}:00,"
            f" peak/trough x{fcc.peak_to_trough_ratio:.1f},"
            f" evening/night coverage bias {fcc.coverage_bias():.2f}",
        ],
    )
    for profile in (dasu, fcc):
        assert 18 <= profile.peak_hour <= 23
        assert 0 <= profile.trough_hour <= 8
    assert dasu.coverage_bias() > fcc.coverage_bias()
    assert fcc.coverage_bias() == pytest.approx(1.0, abs=0.05)


def test_extension_seed_robustness(benchmark):
    """The Table 1 effect across independent seeds: reproducibility of
    the headline causal finding is not a property of one lucky world."""
    from repro.sweep import ScenarioGrid, run_sweep

    base = WorldConfig(
        seed=0, n_dasu_users=1200, n_fcc_users=0, days_per_year=1.0
    )
    sweep = benchmark.pedantic(
        lambda: run_sweep(
            base,
            ScenarioGrid.baseline(),
            seeds=(101, 202, 303),
            experiments=("table1",),
        ),
        rounds=1,
        iterations=1,
    )
    peak = [
        v
        for cell in sweep.cells
        for v in cell.verdicts
        if v.row == "Peak usage"
    ]
    emit(
        "Extension: Table 1 across independent seeds",
        [
            f"  seed {seed}: {v.fraction_holds:.3f} ({v.n_pairs} pairs)"
            for seed, v in zip(sweep.seeds, peak)
        ],
    )
    fractions = sweep.fractions_for("table1", "Peak usage")
    assert len(fractions) == 3
    assert all(f > 0.5 for f in fractions)
    assert sum(fractions) / len(fractions) > 0.55


def test_extension_upload_direction(benchmark, dasu_users):
    """Traffic asymmetry and the seeding effect, from the sent-bytes
    counters the paper's datasets recorded but its evaluation never used."""
    from repro.analysis.upload import seeding_experiment, upload_asymmetry

    def both():
        return upload_asymmetry(dasu_users), seeding_experiment(dasu_users)

    asymmetry, seeding = benchmark.pedantic(both, rounds=2, iterations=1)
    r = seeding.result
    emit(
        "Extension: upload direction",
        [
            f"  median up/down volume ratio: {asymmetry.median_ratio:.3f} "
            f"(p90 {asymmetry.p90_ratio:.3f}, n={asymmetry.n_users})",
            f"  median ratio, BT households: {asymmetry.median_ratio_bt:.3f}"
            f" vs non-BT: {asymmetry.median_ratio_non_bt:.3f}",
            f"  BT households upload more (matched): H holds "
            f"{100 * r.fraction_holds:.1f}% (n={r.n_pairs}, p={r.p_value:.3g})",
        ],
    )
    assert asymmetry.median_ratio < 0.5
    assert asymmetry.median_ratio_bt > asymmetry.median_ratio_non_bt
    assert r.fraction_holds > 0.6
    assert r.statistically_significant
