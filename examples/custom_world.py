#!/usr/bin/env python
"""Author a custom measurement study end to end.

Shows the lower-level substrate APIs: define your own country, generate
its retail market, simulate one household's year of traffic, measure it
with the Dasu client and NDT, and export a dataset to CSV.

Run:  python examples/custom_world.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import WorldConfig, build_world
from repro.behavior.choice import ChoiceModel
from repro.behavior.demand import DemandProcess
from repro.behavior.population import PopulationModel
from repro.datasets.io import write_config_json, write_plans_csv, write_users_csv
from repro.market.countries import CountryProfile
from repro.market.economy import DevelopmentLevel, Region
from repro.market.plans import PlanTechnology
from repro.market.survey import generate_market
from repro.measurement.dasu import DasuClient, DasuVantage
from repro.measurement.ndt import NdtClient
from repro.network.link import provision_link
from repro.network.path import build_path
from repro.traffic.generator import generate_usage_series


def define_country() -> CountryProfile:
    """A fictional mid-income market with pricey upgrades."""
    return CountryProfile(
        name="Altamira",
        region=Region.SOUTH_AMERICA,
        development=DevelopmentLevel.DEVELOPING,
        gdp_per_capita_ppp=12_000.0,
        currency_code="ALT",
        units_per_usd=7.5,
        ppp_market_ratio=0.55,
        internet_penetration=0.4,
        base_price_usd=38.0,
        upgrade_slope_usd=4.0,
        min_capacity_mbps=1.0,
        max_capacity_mbps=25.0,
        n_plans=8,
        price_noise=0.08,
        oddball_plan_rate=0.1,
        promoted_tier_mbps=4.0,
        promoted_adoption=0.3,
        tech_mix={
            PlanTechnology.DSL: 0.6,
            PlanTechnology.CABLE: 0.2,
            PlanTechnology.WIRELESS: 0.15,
            PlanTechnology.SATELLITE: 0.05,
        },
        extra_latency_ms=60.0,
        loss_multiplier=1.8,
        dasu_user_weight=100.0,
    )


def one_household(profile: CountryProfile) -> None:
    """Walk a single household through the whole substrate."""
    rng = np.random.default_rng(7)
    market = generate_market(profile, rng)
    print(f"{profile.name}: {len(market.plans)} plans, access from "
          f"${market.price_of_access():.0f}/mo, +1 Mbps costs "
          f"${market.upgrade_cost_usd_per_mbps:.2f}/mo")

    # Not every candidate household can afford a plan (that is the
    # "can afford" selection the paper studies) — draw until one signs up.
    model = PopulationModel()
    chooser = ChoiceModel()
    for attempt in range(100):
        household = model.sample_user(
            f"demo-{attempt}", profile.economy(), rng
        )
        choice = chooser.choose(household, market, rng)
        if choice is not None:
            break
    assert choice is not None, "no candidate could afford any plan"
    plan = choice.plan
    print(f"  household: need {household.need_mbps:.1f} Mbps, budget "
          f"${household.budget_usd_ppp:.0f} -> chose {plan.name} "
          f"(${plan.monthly_price_usd_ppp:.0f}/mo)")

    link = provision_link(
        plan.download_mbps, plan.upload_mbps, plan.technology, rng,
        loss_multiplier=profile.loss_multiplier,
    )
    path = build_path(link, profile.extra_latency_ms, rng)
    process = DemandProcess.for_user(household, path)
    series = generate_usage_series(process, duration_days=3.0,
                                   interval_s=30.0, rng=rng)

    sampled = DasuClient(DasuVantage.UPNP, rng).collect(series)
    summary = sampled.summary(include_bt=False)
    tests = NdtClient(rng).run_tests(path, 8, (0.0, 3.0))
    capacity = max(t.download_mbps for t in tests)
    print(f"  measured: capacity {capacity:.2f} Mbps, "
          f"latency {np.mean([t.rtt_ms for t in tests]):.0f} ms, "
          f"mean demand {summary.mean_mbps:.3f} Mbps, "
          f"peak {summary.peak_mbps:.3f} Mbps "
          f"({sampled.n_samples} samples collected)\n")


def export_dataset() -> None:
    """Generate a world and persist it the way a study would publish it."""
    config = WorldConfig(seed=3, n_dasu_users=200, n_fcc_users=40,
                         days_per_year=1.0)
    world = build_world(config)
    out = Path(tempfile.mkdtemp(prefix="repro-dataset-"))
    n_rows = write_users_csv(world.all_columns, out / "users.csv")
    n_plans = write_plans_csv(world.survey, out / "plans.csv")
    write_config_json(config, out / "config.json")
    print(f"exported {n_rows} user-period rows and {n_plans} plans to {out}")


def main() -> None:
    profile = define_country()
    one_household(profile)
    export_dataset()


if __name__ == "__main__":
    main()
