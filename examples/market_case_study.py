#!/usr/bin/env python
"""The four-market case study: Botswana, Saudi Arabia, the US and Japan.

Reproduces the Sec. 5 narrative: what broadband costs in each market (as
a share of income), what capacities people end up on, and how hard they
drive their links. The punchline is the reversal — ordering the markets
by capacity orders them in reverse by peak utilization.

Run:  python examples/market_case_study.py
"""

from repro import WorldConfig, build_world
from repro.analysis import price
from repro.market.countries import CASE_STUDY_COUNTRIES


def main() -> None:
    # The case study needs enough users per country tier, so this example
    # uses a mid-sized world.
    config = WorldConfig(seed=5, n_dasu_users=6000, n_fcc_users=0,
                         days_per_year=1.5)
    print("Building world (this takes a little while)...")
    world = build_world(config)
    users = world.dasu.columns

    # Table 4: the typical price of broadband.
    t4 = price.table4(users, world.survey)
    print("\nTable 4 — the typical price of broadband:")
    header = (f"  {'country':<14}{'users':>6}{'median Mbps':>13}"
              f"{'tier Mbps':>11}{'price $PPP':>12}{'% of income':>13}")
    print(header)
    for row in t4.rows:
        print(
            f"  {row.country:<14}{row.n_users:>6}"
            f"{row.median_capacity_mbps:>13.2f}"
            f"{row.nearest_tier_mbps:>11.1f}"
            f"{row.price_usd_ppp:>12.0f}"
            f"{100 * row.cost_share_of_monthly_income:>12.1f}%"
        )

    # Fig. 7: capacity vs utilization ordering.
    fig7 = price.figure7(users)
    print("\nFigure 7 — capacity and peak utilization:")
    for entry in fig7.countries:
        print(
            f"  {entry.country:<14} median capacity "
            f"{entry.median_capacity_mbps:>7.2f} Mbps   "
            f"mean peak utilization {100 * entry.mean_peak_utilization:>5.1f}%"
        )
    print(
        "  capacity order reverses as utilization order: "
        f"{fig7.utilization_order_reverses_capacity_order()}"
    )

    # Figs. 8-9: per-tier comparisons.
    fig9 = price.figure9(users, min_users=20)
    print("\nFigure 9 — average peak demand per (country, tier):")
    for group in fig9.groups:
        print(
            f"  {group.country:<14}{group.tier.label():<18}"
            f" n={group.n_users:<5} avg peak "
            f"{group.mean_peak_demand_mbps:.2f} Mbps"
        )

    print(
        "\nReading: in markets where broadband (or the next tier up) is"
        "\nexpensive, subscribers sit on slower plans and press them much"
        "\nharder — demand follows the market, not just the need."
    )
    assert set(CASE_STUDY_COUNTRIES) == {c.country for c in fig7.countries}


if __name__ == "__main__":
    main()
