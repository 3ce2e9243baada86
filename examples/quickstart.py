#!/usr/bin/env python
"""Quickstart: build a synthetic broadband world and test the paper's
headline claim — that capacity causally drives demand.

Builds a small world (about a minute of CPU at most; shrink the user
count for a faster demo), summarizes the connections, draws the
usage-vs-capacity relationship, and runs the Table 1 natural experiment.

Run:  python examples/quickstart.py
"""

from repro import WorldConfig, build_world
from repro.analysis import capacity, characterization
from repro.analysis.report import format_curve, format_experiment_row


def main() -> None:
    config = WorldConfig(
        seed=1, n_dasu_users=3000, n_fcc_users=300, days_per_year=1.5
    )
    print(f"Building world (seed={config.seed}, "
          f"{config.n_dasu_users} Dasu users)...")
    world = build_world(config)
    users = world.dasu.columns
    print(f"  -> {users.n_users} Dasu users across "
          f"{len(set(users.current('country')))} countries, "
          f"{world.fcc.n_users} FCC gateways, "
          f"{world.survey.n_plans} retail plans\n")

    # 1. What do the connections look like? (Fig. 1)
    fig1 = characterization.figure1(users)
    print("Connection characterization (paper / measured):")
    for label, paper, measured in fig1.summary_rows():
        print(f"  {label:<38} {paper:>8.3f} / {measured:.3f}")
    print()

    # 2. Does usage grow with capacity? (Fig. 2)
    fig2 = capacity.figure2(users)
    print(format_curve("Peak demand vs capacity (no BitTorrent)",
                       fig2.peak_no_bt))
    print(f"  diminishing returns above ~10 Mbps: "
          f"{fig2.diminishing_returns()}\n")

    # 3. Is the relationship causal? (Table 1)
    t1 = capacity.table1(users)
    print(f"Natural experiment over {t1.n_observations} users observed on "
          "two networks:")
    for label, paper, result in t1.rows():
        print(format_experiment_row(label, paper, result))
    verdict = "drives" if t1.peak.rejects_null else "does not clearly drive"
    print(f"\nConclusion: capacity {verdict} peak demand "
          f"(p = {t1.peak.p_value:.2e}).")


if __name__ == "__main__":
    main()
