#!/usr/bin/env python
"""Design your own natural experiment with the matching toolkit.

The paper's methodology — nearest-neighbor matching with a 25% caliper
plus a one-tailed binomial sign test — is exposed as a small set of
composable pieces. This example builds a custom experiment from scratch:
"do BitTorrent households place more *non-BitTorrent* demand on the
network than otherwise similar non-BitTorrent households?"

Run:  python examples/capacity_experiment.py
"""

from repro import WorldConfig, build_world
from repro.analysis.common import demand_outcome, matched_experiment
from repro.analysis.report import format_experiment_row
from repro.core.experiments import NaturalExperiment


def custom_matched_experiment(users) -> None:
    """A question the paper never asked, answered with its machinery."""
    bt_user = users.current("bt_user")
    result = matched_experiment(
        "BT households vs non-BT households",
        control=users.select_users(~bt_user),
        treatment=users.select_users(bt_user),
        confounders=("capacity", "latency", "loss", "price_of_access"),
        outcome=demand_outcome("peak", include_bt=False),
        hypothesis="BitTorrent households are heavier users overall",
    )
    print("Custom experiment (peak demand *excluding* BT intervals):")
    print(format_experiment_row(
        "  non-BT (control) vs BT (treatment)", None, result))
    print(f"  matched {result.matching.n_matched} of "
          f"{result.matching.n_treatment} treatment users\n")


def hand_rolled_sign_test() -> None:
    """The statistical core, usable on any paired data you have: pair
    ``i`` is ``(control[i], treatment[i])``."""
    experiment = NaturalExperiment(
        "my own study",
        hypothesis="treatment beats control",
        practical_margin=0.02,
    )
    control = [1.0] * 70 + [1.5] * 30
    treatment = [1.5] * 70 + [1.0] * 30
    result = experiment.evaluate(control, treatment)
    print("Hand-rolled sign test over 100 synthetic pairs:")
    print(f"  H holds {100 * result.fraction_holds:.0f}% "
          f"(p = {result.p_value:.2e}); "
          f"rejects H0: {result.rejects_null}\n")


def caliper_sensitivity(users) -> None:
    """How the caliper trades pair volume for comparison quality."""
    capacity = users.capacity_down_mbps
    low = users.select_users((1.6 < capacity) & (capacity <= 6.4))
    high = users.select_users((6.4 < capacity) & (capacity <= 25.6))
    print("Caliper sensitivity on a capacity comparison:")
    for caliper in (0.10, 0.25, 0.50):
        result = matched_experiment(
            f"caliper {caliper:.2f}",
            low,
            high,
            confounders=("latency", "loss", "price_of_access"),
            outcome=demand_outcome("peak", include_bt=False),
            caliper=caliper,
        )
        print(
            f"  caliper {caliper:.2f}: n={result.result.n_pairs:<5} "
            f"H holds {100 * result.result.fraction_holds:5.1f}%"
        )


def main() -> None:
    config = WorldConfig(seed=17, n_dasu_users=2500, n_fcc_users=0,
                         days_per_year=1.0)
    print("Building world...\n")
    world = build_world(config)
    users = world.dasu.columns
    custom_matched_experiment(users)
    hand_rolled_sign_test()
    caliper_sensitivity(users)


if __name__ == "__main__":
    main()
