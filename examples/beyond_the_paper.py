#!/usr/bin/env python
"""Beyond the paper: the extension analyses.

The reproduction carries several analyses the paper's evaluation does not
include but its data (and citations) set up:

* user categories from measured behavior (the paper's closing
  future-work item);
* the usage-cap rationing effect it cites from Chetty et al.;
* the upload direction (recorded by the original datasets, unused);
* diurnal profiles, exposing each collection channel's sampling bias;
* the quasi-experimental design of Krishnan & Sitaraman, side by side
  with the paper's natural experiments.

Run:  python examples/beyond_the_paper.py
"""

import numpy as np

from repro import WorldConfig, build_world
from repro.analysis.caps import caps_experiment
from repro.analysis.common import demand_outcome, matched_experiment
from repro.analysis.diurnal import population_diurnal_profile
from repro.analysis.segments import segment_users
from repro.analysis.upload import seeding_experiment, upload_asymmetry
from repro.core.qed import QuasiExperiment


def main() -> None:
    config = WorldConfig(seed=29, n_dasu_users=3000, n_fcc_users=400,
                         days_per_year=1.5)
    print("Building world...\n")
    world = build_world(config)
    users = world.dasu.columns

    # 1. User categories (future work of Sec. 10).
    segmentation = segment_users(users)
    print("User segments (from measured behavior only):")
    for profile in segmentation.profiles:
        print(f"  {profile.segment:<10} {profile.n_users:>5} users  "
              f"median peak {profile.median_peak_mbps:6.3f} Mbps  "
              f"utilization {100 * profile.mean_peak_utilization:5.1f}%")

    # 2. Usage caps (Chetty et al.).
    caps = caps_experiment(users)
    r = caps.experiment.result
    print(f"\nUsage caps: uncapped households out-demand matched "
          f"tightly-capped ones {100 * r.fraction_holds:.0f}% of the time "
          f"(n={r.n_pairs}, p={r.p_value:.3g})")

    # 3. Upload direction.
    asymmetry = upload_asymmetry(users)
    seeding = seeding_experiment(users)
    print(f"\nUpload: median up/down ratio {asymmetry.median_ratio:.3f}; "
          f"BT households upload more than matched non-BT ones "
          f"{100 * seeding.result.fraction_holds:.0f}% of the time")

    # 4. Diurnal profiles per collection channel.
    dasu_profile = population_diurnal_profile(users)
    fcc_profile = population_diurnal_profile(world.fcc.columns)
    print(f"\nDiurnal shape: peak {dasu_profile.peak_hour}:00, trough "
          f"{dasu_profile.trough_hour}:00; Dasu evening/night coverage "
          f"bias {dasu_profile.coverage_bias():.2f} vs FCC "
          f"{fcc_profile.coverage_bias():.2f}")

    # 5. QED vs natural experiment on the same question.
    capacity = users.capacity_down_mbps
    in_low = (0.8 < capacity) & (capacity <= 3.2)
    in_high = (3.2 < capacity) & (capacity <= 12.8)
    natural = matched_experiment(
        "natural", users.select_users(in_low), users.select_users(in_high),
        confounders=("latency", "loss", "price_of_access"),
        outcome=demand_outcome("peak", include_bt=False),
    )
    # The QED stratifies record objects: the same two pools as records.
    records = world.dasu.users
    low = [u for u, keep in zip(records, in_low) if keep]
    high = [u for u, keep in zip(records, in_high) if keep]
    qed = QuasiExperiment(
        "qed",
        [lambda u: u.latency_ms, lambda u: max(u.loss_fraction, 1e-4)],
        bins_per_decade=2,
    ).run(low, high, outcome=lambda u: u.peak_no_bt_mbps,
          rng=np.random.default_rng(1))
    print(f"\nCapacity effect, two estimators:")
    print(f"  natural experiment  H holds "
          f"{100 * natural.result.fraction_holds:.1f}% "
          f"(n={natural.result.n_pairs})")
    print(f"  QED                 net outcome score "
          f"{qed.net_outcome_score:+.3f} (n={qed.n_pairs})")


if __name__ == "__main__":
    main()
