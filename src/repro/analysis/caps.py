"""Usage caps and demand — an extension experiment.

The paper cites Chetty et al. (SIGCHI'12, "You're capped") on how
monthly traffic limits change household behavior but does not test the
effect itself. The plan survey carries each plan's cap, so the natural-
experiment machinery can: users on capped plans are compared with
otherwise-similar users on uncapped plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from .common import MatchedExperimentResult, demand_outcome, matched_experiment

__all__ = ["CapsResult", "caps_experiment"]

#: Caps at or above this many GB/month almost never bind for 2011-2013
#: demand levels; "tight" caps are the interesting treatment.
TIGHT_CAP_GB = 100.0


@dataclass(frozen=True)
class CapsResult:
    """The caps experiment plus group bookkeeping."""

    experiment: MatchedExperimentResult
    n_uncapped: int
    n_tight_capped: int
    n_loose_capped: int

    @property
    def capped_use_less(self) -> bool:
        """Whether uncapped users out-demand matched tightly-capped users."""
        return self.experiment.result.fraction_holds > 0.5


def caps_experiment(
    users: UserColumns,
    metric: str = "mean",
    include_bt: bool = True,
    tight_cap_gb: float = TIGHT_CAP_GB,
    confounders: Sequence[str] = ("capacity", "latency", "loss", "price_of_access"),
) -> CapsResult:
    """Do tight monthly caps depress demand?

    Control: users on plans with a cap below ``tight_cap_gb``.
    Treatment: users on uncapped plans. H: removing the cap raises
    demand — i.e. the Chetty et al. rationing effect, measured with the
    paper's own machinery. Average demand including BitTorrent is the
    natural outcome (bulk transfer is exactly what caps ration).
    """
    capped = users.current("has_plan_data_cap")
    cap_gb = users.current("plan_data_cap_gb")
    uncapped = users.select_users(~capped)
    tight = users.select_users(capped & (cap_gb < tight_cap_gb))
    n_loose = int(np.count_nonzero(capped & (cap_gb >= tight_cap_gb)))
    if uncapped.n_users == 0 or tight.n_users == 0:
        raise AnalysisError("need both uncapped and tightly-capped users")
    experiment = matched_experiment(
        "tight cap (control) vs no cap (treatment)",
        control=tight,
        treatment=uncapped,
        confounders=confounders,
        outcome=demand_outcome(metric, include_bt),
        hypothesis="removing a tight monthly cap increases demand",
    )
    return CapsResult(
        experiment=experiment,
        n_uncapped=uncapped.n_users,
        n_tight_capped=tight.n_users,
        n_loose_capped=n_loose,
    )
