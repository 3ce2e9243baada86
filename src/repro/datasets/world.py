"""World configuration and containers.

A :class:`WorldConfig` fully determines a synthetic world (markets,
populations, measurements) through a single seed. The mechanism switches
(``price_selection_enabled``, ``quality_suppression_enabled``,
``demand_growth_enabled``) exist for the ablation benchmarks: disabling a
causal mechanism must make the corresponding natural experiment collapse
to chance, which validates that the analysis pipeline does not
manufacture effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping

from ..behavior.population import LatentUser
from ..exceptions import DatasetError
from ..faults.config import FaultConfig
from ..market.survey import PlanSurvey
from ..obs.ledger import RunLedger
from .sanitize import SanitizationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .columns import UserColumns

__all__ = ["DasuDataset", "FccDataset", "World", "WorldConfig"]


@dataclass(frozen=True)
class WorldConfig:
    """All the knobs of a synthetic world."""

    seed: int = 20141105  # the paper's presentation date
    n_dasu_users: int = 8000
    n_fcc_users: int = 1500
    years: tuple[int, ...] = (2011, 2012, 2013)
    days_per_year: float = 2.0
    sample_interval_s: float = 30.0
    include_synthetic_countries: bool = True
    ndt_tests_per_period: int = 10
    web_probe_fraction: float = 0.6
    max_candidate_draws: int = 60
    #: Share of households whose address limits the plans actually
    #: available to them (rural DSL, unserved streets). Constrained
    #: households sit on slow tiers regardless of need — the reason low
    #: tiers run hot even in cheap markets (Fig. 8a).
    address_constraint_rate: float = 0.12
    #: Share of users whose raw collected samples are retained as
    #: auditable traces (see :mod:`repro.datasets.traces`).
    trace_user_fraction: float = 0.0
    # Mechanism switches (for ablation studies).
    price_selection_enabled: bool = True
    quality_suppression_enabled: bool = True
    demand_growth_enabled: bool = True
    #: Measurement-substrate fault injection (see :mod:`repro.faults`).
    #: ``None`` — the default — means a pristine substrate and output
    #: byte-identical to worlds built before fault injection existed.
    faults: FaultConfig | None = None
    #: Run the :mod:`repro.datasets.sanitize` cleaning stage while
    #: building (sample-level repair inside collection, record-level
    #: filtering afterwards) and attach its report to the world.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.faults, dict):
            # Allow configs deserialized from JSON payloads.
            object.__setattr__(self, "faults", FaultConfig(**self.faults))
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise DatasetError("faults must be a FaultConfig or None")
        if self.n_dasu_users < 0 or self.n_fcc_users < 0:
            raise DatasetError("user counts cannot be negative")
        if not self.years or tuple(sorted(self.years)) != tuple(self.years):
            raise DatasetError("years must be a non-empty ascending tuple")
        if self.days_per_year <= 0 or self.sample_interval_s <= 0:
            raise DatasetError("observation window must be positive")
        if self.ndt_tests_per_period < 1:
            raise DatasetError("need at least one NDT test per period")
        if not 0.0 <= self.web_probe_fraction <= 1.0:
            raise DatasetError("web probe fraction must be a fraction")
        if not 0.0 <= self.address_constraint_rate <= 1.0:
            raise DatasetError("address constraint rate must be a fraction")
        if not 0.0 <= self.trace_user_fraction <= 1.0:
            raise DatasetError("trace fraction must be a fraction")


class _ColumnarDataset:
    """One dataset of a world: its :class:`~repro.datasets.columns.
    UserColumns` row block, which is what every analysis reads.

    Two datasets are equal when their ``columns.rows`` are equal byte
    for byte. That is NaN-safe (an hourly profile holds NaN for
    uncovered hours, and NaN != NaN would make a dataset unequal to
    itself).
    """

    __slots__ = ("columns",)

    def __init__(self, columns: "UserColumns") -> None:
        self.columns = columns

    @property
    def n_users(self) -> int:
        return self.columns.n_users

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ColumnarDataset):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.columns.rows.tobytes() == other.columns.rows.tobytes()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_users={self.n_users})"


class DasuDataset(_ColumnarDataset):
    """The simulated Dasu dataset: global, end-host collected."""

    __slots__ = ()


class FccDataset(_ColumnarDataset):
    """The simulated FCC/SamKnows dataset: US-only, gateway collected."""

    __slots__ = ()


@dataclass(frozen=True)
class World:
    """A fully built synthetic world.

    Equality compares the datasets by their column rows, byte for byte,
    so two loads of one cache entry compare equal even though their
    hourly profiles hold NaN, and the survey by its canonical bytes.
    """

    config: WorldConfig
    #: The plan survey's canonical CSV bytes
    #: (:func:`~repro.datasets.io.survey_csv_bytes`): what a cache entry
    #: stores and what the survey slice's digest hashes.
    survey_csv: bytes = field(repr=False)
    dasu: DasuDataset
    fcc: FccDataset
    ground_truth: Mapping[str, LatentUser] = field(repr=False)
    #: Raw collected traces for the sampled subset of users (empty unless
    #: ``config.trace_user_fraction`` > 0).
    traces: Mapping[str, tuple] = field(default_factory=dict, repr=False)
    #: What the sanitization stage did (``None`` unless
    #: ``config.sanitize`` was set when the world was built).
    sanitization: SanitizationReport | None = field(
        default=None, repr=False, compare=False
    )
    #: The build-stage run ledger (counters + spans, see
    #: :mod:`repro.obs`); attached by :func:`~repro.datasets.builder.
    #: build_world`, ``None`` for worlds assembled by hand or loaded
    #: from pre-ledger cache entries.
    ledger: RunLedger | None = field(default=None, repr=False, compare=False)

    @classmethod
    def with_survey(cls, survey: PlanSurvey, **fields: Any) -> "World":
        """A world around an already decoded survey: its bytes are
        rendered here, once, and ``world.survey`` returns ``survey``
        itself rather than decoding them again."""
        from .io import survey_csv_bytes

        world = cls(survey_csv=survey_csv_bytes(survey), **fields)
        world.__dict__["survey"] = survey  # the cached_property's slot
        return world

    @cached_property
    def survey(self) -> PlanSurvey:
        """The plan survey, decoded from :attr:`survey_csv` on first
        read. A cache hit validates the bytes against the entry's
        digest; only Sec. 6's analyses read the decoded survey."""
        from .io import decode_survey_csv

        return decode_survey_csv(self.survey_csv, "survey.csv")

    @property
    def all_columns(self) -> "UserColumns":
        """Both datasets as one columnar block, dasu rows first — the
        ``users.csv`` row order."""
        from .columns import UserColumns

        return UserColumns.concat([self.dasu.columns, self.fcc.columns])
