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
from typing import TYPE_CHECKING, Mapping

from ..behavior.population import LatentUser
from ..exceptions import DatasetError
from ..faults.config import FaultConfig
from ..market.countries import CountryProfile
from ..market.survey import PlanSurvey
from ..obs.ledger import RunLedger
from .records import UserRecord
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
    """A dataset held either as records or as columns, deriving the
    other representation lazily.

    The builder and cache hand over :class:`~repro.datasets.columns.
    UserColumns`; hand-assembled worlds (tests, synthetic fixtures) may
    pass record tuples instead. ``columns`` is what every analysis
    reads; ``users`` materializes records only for callers that want
    per-household objects (the builder's checks, tests). Records read
    from the columns remember them, so converting ``users`` back to
    columns returns ``columns`` itself.

    Two datasets are equal when their ``columns.rows`` are equal byte
    for byte. That is NaN-safe (an hourly profile holds NaN for
    uncovered hours, and NaN != NaN would make a dataset unequal to
    itself) and needs no records.
    """

    __slots__ = ("_users", "_columns")

    def __init__(
        self,
        users: tuple[UserRecord, ...] | None = None,
        *,
        columns: "UserColumns | None" = None,
    ) -> None:
        if (users is None) == (columns is None):
            raise DatasetError(
                "pass exactly one of users= or columns= to a dataset"
            )
        self._users = tuple(users) if users is not None else None
        self._columns = columns

    @property
    def users(self) -> tuple[UserRecord, ...]:
        if self._users is None:
            self._users = self._columns.to_records()
        return self._users

    @property
    def columns(self) -> "UserColumns":
        if self._columns is None:
            from .columns import UserColumns

            self._columns = UserColumns.from_records(self._users)
        return self._columns

    @property
    def n_users(self) -> int:
        if self._columns is not None:
            return self._columns.n_users
        return len(self._users)

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
    hourly profiles hold NaN.
    """

    config: WorldConfig
    profiles: Mapping[str, CountryProfile]
    survey: PlanSurvey
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

    @property
    def all_users(self) -> tuple[UserRecord, ...]:
        return self.dasu.users + self.fcc.users

    @property
    def all_columns(self) -> "UserColumns":
        """Both datasets as one columnar block, dasu rows first —
        mirroring :attr:`all_users` and the ``users.csv`` row order."""
        from .columns import UserColumns

        return UserColumns.concat([self.dasu.columns, self.fcc.columns])
