"""End-to-end world builder.

Generates the markets, draws subscriber populations, simulates three
calendar years of traffic and yearly service reviews per household, runs
the simulated measurement clients over the result, and assembles the
analysis-ready datasets. This module is the only place where ground truth
(latent users) and measurements meet; everything downstream sees the
measured rows only.

Determinism and parallelism
---------------------------

Every household owns an independent random stream derived from
``SeedSequence([seed, source_stream, country_index, user_index])``, so a
user's draws never depend on how many users ran before it, in which
process, or in which order. World-level state (markets, survey, city
names) comes from separate fixed streams. Consequently
``build_world(config, jobs=N)`` is **bit-identical** for every worker
count ``N`` and every chunk size — the equivalence tests in
``tests/datasets/test_parallel_builder.py`` lock this down.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..behavior.choice import ChoiceModel
from ..behavior.demand import DemandProcess
from ..behavior.population import LatentUser, PopulationModel
from ..behavior.upgrades import UpgradePolicy
from ..core.executor import resolve_jobs, run_sharded, stream_rng
from ..core.metrics import demand_summary
from ..core.upgrades import NetworkId
from ..exceptions import DatasetError
from ..faults.injector import FaultInjector
from ..market.countries import CountryProfile, build_profiles
from ..market.market import CountryMarket
from ..market.plans import BroadbandPlan
from ..market.survey import PlanSurvey, generate_survey
from ..measurement.dasu import DasuClient, DasuVantage
from ..measurement.gateway import FccGateway
from ..measurement.ndt import NdtClient
from ..measurement.web_latency import WebLatencyProber
from ..network.geo import NetworkPlanner, sample_cities
from ..obs import ledger as obs
from ..obs.ledger import RunLedger, scoped
from ..network.link import AccessLink, provision_link
from ..network.path import NetworkPath, build_path
from ..network.technology import sample_technology
from ..traffic.generator import generate_usage_series
from .columns import UserColumns, records_to_rows
from .records import hourly_profile
from .sanitize import (
    SanitizationReport,
    sanitize_columns,
    sanitize_samples,
    strip_sentinels,
)
from .traces import UsageTrace
from .world import DasuDataset, FccDataset, World, WorldConfig

__all__ = ["build_world"]

_DAYS_PER_YEAR = 365.0
#: Minimum usable usage samples per period; below this the period (and in
#: practice the user-year) is dropped, as the paper drops sparse vantages.
_MIN_SAMPLES = 150
_MIN_NO_BT_SAMPLES = 60

#: Fixed stream tags for :class:`numpy.random.SeedSequence` derivation.
#: Changing any of these changes every world; they are part of the
#: on-disk cache key via the package version.
_MARKET_STREAM = 1
_DASU_STREAM = 2
_FCC_STREAM = 3
_CITY_STREAM = 4
#: Prefix tag of the per-household *fault* streams. Faults draw from
#: ``SeedSequence([seed, _FAULT_STREAM, source_stream, country, user])``
#: — a different tree node than the household's generative stream — so
#: enabling injection never perturbs the clean draws, and a zero-rate
#: injector is byte-identical to no injector.
_FAULT_STREAM = 5

#: Households simulated per sharded task. Small enough to balance load
#: across workers, large enough to amortize task dispatch; the result is
#: invariant to this value (each user carries its own seed stream).
_DEFAULT_CHUNK_SIZE = 32


def _user_rng(
    seed: int, stream: int, country_index: int, user_index: int
) -> np.random.Generator:
    """The independent random stream owned by one household."""
    return stream_rng(seed, stream, country_index, user_index)


def _fault_rng(
    seed: int, stream: int, country_index: int, user_index: int
) -> np.random.Generator:
    """The household's *fault* stream, disjoint from its clean draws."""
    return stream_rng(seed, _FAULT_STREAM, stream, country_index, user_index)


def _allocate_counts(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder allocation of ``total`` users to countries."""
    if total == 0:
        return np.zeros(len(weights), dtype=int)
    shares = weights / weights.sum() * total
    counts = np.floor(shares).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(shares - counts))
        counts[order[:remainder]] += 1
    return counts


@dataclass
class _YearOutcome:
    #: The period's values in :data:`~repro.datasets.columns.PERIOD_FIELDS`
    #: order, ``None`` where an optional value is absent.
    observation: tuple
    measured_peak_utilization: float
    trace: UsageTrace | None = None


class _Household(NamedTuple):
    """One simulated household as :func:`~repro.datasets.columns.
    records_to_rows` takes it: its values in ``USER_FIELDS`` order and
    one value tuple per observed period."""

    user: tuple
    observations: tuple[tuple, ...]

    @property
    def source(self) -> str:
        return self.user[1]


class _CountrySimulator:
    """Simulates one household of one country for one data source.

    Instances are cheap and single-use: the builder creates one per
    household, handing it that household's private random stream plus the
    country-level immutables (profile, market, city names).
    """

    def __init__(
        self,
        profile: CountryProfile,
        market: CountryMarket,
        config: WorldConfig,
        rng: np.random.Generator,
        source: str,
        cities: tuple[str, ...] | None = None,
        injector: FaultInjector | None = None,
        report: SanitizationReport | None = None,
    ) -> None:
        self.profile = profile
        self.market = market
        self.config = config
        self.rng = rng
        self.source = source
        self.cities = cities
        #: Fault injector fed by this household's dedicated fault stream
        #: (``None`` for a pristine substrate).
        self.injector = injector
        #: Sample-level sanitization accounting, shared across the chunk
        #: (``None`` unless ``config.sanitize``).
        self.report = report
        self.isps = tuple(sorted({p.isp for p in market.plans}))
        self.population = PopulationModel()
        self.choice_model = ChoiceModel()
        self.upgrade_policy = UpgradePolicy(self.choice_model)
        self.ndt = NdtClient(rng)
        self.web_prober = WebLatencyProber(rng)

    # -- plan selection ----------------------------------------------------

    def _household_market(self) -> CountryMarket:
        """The plan set actually available at one household's address.

        Most households see the full national market; a minority are
        supply-constrained (rural loops, unserved streets) and can only
        buy slow tiers no matter what they need or can afford.
        """
        if self.rng.random() >= self.config.address_constraint_rate:
            return self.market
        residential = [p for p in self.market.plans if not p.dedicated]
        if not residential:
            residential = list(self.market.plans)
        # Constrained addresses can still get low-single-digit megabits
        # (long DSL loops); genuinely sub-megabit US subscribers are
        # light users by choice, per Table 4 / Fig. 9's demand levels.
        cap = float(np.exp(self.rng.uniform(np.log(2.0), np.log(16.0))))
        available = tuple(
            p for p in residential if p.download_mbps <= cap
        )
        if not available:
            available = (
                min(residential, key=lambda p: p.download_mbps),
            )
        return CountryMarket(economy=self.market.economy, plans=available)

    def _choose_plan(
        self, user: LatentUser, market: CountryMarket
    ) -> BroadbandPlan | None:
        if not self.config.price_selection_enabled:
            # Ablation: sever the price/budget mechanism entirely — every
            # candidate subscribes, to a uniformly random residential plan.
            candidates = [p for p in market.plans if not p.dedicated]
            if not candidates:
                candidates = list(market.plans)
            return candidates[int(self.rng.integers(len(candidates)))]
        choice = self.choice_model.choose(
            user,
            market,
            self.rng,
            promoted_tier_mbps=self.profile.promoted_tier_mbps,
            promoted_adoption=self.profile.promoted_adoption,
        )
        return None if choice is None else choice.plan

    def _draw_subscriber(
        self, user_id: str, market: CountryMarket
    ) -> tuple[LatentUser, BroadbandPlan] | None:
        """Draw candidate households until one subscribes."""
        economy = market.economy
        for _ in range(self.config.max_candidate_draws):
            user = self.population.sample_user(
                user_id,
                economy,
                self.rng,
                bt_population=(self.source == "dasu"),
            )
            plan = self._choose_plan(user, market)
            if plan is not None:
                return user, plan
        return None

    # -- physical provisioning ----------------------------------------------

    def _provision(self, plan: BroadbandPlan) -> AccessLink:
        if plan.technology.is_fixed_line:
            technology = sample_technology(
                self.profile.tech_mix, plan.download_mbps, self.rng
            )
        else:
            technology = plan.technology
        return provision_link(
            plan.download_mbps,
            plan.upload_mbps,
            technology,
            self.rng,
            loss_multiplier=self.profile.loss_multiplier,
        )

    def _path_for(self, link: AccessLink, previous: NetworkPath | None) -> NetworkPath:
        if previous is None:
            return build_path(link, self.profile.extra_latency_ms, self.rng)
        # Same home, new line: the wide-area situation is unchanged.
        return NetworkPath(
            link=link,
            distance_rtt_ms=previous.distance_rtt_ms,
            cdn_gap_ms=previous.cdn_gap_ms,
            path_loss_fraction=previous.path_loss_fraction,
        )

    # -- one observed year ---------------------------------------------------

    def _demand_process(
        self,
        user: LatentUser,
        path: NetworkPath,
        data_cap_gb: float | None,
    ) -> DemandProcess:
        process = DemandProcess.for_user(user, path, data_cap_gb=data_cap_gb)
        if self.config.quality_suppression_enabled:
            return process
        # Ablation: no QoE suppression and no TCP ceiling below line rate.
        return DemandProcess(
            offered_peak_mbps=user.need_mbps,
            ceiling_mbps=path.link.download_mbps,
            activity_level=process.activity_level,
            burstiness_sigma=process.burstiness_sigma,
            rate_median_share=process.rate_median_share,
            bt_user=process.bt_user,
        )

    def _collect_usage(
        self, series
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None] | None:
        """(down rates, bt flags, local hours, up rates) as collected."""
        if self.source == "dasu":
            vantage = (
                DasuVantage.UPNP
                if self.rng.random() < 0.55
                else DasuVantage.DIRECT
            )
            client = DasuClient(vantage, self.rng)
            for _ in range(3):
                sampled = client.collect(series)
                if (
                    sampled.n_samples >= _MIN_SAMPLES
                    and int(np.sum(~sampled.bt_active)) >= _MIN_NO_BT_SAMPLES
                ):
                    return (
                        sampled.rates_mbps,
                        sampled.bt_active,
                        sampled.hours,
                        sampled.up_rates_mbps,
                    )
            return None
        gateway = FccGateway(self.rng)
        hourly, hours, up_hourly = gateway.collect(series)
        # Gateways see bytes, not applications: no BitTorrent visibility.
        return hourly, np.zeros(hourly.size, dtype=bool), hours, up_hourly

    def _damage_and_clean(
        self,
        rates: np.ndarray,
        bt_flags: np.ndarray,
        hours: np.ndarray,
        up_rates: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Fault injection then sample-level sanitization, in that order.

        With neither configured this is the identity, so clean worlds
        take byte-identical paths to pre-fault-injection builds. With
        faults but no sanitization, reset sentinels are still stripped
        (without repair accounting): a ``-1`` rate must never reach
        :func:`~repro.core.metrics.demand_summary`.
        """
        if self.injector is not None:
            if self.source == "dasu":
                rates, bt_flags, hours, up_rates = (
                    self.injector.perturb_dasu_samples(
                        rates, bt_flags, hours, up_rates,
                        interval_s=self.config.sample_interval_s,
                    )
                )
            else:
                rates, bt_flags, hours, up_rates = (
                    self.injector.perturb_gateway_samples(
                        rates, bt_flags, hours, up_rates
                    )
                )
        if self.config.sanitize:
            rates, bt_flags, hours, up_rates = sanitize_samples(
                rates, bt_flags, hours, up_rates,
                # Only the Dasu path reads 32-bit counters; gateway
                # records aggregate 64-bit counters and cannot wrap.
                counter_interval_s=(
                    self.config.sample_interval_s
                    if self.source == "dasu"
                    else None
                ),
                report=self.report,
            )
        elif self.injector is not None:
            rates, bt_flags, hours, up_rates = strip_sentinels(
                rates, bt_flags, hours, up_rates
            )
        return rates, bt_flags, hours, up_rates

    def _observe_year(
        self,
        user: LatentUser,
        path: NetworkPath,
        network: NetworkId,
        year_index: int,
        data_cap_gb: float | None,
        keep_trace: bool = False,
    ) -> _YearOutcome | None:
        config = self.config
        year_start = year_index * _DAYS_PER_YEAR
        max_offset = max(1.0, _DAYS_PER_YEAR - config.days_per_year - 1.0)
        start_day = year_start + float(self.rng.uniform(0.0, max_offset))
        end_day = start_day + config.days_per_year

        demand = self._demand_process(user, path, data_cap_gb)
        series = generate_usage_series(
            demand,
            config.days_per_year,
            config.sample_interval_s,
            self.rng,
            start_hour=float(self.rng.uniform(0.0, 24.0)),
        )
        collected = self._collect_usage(series)
        if collected is None:
            return None
        rates, bt_flags, hours, up_rates = self._damage_and_clean(*collected)
        if rates.size == 0:
            # Injection (drops, gaps, resets) can gut a period entirely.
            return None
        with_bt = demand_summary(rates)
        no_bt_rates = rates[~bt_flags]
        no_bt = demand_summary(no_bt_rates) if no_bt_rates.size else with_bt
        up_summary = (
            demand_summary(up_rates)
            if up_rates is not None and up_rates.size
            else None
        )

        tests = self.ndt.run_tests(
            path,
            config.ndt_tests_per_period,
            (start_day, end_day),
            typical_cross_traffic_mbps=with_bt.mean_mbps,
        )
        if self.injector is not None:
            tests = self.injector.perturb_ndt(tests)
            if not tests:
                # Every run failed: no capacity estimate, no period.
                return None
        capacity = max(t.download_mbps for t in tests)
        capacity_up = max(t.upload_mbps for t in tests)
        latency = float(np.mean([t.rtt_ms for t in tests]))
        loss = float(np.mean([t.loss_fraction for t in tests]))

        observation = (
            network.isp, network.prefix, network.city,
            start_day, end_day, capacity,
            with_bt.mean_mbps, with_bt.peak_mbps,
            no_bt.mean_mbps, no_bt.peak_mbps,
            latency, loss, capacity_up, len(tests), int(rates.size),
            hourly_profile(rates, hours),
            None if up_summary is None else up_summary.mean_mbps,
            None if up_summary is None else up_summary.peak_mbps,
        )
        trace = None
        if keep_trace:
            trace = UsageTrace(
                user_id=user.user_id,
                year=2011 + year_index,
                interval_s=(
                    config.sample_interval_s
                    if self.source == "dasu"
                    else 3600.0
                ),
                rates_mbps=rates,
                bt_active=bt_flags,
                hours=hours,
                up_rates_mbps=up_rates,
            )
        return _YearOutcome(
            observation=observation,
            measured_peak_utilization=min(1.0, no_bt.peak_mbps / capacity),
            trace=trace,
        )

    # -- a full household ---------------------------------------------------

    def _observed_year_range(self) -> tuple[int, int]:
        """(first, last) observed year indexes for one panel member.

        Real measurement panels churn: vantage points join and leave. A
        member enters in year 0 with probability ~0.55 (later otherwise)
        and drops out with ~12% probability per subsequent year. Churn is
        what keeps the per-class population composition stationary in the
        longitudinal analysis: fresh low-demand subscribers keep arriving
        while grown households move up and out of their old class.
        """
        n_years = len(self.config.years)
        roll = self.rng.random()
        if n_years == 1 or roll < 0.55:
            entry = 0
        elif n_years == 2 or roll < 0.80:
            entry = 1
        else:
            entry = 2
        exit_index = entry
        while exit_index + 1 < n_years and self.rng.random() >= 0.12:
            exit_index += 1
        return entry, exit_index

    def simulate_user(
        self, user_id: str
    ) -> tuple[_Household, LatentUser, tuple[UsageTrace, ...]] | None:
        obs.count("build.households.simulated")
        if self.injector is not None and self.injector.household_lost():
            # Churn: the household vanished before producing any data.
            obs.count("build.households.lost_to_churn")
            return None
        planner = NetworkPlanner(
            self.profile.name,
            self.isps,
            self.rng,
            cities=self.cities,
            prefix_salt=zlib.crc32(user_id.encode("utf-8")),
        )
        keep_traces = (
            self.config.trace_user_fraction > 0.0
            and self.rng.random() < self.config.trace_user_fraction
        )
        household_market = self._household_market()
        drawn = self._draw_subscriber(user_id, household_market)
        if drawn is None:
            obs.count("build.households.no_subscription")
            return None
        user, plan = drawn
        original_user = user
        link = self._provision(plan)
        path = self._path_for(link, previous=None)
        network = planner.home_network(plan.isp)
        entry_year, exit_year = self._observed_year_range()
        if self.injector is not None:
            entry_year, exit_year = self.injector.perturb_panel(
                entry_year, exit_year
            )

        # Demand growth is a single episode (see PopulationModel): pick
        # the year after which the grower's need jumps.
        is_grower = (
            self.config.demand_growth_enabled and user.yearly_need_growth > 1.0
        )
        growth_year = (
            int(self.rng.integers(entry_year, exit_year + 1))
            if is_grower and exit_year > entry_year
            else None
        )

        observations: list[tuple] = []
        traces: list[UsageTrace] = []
        for year_index in range(entry_year, exit_year + 1):
            outcome = self._observe_year(
                user, path, network, year_index, plan.data_cap_gb,
                keep_trace=keep_traces,
            )
            if outcome is not None:
                observations.append(outcome.observation)
                if outcome.trace is not None:
                    traces.append(outcome.trace)

            if year_index == exit_year:
                break
            need_grew = growth_year is not None and year_index == growth_year
            utilization = (
                outcome.measured_peak_utilization if outcome else 0.0
            )
            if need_grew:
                ratio = user.yearly_need_growth
                user = user.grown()
                utilization = min(1.0, utilization * ratio)
            decision = self.upgrade_policy.review(
                user,
                household_market,
                plan.download_mbps,
                utilization,
                self.rng,
                promoted_tier_mbps=self.profile.promoted_tier_mbps,
                promoted_adoption=self.profile.promoted_adoption,
                need_grew=need_grew,
            )
            if decision.switched and decision.choice is not None:
                plan = decision.choice.plan
                link = self._provision(plan)
                moved = decision.reason == "moved"
                path = self._path_for(link, None if moved else path)
                network = planner.switched_network(network)

        if not observations:
            obs.count("build.households.no_observations")
            return None

        web_latency = None
        ndt_2014 = None
        if self.rng.random() < self.config.web_probe_fraction:
            web_latency = self.web_prober.median_latency_ms(path)
            followup = self.ndt.run_tests(path, 4, (0.0, 30.0))
            if self.injector is not None:
                followup = self.injector.perturb_ndt(followup)
            if followup:
                ndt_2014 = float(np.mean([t.rtt_ms for t in followup]))

        vantage = "gateway"
        if self.source == "dasu":
            vantage = "upnp" if self.rng.random() < 0.55 else "direct"
        household = _Household(
            user=(
                user_id, self.source, self.profile.name,
                self.profile.region.value, self.profile.development.value,
                vantage, link.technology.value, user.bt_user,
                self.market.price_of_access(),
                self.market.upgrade_cost_usd_per_mbps,
                self.market.economy.gdp_per_capita_ppp_usd,
                plan.data_cap_gb, web_latency, ndt_2014,
            ),
            observations=tuple(observations),
        )
        return household, original_user, tuple(traces)


# -- sharded orchestration ---------------------------------------------------


@dataclass(frozen=True)
class _ChunkSpec:
    """One shardable unit of work: a contiguous index range of one
    country's households for one data source. Specs are tiny and
    picklable; all heavyweight state is rebuilt per worker from the
    configuration."""

    source: str
    country: str
    country_index: int
    stream: int
    start: int
    count: int


class _BuildContext:
    """World-level deterministic state, rebuilt identically in every
    worker process from the configuration alone."""

    def __init__(self, config: WorldConfig, ground_truth: bool = True) -> None:
        self.config = config
        self.ground_truth = ground_truth
        market_rng = np.random.default_rng([config.seed, _MARKET_STREAM])
        self.profiles = build_profiles(
            market_rng, include_synthetic=config.include_synthetic_countries
        )
        self.profile_map = {p.name: p for p in self.profiles}
        self.survey = generate_survey(self.profiles, market_rng)
        self._cities: dict[tuple[int, int], tuple[str, ...]] = {}

    def cities_for(self, stream: int, country_index: int) -> tuple[str, ...]:
        """Country-level city names, from their own fixed stream so they
        are identical no matter which worker asks first."""
        key = (stream, country_index)
        if key not in self._cities:
            rng = np.random.default_rng(
                [self.config.seed, _CITY_STREAM, stream, country_index]
            )
            self._cities[key] = sample_cities(rng)
        return self._cities[key]


def _plan_chunks(
    config: WorldConfig, profiles: tuple[CountryProfile, ...], chunk_size: int
) -> list[_ChunkSpec]:
    """Deterministic shard plan: country enumeration order, then index."""
    weights = np.array([p.dasu_user_weight for p in profiles], dtype=float)
    dasu_counts = _allocate_counts(weights, config.n_dasu_users)
    specs: list[_ChunkSpec] = []
    for country_index, profile in enumerate(profiles):
        count = int(dasu_counts[country_index])
        for start in range(0, count, chunk_size):
            specs.append(
                _ChunkSpec(
                    source="dasu",
                    country=profile.name,
                    country_index=country_index,
                    stream=_DASU_STREAM,
                    start=start,
                    count=min(chunk_size, count - start),
                )
            )
    if config.n_fcc_users > 0:
        us_index = next(
            (i for i, p in enumerate(profiles) if p.name == "US"), None
        )
        if us_index is None:
            raise DatasetError("the FCC panel requires a US market")
        for start in range(0, config.n_fcc_users, chunk_size):
            specs.append(
                _ChunkSpec(
                    source="fcc",
                    country="US",
                    country_index=us_index,
                    stream=_FCC_STREAM,
                    start=start,
                    count=min(chunk_size, config.n_fcc_users - start),
                )
            )
    return specs


#: One chunk's yield, columnized at the worker: the surviving users'
#: period rows (builder append order preserved), plus ground-truth
#: latents and raw traces keyed by user id — both usually empty/tiny, so
#: the pickled payload is one compact array instead of an object list.
_ChunkColumns = tuple[
    np.ndarray,
    tuple[tuple[str, LatentUser], ...],
    tuple[tuple[str, tuple[UsageTrace, ...]], ...],
]
_ChunkResult = tuple[_ChunkColumns, "SanitizationReport | None"]


def _simulate_chunk(context: _BuildContext, spec: _ChunkSpec) -> _ChunkResult:
    """Simulate one chunk of households; shared by serial and parallel
    paths, so the two are equivalent by construction.

    Returns the chunk's surviving users as a columnar block plus its
    share of the sample-level sanitization accounting (``None`` unless
    ``config.sanitize``); counters are merged across chunks by addition,
    so the totals are identical for every chunking.
    """
    config = context.config
    profile = context.profile_map[spec.country]
    market = context.survey.market(spec.country)
    cities = context.cities_for(spec.stream, spec.country_index)
    report = SanitizationReport() if config.sanitize else None
    households: list[_Household] = []
    latents: list[tuple[str, LatentUser]] = []
    traces: list[tuple[str, tuple[UsageTrace, ...]]] = []
    with obs.span(
        f"build/chunk/{spec.source}/{spec.country}/{spec.start:05d}"
    ):
        for user_index in range(spec.start, spec.start + spec.count):
            rng = _user_rng(
                config.seed, spec.stream, spec.country_index, user_index
            )
            injector = None
            if config.faults is not None:
                injector = FaultInjector(
                    config.faults,
                    _fault_rng(
                        config.seed, spec.stream, spec.country_index, user_index
                    ),
                )
            simulator = _CountrySimulator(
                profile, market, config, rng, source=spec.source, cities=cities,
                injector=injector, report=report,
            )
            user_id = f"{spec.source}-{spec.country}-{user_index:05d}"
            outcome = simulator.simulate_user(user_id)
            if outcome is None:
                continue
            household, latent, user_traces = outcome
            households.append(household)
            if context.ground_truth:
                latents.append((user_id, latent))
            if user_traces:
                traces.append((user_id, user_traces))
    return (records_to_rows(households), tuple(latents), tuple(traces)), report


#: Per-process build context for pool workers (set by ``_worker_init``).
_WORKER_CONTEXT: _BuildContext | None = None


def _worker_init(config: WorldConfig, ground_truth: bool = True) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = _BuildContext(config, ground_truth)


def _worker_chunk(spec: _ChunkSpec) -> _ChunkResult:
    assert _WORKER_CONTEXT is not None, "worker used before initialization"
    return _simulate_chunk(_WORKER_CONTEXT, spec)


def build_world(
    config: WorldConfig | None = None,
    *,
    jobs: int | None = 1,
    chunk_size: int | None = None,
    ledger: RunLedger | None = None,
    ground_truth: bool = True,
) -> World:
    """Build a complete synthetic world from a configuration.

    ``jobs`` shards the per-household simulation across that many worker
    processes (``None`` = one per CPU); the result is bit-identical for
    every ``jobs`` and ``chunk_size`` value.

    ``ground_truth=False`` skips retaining the per-household latent
    users — they are never persisted or analyzed, only compared against
    in tests — which keeps large-world builds free of the one
    O(households) object collection that remains.

    The build accounts for itself in a :class:`~repro.obs.ledger.
    RunLedger` (pass one to accumulate across stages, or let the builder
    create one) attached to the returned world as ``world.ledger``.
    Counters add and spans sort canonically, so the serialized ledger is
    byte-identical for every ``jobs`` value, like the world itself.
    """
    if config is None:
        config = WorldConfig()
    n_jobs = resolve_jobs(jobs)
    if chunk_size is not None and chunk_size < 1:
        raise DatasetError("chunk size must be a positive integer")
    size = chunk_size if chunk_size is not None else _DEFAULT_CHUNK_SIZE
    if ledger is None:
        ledger = RunLedger()

    context = _BuildContext(config, ground_truth)
    specs = _plan_chunks(config, context.profiles, size)
    if n_jobs == 1:
        # Serial path: record straight into the run ledger (the ambient
        # scope makes worker-side instrumentation land there), chunk by
        # chunk in spec order — the same order the parallel path merges
        # shard ledgers in.
        with scoped(ledger):
            chunk_results = [_simulate_chunk(context, spec) for spec in specs]
    else:
        chunk_results = run_sharded(
            _worker_chunk,
            specs,
            jobs=n_jobs,
            initializer=_worker_init,
            initargs=(config, ground_truth),
            ledger=ledger,
        )

    # Concatenate column chunks in spec (submission) order, so the world
    # is byte-for-byte the same for every jobs/chunk_size value.
    dasu_parts: list[np.ndarray] = []
    fcc_parts: list[np.ndarray] = []
    latents: dict[str, LatentUser] = {}
    traces: dict[str, tuple[UsageTrace, ...]] = {}
    report = SanitizationReport() if config.sanitize else None
    for spec, ((rows, chunk_latents, chunk_traces), chunk_report) in zip(
        specs, chunk_results
    ):
        if report is not None and chunk_report is not None:
            report.merge(chunk_report)
        (dasu_parts if spec.source == "dasu" else fcc_parts).append(rows)
        latents.update(chunk_latents)
        traces.update(chunk_traces)
    dasu_columns = UserColumns.concat(dasu_parts)
    fcc_columns = UserColumns.concat(fcc_parts)
    del dasu_parts, fcc_parts, chunk_results

    if report is not None:
        # Record-level cleaning pass (period dedup, NDT-failure and
        # invalid-value exclusion, minimum observed days per host) as
        # row masks over the columns.
        dasu_columns, report = sanitize_columns(
            dasu_columns,
            dasu_interval_s=config.sample_interval_s,
            report=report,
        )
        fcc_columns, report = sanitize_columns(
            fcc_columns,
            dasu_interval_s=config.sample_interval_s,
            report=report,
        )
        if latents or traces:
            kept = set(dasu_columns.user_ids) | set(fcc_columns.user_ids)
            latents = {k: v for k, v in latents.items() if k in kept}
            traces = {k: v for k, v in traces.items() if k in kept}
        # Bridge the *final* report (sample- and record-level rules both
        # folded in) into the ledger, so the trace's ``sanitize.*``
        # counters equal the persisted ``sanitization.json`` exactly.
        for name, value in sorted(report.ledger_counters().items()):
            ledger.count(name, value)

    ledger.count("build.chunks", len(specs))
    ledger.count("build.users.dasu", dasu_columns.n_users)
    ledger.count("build.users.fcc", fcc_columns.n_users)
    ledger.count(
        "build.periods.kept", dasu_columns.n_rows + fcc_columns.n_rows
    )

    return World(
        config=config,
        profiles=context.profile_map,
        survey=context.survey,
        dasu=DasuDataset(columns=dasu_columns),
        fcc=FccDataset(columns=fcc_columns),
        ground_truth=latents,
        traces=traces,
        sanitization=report,
        ledger=ledger,
    )
