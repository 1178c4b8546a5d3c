"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is the complete, serialisable description of
one federated experiment: campuses with heterogeneous GPU generations,
per-site diurnal demand (with a timezone offset, so a multi-campus
federation's peaks roll around the clock), flash-crowd interactive
bursts, spot-style provider churn, and optional WAN-outage /
control-plane-crash chaos windows.  Everything an experiment script
used to hand-code becomes data: build a spec in Python, round-trip it
through ``to_dict``/``from_dict`` (or JSON), hand it to
:func:`~repro.scenarios.compile.compile_scenario` for a wired
:class:`~repro.federation.deployment.FederatedDeployment`, or to a
:class:`~repro.scenarios.runner.ScenarioRunner` for a seed sweep.

Parsing is strict: unknown keys and wrong types are rejected with
path-qualified messages (``scenario.sites[1].providers[0].gpus[2]:
unknown GPU generation 'rtx9999'``), because a silently-ignored typo
in a scenario file is a silently-different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.faults import BYZANTINE_MODES
from ..gpu.specs import CATALOG
from ..workloads.models import MODEL_CATALOG


class ScenarioError(ValueError):
    """A scenario description that cannot be parsed or validated."""


# -- strict parsing helpers -------------------------------------------------


def _type_name(value: Any) -> str:
    return type(value).__name__


def _parse_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got "
                            f"{_type_name(value)} {value!r}")
    return value


def _parse_number(value: Any, path: str) -> float:
    # bool is an int subclass; a YAML/JSON `true` is never a rate.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got "
                            f"{_type_name(value)} {value!r}")
    return float(value)


def _parse_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got "
                            f"{_type_name(value)} {value!r}")
    return value


def _parse_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true/false, got "
                            f"{_type_name(value)} {value!r}")
    return value


def _optional(parser: Callable) -> Callable:
    def parse(value: Any, path: str):
        if value is None:
            return None
        return parser(value, path)
    return parse


def _tuple_of(parser: Callable) -> Callable:
    def parse(value: Any, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(f"{path}: expected a list, got "
                                f"{_type_name(value)} {value!r}")
        return tuple(parser(item, f"{path}[{index}]")
                     for index, item in enumerate(value))
    return parse


def _parse_mapping(data: Any, path: str, field_parsers: Dict[str, Callable],
                   cls):
    """Build ``cls`` from ``data``, rejecting unknown keys and re-raising
    constructor ``ValueError``s with the offending path attached."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a mapping, got "
                            f"{_type_name(data)} {data!r}")
    unknown = sorted(set(data) - set(field_parsers))
    if unknown:
        raise ScenarioError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected: {', '.join(sorted(field_parsers))}")
    kwargs = {}
    for key, parser in field_parsers.items():
        if key in data:
            kwargs[key] = parser(data[key], f"{path}.{key}")
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as error:
        # Missing required fields (TypeError) and constructor
        # validation (ValueError) both surface with the path attached.
        raise ScenarioError(f"{path}: {error}") from None


def _job_mix_entry(value: Any, path: str) -> Tuple[str, float]:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ScenarioError(f"{path}: expected a [model, weight] pair, "
                            f"got {value!r}")
    name = _parse_str(value[0], f"{path}[0]")
    if name not in MODEL_CATALOG:
        raise ScenarioError(
            f"{path}[0]: unknown model {name!r}; known: "
            f"{', '.join(sorted(MODEL_CATALOG))}")
    weight = _parse_number(value[1], f"{path}[1]")
    if weight <= 0:
        raise ScenarioError(f"{path}[1]: mix weight must be positive, "
                            f"got {weight!r}")
    return (name, weight)


def _gpu_name(value: Any, path: str) -> str:
    name = _parse_str(value, path)
    if name not in CATALOG:
        raise ScenarioError(
            f"{path}: unknown GPU generation {name!r}; known: "
            f"{', '.join(sorted(CATALOG))}")
    return name


# -- sub-specs --------------------------------------------------------------


@dataclass(frozen=True)
class ChurnSpec:
    """Spot-style provider interruption habits (maps onto
    :class:`~repro.agent.behavior.BehaviorProfile`)."""

    events_per_day: float = 1.0
    p_scheduled: float = 0.4
    p_emergency: float = 0.3
    p_temporary: float = 0.3
    mean_downtime_minutes: float = 45.0
    mean_rejoin_minutes: float = 240.0

    def __post_init__(self):
        if self.events_per_day < 0:
            raise ValueError("events_per_day must be >= 0")
        total = self.p_scheduled + self.p_emergency + self.p_temporary
        if abs(total - 1.0) > 1e-9:
            raise ValueError("departure-class probabilities must sum to 1")
        if self.mean_downtime_minutes <= 0 or self.mean_rejoin_minutes <= 0:
            raise ValueError("downtime/rejoin means must be positive")

    _FIELDS = {
        "events_per_day": _parse_number,
        "p_scheduled": _parse_number,
        "p_emergency": _parse_number,
        "p_temporary": _parse_number,
        "mean_downtime_minutes": _parse_number,
        "mean_rejoin_minutes": _parse_number,
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "churn") -> "ChurnSpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events_per_day": self.events_per_day,
            "p_scheduled": self.p_scheduled,
            "p_emergency": self.p_emergency,
            "p_temporary": self.p_temporary,
            "mean_downtime_minutes": self.mean_downtime_minutes,
            "mean_rejoin_minutes": self.mean_rejoin_minutes,
        }


@dataclass(frozen=True)
class ProviderSpec:
    """One provider host: a named server with a rack of GPUs."""

    name: str
    gpus: Tuple[str, ...]  # catalog keys; heterogeneous mixes welcome
    lab: str = "unassigned"
    churn: Optional[ChurnSpec] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("provider name must not be empty")
        if not self.gpus:
            raise ValueError("provider needs at least one GPU")
        for gpu in self.gpus:
            if gpu not in CATALOG:
                raise ValueError(
                    f"unknown GPU generation {gpu!r}; known: "
                    f"{', '.join(sorted(CATALOG))}")

    _FIELDS = {
        "name": _parse_str,
        "gpus": _tuple_of(_gpu_name),
        "lab": _parse_str,
        "churn": _optional(ChurnSpec.from_dict),
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "provider") -> "ProviderSpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "gpus": list(self.gpus),
            "lab": self.lab,
            "churn": self.churn.to_dict() if self.churn else None,
        }


@dataclass(frozen=True)
class DemandSpec:
    """Steady-state demand one campus's users generate.

    ``timezone_offset_hours`` shifts the diurnal peak: a federation
    spanning timezones never has all its campuses peak simultaneously,
    which is exactly the imbalance federation exploits.
    """

    jobs_per_day: float = 0.0
    sessions_per_day: float = 0.0
    timezone_offset_hours: float = 0.0
    mean_job_compute_hours: float = 1.0
    job_mix: Tuple[Tuple[str, float], ...] = (("resnet50-cifar", 1.0),)

    def __post_init__(self):
        if self.jobs_per_day < 0 or self.sessions_per_day < 0:
            raise ValueError("demand rates must be non-negative")
        if self.mean_job_compute_hours <= 0:
            raise ValueError("mean_job_compute_hours must be positive")
        if not self.job_mix:
            raise ValueError("job_mix must not be empty")
        object.__setattr__(self, "job_mix",
                           tuple((name, float(weight))
                                 for name, weight in self.job_mix))
        for name, weight in self.job_mix:
            if name not in MODEL_CATALOG:
                raise ValueError(
                    f"unknown model {name!r}; known: "
                    f"{', '.join(sorted(MODEL_CATALOG))}")
            if weight <= 0:
                raise ValueError("mix weights must be positive")

    _FIELDS = {
        "jobs_per_day": _parse_number,
        "sessions_per_day": _parse_number,
        "timezone_offset_hours": _parse_number,
        "mean_job_compute_hours": _parse_number,
        "job_mix": _tuple_of(_job_mix_entry),
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "demand") -> "DemandSpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs_per_day": self.jobs_per_day,
            "sessions_per_day": self.sessions_per_day,
            "timezone_offset_hours": self.timezone_offset_hours,
            "mean_job_compute_hours": self.mean_job_compute_hours,
            "job_mix": [list(pair) for pair in self.job_mix],
        }


@dataclass(frozen=True)
class SiteSpec:
    """One campus: providers plus the demand its users generate."""

    name: str
    providers: Tuple[ProviderSpec, ...]
    demand: DemandSpec = DemandSpec()

    def __post_init__(self):
        if not self.name:
            raise ValueError("site name must not be empty")
        if not self.providers:
            raise ValueError("site needs at least one provider")
        names = [p.name for p in self.providers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate provider names in site "
                             f"{self.name!r}: {sorted(names)}")

    _FIELDS = {
        "name": _parse_str,
        "providers": _tuple_of(ProviderSpec.from_dict),
        "demand": DemandSpec.from_dict,
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "site") -> "SiteSpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "providers": [p.to_dict() for p in self.providers],
            "demand": self.demand.to_dict(),
        }

    @property
    def gpu_count(self) -> int:
        """Total GPUs this campus contributes."""
        return sum(len(p.gpus) for p in self.providers)


@dataclass(frozen=True)
class FlashCrowdSpec:
    """A burst of interactive sessions hitting one site at once.

    Models the "millions of users" demand shape: a lecture lets out, a
    deadline approaches, and a pile of notebook sessions arrives within
    ``spread_minutes`` of ``start_hour``.
    """

    site: str
    start_hour: float
    sessions: int
    spread_minutes: float = 10.0
    mean_session_minutes: float = 45.0

    def __post_init__(self):
        if self.start_hour < 0:
            raise ValueError("start_hour must be >= 0")
        if self.sessions < 1:
            raise ValueError("a flash crowd needs at least one session")
        if self.spread_minutes <= 0 or self.mean_session_minutes <= 0:
            raise ValueError("spread/duration minutes must be positive")

    _FIELDS = {
        "site": _parse_str,
        "start_hour": _parse_number,
        "sessions": _parse_int,
        "spread_minutes": _parse_number,
        "mean_session_minutes": _parse_number,
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "flash_crowd") -> "FlashCrowdSpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "start_hour": self.start_hour,
            "sessions": self.sessions,
            "spread_minutes": self.spread_minutes,
            "mean_session_minutes": self.mean_session_minutes,
        }


@dataclass(frozen=True)
class WanLinkSpec:
    """A symmetric WAN link pair between two campuses."""

    a: str
    b: str
    capacity_gbps: Optional[float] = None  # None = topology default
    latency_ms: Optional[float] = None

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a WAN link needs two distinct sites")
        if self.capacity_gbps is not None and self.capacity_gbps <= 0:
            raise ValueError("capacity_gbps must be positive")
        if self.latency_ms is not None and self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")

    _FIELDS = {
        "a": _parse_str,
        "b": _parse_str,
        "capacity_gbps": _optional(_parse_number),
        "latency_ms": _optional(_parse_number),
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "link") -> "WanLinkSpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {"a": self.a, "b": self.b,
                "capacity_gbps": self.capacity_gbps,
                "latency_ms": self.latency_ms}


@dataclass(frozen=True)
class OutageSpec:
    """One WAN-sever window (compiles to a
    :class:`~repro.core.faults.LinkOutage`)."""

    a: str
    b: str
    start_hour: float
    duration_minutes: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("an outage needs two distinct sites")
        if self.start_hour < 0:
            raise ValueError("start_hour must be >= 0")
        if self.duration_minutes <= 0:
            raise ValueError("duration_minutes must be positive")

    _FIELDS = {
        "a": _parse_str,
        "b": _parse_str,
        "start_hour": _parse_number,
        "duration_minutes": _parse_number,
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "outage") -> "OutageSpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {"a": self.a, "b": self.b, "start_hour": self.start_hour,
                "duration_minutes": self.duration_minutes}


@dataclass(frozen=True)
class CrashSpec:
    """One control-plane crash window (compiles to a
    :class:`~repro.core.faults.ControlPlaneCrash`)."""

    site: str
    component: str  # "coordinator" | "gateway"
    start_hour: float
    downtime_minutes: float

    def __post_init__(self):
        if self.component not in ("coordinator", "gateway"):
            raise ValueError("component must be 'coordinator' or 'gateway'")
        if self.start_hour < 0:
            raise ValueError("start_hour must be >= 0")
        if self.downtime_minutes <= 0:
            raise ValueError("downtime_minutes must be positive")

    _FIELDS = {
        "site": _parse_str,
        "component": _parse_str,
        "start_hour": _parse_number,
        "downtime_minutes": _parse_number,
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "crash") -> "CrashSpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {"site": self.site, "component": self.component,
                "start_hour": self.start_hour,
                "downtime_minutes": self.downtime_minutes}


@dataclass(frozen=True)
class AdversarySpec:
    """One Byzantine misbehavior window (compiles to a
    :class:`~repro.core.faults.ByzantineWindow`).

    Declaring any adversary turns share-chain ledger verification on
    for the whole scenario — an unobserved adversary is just noise.
    ``duration_hours=None`` misbehaves to the end of the run.
    """

    site: str
    mode: str  # one of repro.core.faults.BYZANTINE_MODES
    start_hour: float = 0.0
    duration_hours: Optional[float] = None

    def __post_init__(self):
        if self.mode not in BYZANTINE_MODES:
            raise ValueError(
                f"mode must be one of {', '.join(BYZANTINE_MODES)}; "
                f"got {self.mode!r}")
        if self.start_hour < 0:
            raise ValueError("start_hour must be >= 0")
        if self.duration_hours is not None and self.duration_hours <= 0:
            raise ValueError("duration_hours must be positive")

    _FIELDS = {
        "site": _parse_str,
        "mode": _parse_str,
        "start_hour": _parse_number,
        "duration_hours": _optional(_parse_number),
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "adversary") -> "AdversarySpec":
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        return {"site": self.site, "mode": self.mode,
                "start_hour": self.start_hour,
                "duration_hours": self.duration_hours}


# -- the scenario -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete federated experiment, as data."""

    name: str
    duration_hours: float
    sites: Tuple[SiteSpec, ...]
    links: Tuple[WanLinkSpec, ...] = ()
    flash_crowds: Tuple[FlashCrowdSpec, ...] = ()
    outages: Tuple[OutageSpec, ...] = ()
    crashes: Tuple[CrashSpec, ...] = ()
    adversaries: Tuple[AdversarySpec, ...] = ()
    max_forward_hops: int = 2
    admission_headroom_minutes: float = 0.0
    trace: bool = True
    #: Turn on share-chain ledger verification even with no declared
    #: adversary (the all-honest audit).  Off by default so existing
    #: scenarios compile to bit-identical runs.
    verify_ledger: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario name must not be empty")
        if self.duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        if not self.sites:
            raise ValueError("a scenario needs at least one site")
        if self.max_forward_hops < 1:
            raise ValueError("max_forward_hops must be >= 1")
        if self.admission_headroom_minutes < 0:
            raise ValueError("admission_headroom_minutes must be >= 0")
        names = [site.name for site in self.sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {sorted(names)}")
        known = set(names)

        def check_site(owner: str, site: str) -> None:
            if site not in known:
                raise ValueError(
                    f"{owner} references unknown site {site!r}; "
                    f"sites: {', '.join(sorted(known))}")

        seen_pairs = set()
        for link in self.links:
            check_site("link", link.a)
            check_site("link", link.b)
            pair = tuple(sorted((link.a, link.b)))
            if pair in seen_pairs:
                raise ValueError(f"duplicate link {pair[0]}<->{pair[1]}")
            seen_pairs.add(pair)
        for crowd in self.flash_crowds:
            check_site("flash_crowd", crowd.site)
            if crowd.start_hour >= self.duration_hours:
                raise ValueError(
                    f"flash_crowd at hour {crowd.start_hour:g} starts "
                    f"after the scenario ends ({self.duration_hours:g}h)")
        for outage in self.outages:
            check_site("outage", outage.a)
            check_site("outage", outage.b)
            if tuple(sorted((outage.a, outage.b))) not in seen_pairs:
                raise ValueError(
                    f"outage severs {outage.a}<->{outage.b}, which is "
                    f"not a declared link")
        for crash in self.crashes:
            check_site("crash", crash.site)
        for adversary in self.adversaries:
            check_site("adversary", adversary.site)
            if adversary.start_hour >= self.duration_hours:
                raise ValueError(
                    f"adversary at hour {adversary.start_hour:g} starts "
                    f"after the scenario ends ({self.duration_hours:g}h)")

    _FIELDS = {
        "name": _parse_str,
        "duration_hours": _parse_number,
        "sites": _tuple_of(SiteSpec.from_dict),
        "links": _tuple_of(WanLinkSpec.from_dict),
        "flash_crowds": _tuple_of(FlashCrowdSpec.from_dict),
        "outages": _tuple_of(OutageSpec.from_dict),
        "crashes": _tuple_of(CrashSpec.from_dict),
        "adversaries": _tuple_of(AdversarySpec.from_dict),
        "max_forward_hops": _parse_int,
        "admission_headroom_minutes": _parse_number,
        "trace": _parse_bool,
        "verify_ledger": _parse_bool,
    }

    @classmethod
    def from_dict(cls, data: Any, path: str = "scenario") -> "ScenarioSpec":
        """Parse a plain-dict scenario, strictly."""
        return _parse_mapping(data, path, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dict that :meth:`from_dict` accepts unchanged."""
        return {
            "name": self.name,
            "duration_hours": self.duration_hours,
            "sites": [site.to_dict() for site in self.sites],
            "links": [link.to_dict() for link in self.links],
            "flash_crowds": [c.to_dict() for c in self.flash_crowds],
            "outages": [o.to_dict() for o in self.outages],
            "crashes": [c.to_dict() for c in self.crashes],
            "adversaries": [a.to_dict() for a in self.adversaries],
            "max_forward_hops": self.max_forward_hops,
            "admission_headroom_minutes": self.admission_headroom_minutes,
            "trace": self.trace,
            "verify_ledger": self.verify_ledger,
        }

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON scenario document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"scenario: invalid JSON: {error}") from None
        return cls.from_dict(data)

    def to_json(self, indent: int = 2) -> str:
        """Serialise to JSON (round-trips through :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent)

    # -- conveniences ------------------------------------------------------

    def site(self, name: str) -> SiteSpec:
        """Lookup one site spec by name."""
        for site in self.sites:
            if site.name == name:
                return site
        raise KeyError(name)

    @property
    def total_gpus(self) -> int:
        """GPUs across every campus."""
        return sum(site.gpu_count for site in self.sites)


def example_scenario(duration_hours: float = 8.0,
                     trace: bool = True) -> ScenarioSpec:
    """A small but fully-featured demo scenario.

    Two timezone-offset campuses with heterogeneous GPU generations, a
    churning spot-style provider, diurnal demand, one flash crowd, and
    a short WAN outage — the example, the server smoke tests, and the
    docs all start here.
    """
    return ScenarioSpec(
        name="demo-flash-crowd",
        duration_hours=duration_hours,
        sites=(
            SiteSpec(
                name="north",
                providers=(
                    ProviderSpec(name="n-ws1", gpus=("rtx3090",),
                                 lab="vision"),
                    ProviderSpec(name="n-ws2", gpus=("rtx2080ti", "rtx3090"),
                                 lab="nlp"),
                ),
                demand=DemandSpec(
                    jobs_per_day=18.0, sessions_per_day=10.0,
                    mean_job_compute_hours=0.5,
                    job_mix=(("resnet50-cifar", 2.0),
                             ("unet-segmentation", 1.0)),
                ),
            ),
            SiteSpec(
                name="south",
                providers=(
                    ProviderSpec(name="s-farm", gpus=("rtx4090",) * 3,
                                 lab="infra"),
                    ProviderSpec(
                        name="s-spot", gpus=("a6000",), lab="infra",
                        churn=ChurnSpec(events_per_day=3.0,
                                        mean_downtime_minutes=30.0,
                                        mean_rejoin_minutes=60.0),
                    ),
                ),
                demand=DemandSpec(
                    jobs_per_day=6.0, sessions_per_day=4.0,
                    timezone_offset_hours=8.0,
                    mean_job_compute_hours=0.5,
                ),
            ),
        ),
        links=(WanLinkSpec(a="north", b="south"),),
        flash_crowds=(
            FlashCrowdSpec(site="north", start_hour=2.0, sessions=12,
                           spread_minutes=8.0, mean_session_minutes=30.0),
        ),
        outages=(
            OutageSpec(a="north", b="south", start_hour=4.0,
                       duration_minutes=20.0),
        ),
        trace=trace,
    )
