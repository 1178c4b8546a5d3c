"""Fault injection: every failure domain behind one window protocol.

GPUnion's premise is that capacity can vanish at any moment, and a
federation adds three more ways to lose it: a severed long-haul link,
a crashed control-plane process, and a site that lies.  Each is a
*window* — at ``start`` apply a fault, after ``duration`` revert it —
so one driver and one :func:`inject` call serve them all:

* :class:`LinkOutage` severs a WAN site pair and heals it (in-flight
  traffic migrates or dies, routes recompute, gateways reconcile);
* :class:`ControlPlaneCrash` kills a campus's coordinator HA pair or
  its federation gateway and restarts it;
* :class:`ByzantineWindow` sets one misbehavior mode on a gateway and
  clears it (``duration=None`` misbehaves to the end of the run).

Every window has the same surface: ``start`` and ``duration``,
``target(deployment)`` (the object it acts on, ``None`` to skip),
``apply``/``revert`` against the deployment, a process ``label`` and
a ``sort_key``.  Windows act on a deployment by duck type — anything
with ``env``, ``wan``, ``sites`` (name → handle with a ``gateway``)
and ``failover`` (name → HA pair), which
:class:`~repro.federation.FederatedDeployment` provides.  A schedule
is a plain tuple of windows, declared up front so an experiment's
failure trace is part of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple

#: Misbehavior modes a Byzantine federation gateway can run:
#:
#: * ``over-report`` — gossip digests advertise phantom idle GPUs, so
#:   peers forward into a wall of reason-less declines;
#: * ``over-bill`` — real hosted jobs settle honestly in the shared
#:   ledger but the signed *chain entry* bills inflated hours;
#: * ``under-bill`` — entries authored by others that charge this site
#:   are tampered (hours shrunk) when re-gossiped, without re-signing;
#: * ``forge`` — donation entries are fabricated for jobs never hosted;
#: * ``replay`` — an already-settled entry is re-signed at a new
#:   sequence number;
#: * ``free-ride`` — relay-fee entries crediting this site are forged
#:   for relay work never performed.
BYZANTINE_MODES = ("over-report", "over-bill", "under-bill", "forge",
                   "replay", "free-ride")


@dataclass(frozen=True)
class LinkOutage:
    """One window during which a WAN site pair is severed.

    Overlapping windows on one pair nest via the topology's outage
    depth, so a pair only heals when its last window lifts.
    """

    site_a: str
    site_b: str
    start: float
    duration: float

    def __post_init__(self):
        if self.site_a == self.site_b:
            raise ValueError("outage needs two distinct sites")
        if self.start < 0:
            raise ValueError("outage start must be >= 0")
        if self.duration <= 0:
            raise ValueError("outage duration must be positive")

    @property
    def end(self) -> float:
        """Simulation time the link heals."""
        return self.start + self.duration

    @property
    def pair(self) -> Tuple[str, str]:
        """The undirected site pair, name-sorted."""
        return tuple(sorted((self.site_a, self.site_b)))

    @property
    def label(self) -> str:
        return f"outage:{self.site_a}<->{self.site_b}@{self.start:g}"

    @property
    def sort_key(self) -> tuple:
        return (0, self.start, self.pair, self.duration)

    def target(self, deployment: Any) -> Any:
        return deployment.wan

    def apply(self, deployment: Any) -> None:
        deployment.wan.sever(self.site_a, self.site_b)

    def revert(self, deployment: Any) -> None:
        deployment.wan.heal(self.site_a, self.site_b)


@dataclass(frozen=True)
class ControlPlaneCrash:
    """One crash/restart window for a site's control-plane process.

    ``component`` picks the victim: ``"coordinator"`` kills the
    campus's leading coordinator replica (its HA pair takes over after
    failure detection, or the campus runs headless until restart);
    ``"gateway"`` kills the federation gateway (the campus drops off
    the WAN and recovers its books from the persisted snapshot).  A
    coordinator window is skipped unless failover was enabled before
    injection.
    """

    site: str
    component: str  # "coordinator" | "gateway"
    start: float
    downtime: float

    def __post_init__(self):
        if self.component not in ("coordinator", "gateway"):
            raise ValueError(
                "component must be 'coordinator' or 'gateway'")
        if self.start < 0:
            raise ValueError("crash start must be >= 0")
        if self.downtime <= 0:
            raise ValueError("crash downtime must be positive")

    @property
    def duration(self) -> float:
        return self.downtime

    @property
    def end(self) -> float:
        """Simulation time the process restarts."""
        return self.start + self.downtime

    @property
    def label(self) -> str:
        return f"crash:{self.component}:{self.site}@{self.start:g}"

    @property
    def sort_key(self) -> tuple:
        return (1, self.start, self.site, self.component, self.downtime)

    def target(self, deployment: Any) -> Any:
        if self.component == "coordinator":
            return deployment.failover.get(self.site)
        handle = deployment.sites.get(self.site)
        return None if handle is None else handle.gateway

    def apply(self, deployment: Any) -> None:
        self.target(deployment).crash()

    def revert(self, deployment: Any) -> None:
        self.target(deployment).restart()


@dataclass(frozen=True)
class ByzantineWindow:
    """One window during which a site runs one misbehavior mode.

    ``duration=None`` means the site misbehaves from ``start`` to the
    end of the run (the chaos-suite default: detection must not depend
    on the adversary politely stopping).
    """

    site: str
    mode: str
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self):
        if not self.site:
            raise ValueError("window needs a site")
        if self.mode not in BYZANTINE_MODES:
            raise ValueError(
                f"mode must be one of {BYZANTINE_MODES}, got {self.mode!r}")
        if self.start < 0:
            raise ValueError("window start must be >= 0")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("window duration must be positive")

    @property
    def end(self) -> Optional[float]:
        """Simulation time the misbehavior stops (``None`` = never)."""
        if self.duration is None:
            return None
        return self.start + self.duration

    @property
    def label(self) -> str:
        return f"byzantine:{self.mode}:{self.site}@{self.start:g}"

    @property
    def sort_key(self) -> tuple:
        return (2, self.start, self.site, self.mode,
                float("inf") if self.duration is None else self.duration)

    def target(self, deployment: Any) -> Any:
        handle = deployment.sites.get(self.site)
        return None if handle is None else handle.gateway

    def apply(self, deployment: Any) -> None:
        self.target(deployment).set_byzantine(self.mode)

    def revert(self, deployment: Any) -> None:
        self.target(deployment).clear_byzantine(self.mode)


def schedule(windows: Iterable) -> Tuple:
    """``windows`` in injection order: every link outage first, then
    every crash, then every Byzantine window, each kind by start."""
    return tuple(sorted(windows, key=lambda window: window.sort_key))


def flapping(site_a: str, site_b: str, first_down: float, downtime: float,
             uptime: float, until: float) -> Tuple[LinkOutage, ...]:
    """A link that severs and heals periodically until ``until``.

    Windows start at ``first_down`` and repeat every
    ``downtime + uptime`` seconds — the classic flapping long-haul
    link the partition-resilience experiment injects.
    """
    if downtime <= 0 or uptime <= 0:
        raise ValueError("downtime and uptime must be positive")
    outages = []
    start = first_down
    while start < until:
        outages.append(LinkOutage(site_a, site_b, start, downtime))
        start += downtime + uptime
    return tuple(outages)


def inject(deployment: Any, windows: Iterable) -> None:
    """Drive ``windows`` against ``deployment`` on its sim clock.

    Each window becomes one process: apply at its start, revert after
    its duration.  Targets are checked now, so a window whose target the
    deployment does not expose (a coordinator without failover, an
    unknown site) is skipped and a schedule can be reused across
    topologies.
    """
    env = deployment.env
    for window in schedule(windows):
        if window.target(deployment) is None:
            continue
        env.process(_drive(env, deployment, window), name=window.label)


def _drive(env, deployment, window):
    if window.start > env.now:
        yield env.timeout(window.start - env.now)
    window.apply(deployment)
    if window.duration is not None:
        yield env.timeout(window.duration)
        window.revert(deployment)
