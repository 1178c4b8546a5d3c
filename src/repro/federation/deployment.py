"""Federated deployment builder.

Assembles N single-campus :class:`GPUnionPlatform`s around one shared
simulation clock, a :class:`WanTopology` with per-link byte metering,
one WAN RPC layer, one credit ledger, and a gateway per campus.  This
is to the federation what :class:`GPUnionPlatform` is to a campus: the
facade experiments build against.

>>> from repro.federation import FederatedDeployment
>>> from repro.gpu import RTX_3090, RTX_4090
>>> fed = FederatedDeployment(seed=7)
>>> north = fed.add_campus("north")
>>> south = fed.add_campus("south")
>>> fed.connect("north", "south")
>>> _ = north.platform.add_provider("ws1", [RTX_3090], lab="vision")
>>> _ = south.platform.add_provider("farm", [RTX_4090] * 4, lab="infra")
>>> fed.run(until=10.0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..config import PlatformConfig
from ..core.failover import CoordinatorHA, FailoverConfig
from ..core import faults
from ..core.platform import GPUnionPlatform
from ..network import (
    AutorateConfig,
    BulkAutorate,
    FlowNetwork,
    QoSPolicy,
    RpcLayer,
    WanTopology,
    attach_partition_enforcement,
    attach_wan_meter,
)
from ..observability.hooks import KernelHooks
from ..observability.trace import Tracer
from ..sim import Environment
from ..sim.rng import derive_seed
from ..storage import StateVault, Volume
from .gateway import FederationGateway
from .ledger import CreditLedger
from .policy import FederationConfig
from .sharechain import SiteKeyring


@dataclass
class SiteHandle:
    """One campus inside a federation."""

    name: str
    platform: GPUnionPlatform
    gateway: FederationGateway

    @property
    def coordinator(self):
        """The campus coordinator."""
        return self.platform.coordinator


class FederatedDeployment:
    """N campuses peered over a simulated WAN, on one clock."""

    def __init__(
        self,
        seed: int = 0,
        wan: Optional[WanTopology] = None,
        federation_config: Optional[FederationConfig] = None,
        hooks: Optional[KernelHooks] = None,
        trace: bool = False,
        qos: Optional[QoSPolicy] = None,
    ):
        self.seed = seed
        self.env = Environment(hooks=hooks)
        #: One tracer for the whole federation: spans from every campus
        #: land in the same store, stamped with their site.  ``None``
        #: (the default) records nothing — the golden-trace config.
        self.tracer: Optional[Tracer] = Tracer(self.env) if trace else None
        self.wan = wan or WanTopology()
        #: ``qos`` makes the WAN fabric class-aware: gateway checkpoint
        #: replication rides bulk, RPCs control, session traffic
        #: interactive (see :mod:`repro.network.qos`).  ``None`` keeps
        #: the classless engine and its bit-identical golden traces.
        self.fabric = FlowNetwork(self.env, self.wan, qos=qos)
        attach_wan_meter(self.fabric)
        # Link failures migrate in-flight WAN flows onto recomputed
        # routes; only genuinely partitioned flows fail with
        # WanPartitionError.
        attach_partition_enforcement(self.fabric, self.wan)
        #: Bulk pacing loop (:meth:`enable_bulk_autorate`), ``None``
        #: until enabled.
        self.autorate: Optional[BulkAutorate] = None
        self.wan_rpc = RpcLayer(self.env, self.fabric)
        self.ledger = CreditLedger()
        self.federation_config = federation_config or FederationConfig()
        self.sites: Dict[str, SiteHandle] = {}
        #: Per-site coordinator HA pairs (populated by
        #: :meth:`enable_failover`; empty on the default fast path).
        self.failover: Dict[str, CoordinatorHA] = {}
        #: The simulated PKI: per-site signing keys, derived purely
        #: from the deployment seed (no RNG draws, so building it
        #: perturbs nothing).  Gateways use it only after
        #: :meth:`enable_ledger_verification`.
        self.keyring = SiteKeyring(seed)
        self._verify_ledger = False

    def add_campus(
        self,
        name: str,
        config: Optional[PlatformConfig] = None,
        federation_config: Optional[FederationConfig] = None,
        **platform_kwargs,
    ) -> SiteHandle:
        """Create a campus platform on the shared clock and gate it.

        Each campus derives its RNG family from the federation seed
        and its own name, so adding a site never perturbs another
        site's randomness.  ``federation_config`` overrides the
        deployment-wide federation tunables for this one site — how a
        campus opts out of hosting foreign jobs
        (``host_foreign_jobs=False``) or runs its own admission
        headroom while its peers keep the defaults.
        """
        if name in self.sites:
            raise ValueError(f"site {name!r} already exists")
        platform = GPUnionPlatform(
            seed=derive_seed(self.seed, f"site:{name}"),
            config=config,
            env=self.env,
            tracer=self.tracer,
            trace_site=name,
            **platform_kwargs,
        )
        gateway = FederationGateway(
            site=name,
            platform=platform,
            wan=self.wan,
            fabric=self.fabric,
            wan_rpc=self.wan_rpc,
            ledger=self.ledger,
            config=federation_config or self.federation_config,
        )
        handle = SiteHandle(name=name, platform=platform, gateway=gateway)
        self.sites[name] = handle
        if self._verify_ledger:
            gateway.enable_ledger_verification(self.keyring)
        return handle

    def connect(self, a: str, b: str, capacity: Optional[float] = None,
                latency: Optional[float] = None) -> None:
        """Join two campuses with a symmetric WAN link pair."""
        self.wan.connect(a, b, capacity=capacity, latency=latency)

    def enable_bulk_autorate(
        self,
        config: Optional[AutorateConfig] = None,
    ) -> BulkAutorate:
        """Start the latency-target pacing loop for bulk replication.

        Requires a QoS-enabled deployment (``qos=QoSPolicy()``); the
        loop samples control-class RTT inflation each interval and
        drives the fabric's bulk rate cap.  Idempotent.
        """
        if self.autorate is None:
            self.autorate = BulkAutorate(self.env, self.fabric, self.wan,
                                         config=config)
        return self.autorate

    def site(self, name: str) -> SiteHandle:
        """Handle for a campus (raises ``KeyError`` if unknown)."""
        return self.sites[name]

    def run(self, until: Optional[float] = None) -> None:
        """Advance the shared simulation."""
        self.env.run(until=until)

    # -- failure injection -------------------------------------------------

    def sever(self, a: str, b: str) -> bool:
        """Cut the ``a``↔``b`` WAN link pair now (both directions).

        In-flight transfers and RPCs on routes over the pair fail with
        :class:`~repro.errors.WanPartitionError`; routing recomputes.
        """
        return self.wan.sever(a, b)

    def heal(self, a: str, b: str) -> bool:
        """Restore the ``a``↔``b`` pair; gateways reconcile immediately."""
        return self.wan.heal(a, b)

    def inject(self, windows: Iterable) -> None:
        """Drive fault windows against this federation on the shared
        clock: :class:`~repro.core.faults.LinkOutage`,
        :class:`~repro.core.faults.ControlPlaneCrash` and
        :class:`~repro.core.faults.ByzantineWindow` in any mix.

        Call :meth:`enable_failover` first for crash windows —
        coordinator windows need the HA pair (they are skipped
        without it), and gateway restarts recover from the vault it
        attaches.  A Byzantine window implies
        :meth:`enable_ledger_verification`: an adversary without
        verifiers is unobservable.
        """
        windows = tuple(windows)
        if any(isinstance(w, faults.ByzantineWindow) for w in windows):
            self.enable_ledger_verification()
        faults.inject(self, windows)

    # -- control-plane HA --------------------------------------------------

    def enable_failover(
        self,
        config: Optional[FailoverConfig] = None,
    ) -> Dict[str, CoordinatorHA]:
        """Make every campus's control plane crashable and recoverable.

        Wraps each coordinator in a :class:`CoordinatorHA`
        primary/backup pair and attaches a durable
        :class:`~repro.storage.StateVault` to each gateway so its
        books survive a restart.  Idempotent per site: campuses added
        after the first call get wired by calling this again.  Without
        this call, coordinator crash windows are skipped and the
        default fast path is untouched (no vault writes, no HA
        bookkeeping).
        """
        for name, handle in self.sites.items():
            if name in self.failover:
                continue
            self.failover[name] = CoordinatorHA(
                self.env, handle.platform.coordinator,
                config=config, site=name, tracer=self.tracer)
            volume = Volume(self.env, name=f"gateway-vault:{name}")
            handle.gateway.attach_vault(StateVault(volume))
        return self.failover

    # -- Byzantine-robustness: share-chain verification --------------------

    def enable_ledger_verification(self) -> None:
        """Turn on the Byzantine-robust share-chain at every gateway.

        Each site starts signing its settlements into a hash-linked
        chain, gossiping it alongside capacity digests, and
        independently verifying every entry it receives before folding
        it into its local view — with quarantine/eviction for peers
        whose entries fail verification.  Idempotent; campuses added
        later are wired automatically.  Off by default: without this
        call no chain exists and runs are event-identical to the seed.
        """
        self._verify_ledger = True
        for handle in self.sites.values():
            handle.gateway.enable_ledger_verification(self.keyring)

    def chain_heights(self) -> Dict[str, int]:
        """Accepted share-chain entries per site's verified view
        (empty when verification is off)."""
        return {
            name: handle.gateway.sharechain.height()
            for name, handle in self.sites.items()
            if handle.gateway.sharechain is not None
        }

    def rejected_entries(self) -> Dict[str, Dict[str, int]]:
        """Per-site rejection tallies by reason (empty when off)."""
        return {
            name: dict(handle.gateway.sharechain.rejected)
            for name, handle in self.sites.items()
            if handle.gateway.sharechain is not None
        }

    def quarantine_map(self) -> Dict[str, Dict[str, str]]:
        """Each site's view of every non-TRUSTED peer: observer →
        (peer → state name).  Sites with a clean view are omitted."""
        out: Dict[str, Dict[str, str]] = {}
        for name, handle in self.sites.items():
            trust = handle.gateway.trust
            if trust is None:
                continue
            suspect = {
                peer: trust.state(peer).value
                for peer in sorted(trust.excluded())
            }
            if suspect:
                out[name] = suspect
        return out

    def quarantined_by_all(self, peer: str) -> bool:
        """Whether every *other* verifying site currently blocks
        ``peer`` (the chaos-suite detection criterion)."""
        observers = [
            handle.gateway.trust
            for name, handle in self.sites.items()
            if name != peer and handle.gateway.trust is not None
        ]
        return bool(observers) and all(
            trust.blocks(peer) for trust in observers)

    def detection_latencies(self, peer: str) -> Dict[str, float]:
        """When each observer first quarantined ``peer`` (absent key =
        not detected there)."""
        out: Dict[str, float] = {}
        for name, handle in self.sites.items():
            trust = handle.gateway.trust
            if name == peer or trust is None:
                continue
            at = trust.detected_at.get(peer)
            if at is not None:
                out[name] = at
        return out

    # -- federation-wide measurement --------------------------------------

    def aggregate_utilization(self, since: float = 0.0,
                              until: Optional[float] = None) -> float:
        """GPU-weighted mean utilization across every campus.

        Defined as the GPU-count-weighted fold of each campus's own
        :meth:`~repro.core.platform.GPUnionPlatform.fleet_utilization`,
        so the aggregate always agrees with the per-site numbers
        reported beside it.
        """
        weighted = 0.0
        total_gpus = 0
        for handle in self.sites.values():
            count = sum(len(node.gpus)
                        for node in handle.platform.provider_nodes())
            weighted += count * handle.platform.fleet_utilization(since, until)
            total_gpus += count
        if total_gpus == 0:
            return 0.0
        return weighted / total_gpus

    def site_utilization(self, since: float = 0.0,
                         until: Optional[float] = None) -> Dict[str, float]:
        """Mean GPU utilization per campus."""
        return {
            name: handle.platform.fleet_utilization(since, until)
            for name, handle in self.sites.items()
        }

    def wan_bytes(self) -> float:
        """Total bytes carried across all WAN links (per-hop count)."""
        return self.wan.total_bytes()

    def wan_link_report(self, horizon: float) -> List[dict]:
        """Per-link cumulative bytes, plus mean utilization over each
        link's current metering window ending at ``horizon`` (the
        whole run unless a sever/heal opened a fresh window)."""
        return [
            {
                "link": link.name,
                "bytes": link.bytes_carried,
                "utilization": link.utilization(horizon),
            }
            for link in self.wan.links
        ]

    def total_forwarded(self) -> int:
        """Jobs that crossed the WAN, federation-wide."""
        return sum(h.gateway.forwarded_out for h in self.sites.values())

    def total_relayed(self) -> int:
        """Forwards that were *relay* hops (a site re-forwarding a
        foreign job it could not place), federation-wide."""
        return sum(h.gateway.relayed_out for h in self.sites.values())

    def relay_fees(self) -> Dict[str, float]:
        """GPU-hour relay fees each site has earned from the ledger."""
        return {name: self.ledger.relay_fees_earned(name)
                for name in self.sites}

    def total_wan_transfer_seconds(self) -> float:
        """Simulated seconds origin gateways spent on WAN replication."""
        return sum(h.gateway.wan_transfer_seconds
                   for h in self.sites.values())

    def credit_balances(self) -> Dict[str, float]:
        """Every site's net GPU-hour credit balance."""
        return self.ledger.balances()

    def completion_counts(self) -> Dict[str, int]:
        """``job-completed`` events per job id, federation-wide."""
        completions: Dict[str, int] = {}
        for handle in self.sites.values():
            for event in handle.platform.events.of_kind("job-completed"):
                job_id = event.payload.get("job_id")
                completions[job_id] = completions.get(job_id, 0) + 1
        return completions

    def duplicate_executions(self) -> List[str]:
        """Job ids that *completed* at more than one campus.

        The smoking gun of a non-failure-atomic forward protocol: a
        lost commit acknowledgement used to make the origin requeue a
        job its host was already running.  With the two-phase
        handshake this list must stay empty under any partition
        schedule.
        """
        return sorted(job_id for job_id, count
                      in self.completion_counts().items() if count > 1)

    def unresolved_count(self) -> int:
        """Open reconciliation work across all gateways (unknown
        delegations + pending cancels + unacked completion notices)."""
        return sum(
            handle.gateway.unresolved_delegations
            + handle.gateway.pending_cancel_count
            + handle.gateway.unacked_completion_count
            for handle in self.sites.values()
        )
