"""Per-campus federation gateway.

One gateway fronts each campus deployment.  It owns five duties:

* **Gossip** — periodically compute a :class:`CapacityDigest` from the
  local coordinator's registry and push it to every *WAN neighbour*
  (direct peering only: capacity knowledge is one hop wide, which is
  what makes multi-hop relaying worth having), keeping a (possibly
  stale) view of neighbouring spare capacity.  With
  ``gossip_interval_min`` set the cadence turns adaptive: digests push
  early whenever spare capacity, queue pressure, or the credit balance
  drifts, cutting the staleness window that makes peers forward into
  a wall.
* **Egress** — the coordinator's ``on_unplaceable`` hook lands here:
  when the local fleet cannot place a training request, the gateway
  may take ownership and offer the job to the best-scoring peer via a
  **two-phase handshake** (offer → claim-token → commit-ack).  Phase 1
  moves only metadata and costs at most an expiring capacity lease;
  phase 2 carries the claim token, pulls the bulk payload, and commits
  at most once per token.  A lost commit acknowledgement therefore
  parks the delegation as *unknown outcome* — resolved by an
  idempotent ``forward-status`` probe, never by blind re-queuing (the
  double-schedule bug the one-shot protocol had).  *Foreign* jobs this
  site cannot place take the same path — a **relay** hop toward a
  neighbour the job has not visited yet (``relay_path`` is the loop
  guard), up to ``max_forward_hops`` WAN crossings in total.
* **Ingress** — the phase handlers apply the local acceptance policy
  (queue pressure, card fit, the admission controller's home-demand
  headroom, and the ``host_foreign_jobs`` opt-out), pull the bulk
  payload (dataset or checkpoint snapshot) over the WAN from the
  *previous hop* with transfer time charged on the sim clock, import
  the snapshot into the local checkpoint store, and submit the job to
  the local coordinator with full provenance.
* **Settlement** — when a foreign job completes here, the gateway
  credits this site in the shared :class:`CreditLedger` for the
  GPU-hours actually donated (arrival progress is *not* billed), pays
  each intermediate relay site its fee out of the origin's balance,
  and notifies the previous hop; relays chain the notice onward, each
  hop keeping it until acknowledged, so a partitioned origin receives
  it on heal instead of never.
* **Reconciliation** — a periodic pass (kicked immediately by every
  WAN heal) resolves unknown-outcome delegations, delivers pending
  cross-site cancellations with at-most-once effect, and re-sends
  unacknowledged completion notices.  Every reconciliation message is
  idempotent at the receiver, so heal-kicks and the steady-state timer
  may race freely.

All messaging rides the WAN RPC layer, so control chatter and bulk
replication compete for the same long-haul links — and all of it can
fail mid-flight with :class:`~repro.errors.WanPartitionError` when a
link is severed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (TYPE_CHECKING, Dict, Generator, List, Optional, Set,
                    Tuple)

from ..core.messages import ResourceRequest
from ..core.faults import BYZANTINE_MODES
from ..core.platform import GPUnionPlatform
from ..errors import NetworkError, SnapshotVersionError
from ..monitoring.events import PlatformEvent
from ..network import FlowNetwork, RpcError, RpcLayer, WanTopology
from ..sim import Event, Interrupt, Process
from ..units import GIB, HOUR
from ..workloads.training import JobStatus, TrainingJobSpec
from .admission import AdmissionController
from .ledger import CreditEntry, CreditLedger
from .messages import (
    GATEWAY_SNAPSHOT_VERSION,
    CapacityDigest,
    DelegationState,
    ForwardEnvelope,
    ForwardIntent,
    ForwardOffer,
    ForwardRecord,
    GatewaySnapshot,
)
from .policy import FederationConfig, ForwardingPolicy
from .sharechain import (
    BENIGN_REASONS,
    DEFINITIVE_REASONS,
    PeerTrust,
    ShareChain,
    SignedEntry,
    SiteKeyring,
    TrustState,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..observability.trace import Tracer
    from ..storage import StateVault

#: Flow categories the gateway stamps on its bulk payload pulls.  Both
#: map to the *bulk* traffic class under the default
#: :class:`~repro.network.qos.QoSPolicy`, while the RPC layer's
#: ``"control"`` legs ride the strict-priority control class and
#: session traffic the interactive class — the class wiring the WAN
#: QoS engine keys on.
CHECKPOINT_CATEGORY = "federation-checkpoint"
DATASET_CATEGORY = "federation-dataset"

#: Phantom capacity an ``over-report`` digest adds: enough idle GPUs
#: (of an impossibly generous card class) to outscore any honest peer.
OVER_REPORT_PHANTOM_GPUS = 8
OVER_REPORT_PHANTOM_CARD = (128 * GIB, (9, 9))

#: Factor an ``over-bill`` host inflates its chain-entry hours by.
OVER_BILL_FACTOR = 4.0
#: Factor an ``under-bill`` tamperer shrinks its own charges to.
UNDER_BILL_FACTOR = 0.25
#: GPU-hours per fabricated ``forge`` / ``free-ride`` entry.
FORGED_ENTRY_HOURS = 5.0


class FederationGateway:
    """One campus's ambassador to the federation."""

    def __init__(
        self,
        site: str,
        platform: GPUnionPlatform,
        wan: WanTopology,
        fabric: FlowNetwork,
        wan_rpc: RpcLayer,
        ledger: CreditLedger,
        config: Optional[FederationConfig] = None,
    ):
        self.site = site
        self.platform = platform
        self.wan = wan
        self.fabric = fabric
        self.wan_rpc = wan_rpc
        self.ledger = ledger
        self.config = config or FederationConfig()
        self.policy = ForwardingPolicy(self.config)
        self.env = platform.env

        self.admission = AdmissionController(
            self.env, self.config, jobs=platform.coordinator.jobs)

        self.peer_digests: Dict[str, CapacityDigest] = {}
        #: Jobs this site hosts for others:
        #: job_id → (origin, arrival progress, relay path).
        self._foreign_jobs: Dict[str, Tuple[str, float, Tuple[str, ...]]] = {}
        #: Jobs this site delegated out: job_id → ForwardRecord.
        self.delegations: Dict[str, ForwardRecord] = {}
        #: Requests whose delegation is still unresolved (unknown
        #: outcome) — kept so an "absent" probe result can requeue.
        self._pending_requests: Dict[str, ResourceRequest] = {}
        #: Delegated jobs the user cancelled; delivered to the hosting
        #: site by the reconciliation pass (idempotent at the host, so
        #: the effect is at-most-once).
        self._pending_cancels: Set[str] = set()
        #: Forward handshakes currently in flight (no record yet).
        self._inflight: Set[str] = set()
        self._retry_after: Dict[str, float] = {}

        #: Host-side capacity leases: claim token → granted offer.
        self._offers: Dict[str, ForwardOffer] = {}
        #: Host-side commits in progress (payload pull running).
        self._committing: Set[str] = set()
        #: Host-side committed handshakes: job_id → claim token, for
        #: idempotent replay of a commit whose ack was lost.
        self._commits: Dict[str, str] = {}
        #: Completion notices not yet acknowledged by the origin:
        #: job_id → (origin site, notice payload).
        self._unacked: Dict[str, Tuple[str, dict]] = {}
        #: Accepted inbound offers (leases + commits in flight) —
        #: reserved capacity the digest must not re-advertise.
        self._inbound_pending = 0

        #: Next claim-token ordinal.  A plain int (not a generator) so
        #: it snapshots: token monotonicity must survive a restart, or
        #: a recycled token could collide with a pre-crash handshake.
        self._token_seq = 1
        self._reconcile_wake: Optional[Event] = None
        self._reconcile_kicked = False
        self._pass_running = False

        #: Durable-state vault (attached by the deployment when
        #: control-plane failover is enabled; ``None`` keeps every
        #: checkpoint a no-op on the default path).
        self.vault: Optional["StateVault"] = None
        #: Write-ahead journal of in-flight outbound forwards:
        #: job_id → ForwardIntent (see :meth:`_recover`).
        self._intents: Dict[str, ForwardIntent] = {}
        self._crashed = False
        #: Bumped on every crash so a handler process that straddles a
        #: crash/restart can tell whether its bookkeeping (for example
        #: the ``_inbound_pending`` lease count) still applies to the
        #: incarnation that granted it.
        self._incarnation = 0
        self.restarts = 0
        #: Gateway-owned processes (loops, forwards, notifies) —
        #: interrupted wholesale when the gateway crashes.
        self._procs: Set[Process] = set()
        self._gossip_proc: Optional[Process] = None
        self._reconcile_proc: Optional[Process] = None

        #: Adaptive-gossip state, tracked *per peer*: the digest each
        #: neighbour last **successfully** received, when, and the
        #: credit balance it reflected.  A failed push leaves that
        #: peer's entry stale so the next tick retries it with fresh
        #: data — the old global-digest tracking marked every peer
        #: up to date the moment the round *started*, so a partitioned
        #: neighbour could sit on a stale view long after healing.
        self._pushed_digest: Dict[str, CapacityDigest] = {}
        self._pushed_at: Dict[str, float] = {}
        self._pushed_balance: Dict[str, float] = {}
        #: Memoized registry scan behind the digest: (free idle-GPU
        #: count, sorted card classes), valid for one registry
        #: version.  The fast gossip tick rebuilds the digest only to
        #: check drift; without this it walked every node's inventory
        #: each tick even when nothing had changed.
        self._scan_version = -1
        self._scan: Tuple[int, tuple] = (0, ())

        self.forwarded_out = 0
        self.forwarded_in = 0
        #: Foreign jobs this site re-forwarded onward (subset of
        #: ``forwarded_out``): the relay traffic multi-hop enables.
        self.relayed_out = 0
        self.declined = 0
        self.gossip_rounds = 0
        self.wan_transfer_seconds = 0.0

        #: Share-chain verification layer (``None`` = disabled, the
        #: default: the golden path must not change by one event).
        self.sharechain: Optional[ShareChain] = None
        #: Per-peer quarantine state machine (with the share-chain).
        self.trust: Optional[PeerTrust] = None
        #: Per-peer, per-signer sequence numbers the peer last
        #: acknowledged holding — the chain-gossip delta floor.  The
        #: receiver's reply is authoritative, so a peer that lost its
        #: view (crash) is automatically re-sent the gap.
        self._chain_acked: Dict[str, Dict[str, int]] = {}
        #: Active Byzantine misbehavior modes (normally empty; driven
        #: by an injected :class:`~repro.core.faults.ByzantineWindow`).
        self.byzantine_modes: Set[str] = set()
        self._byz_proc: Optional[Process] = None
        self._byz_seq = 0

        wan.add_site(site)
        wan.add_listener(self._on_wan_transition)
        ledger.register_site(site)
        self._bind_endpoint()
        platform.coordinator.on_unplaceable = self._on_unplaceable
        platform.coordinator.on_cancel_delegated = self._on_cancel_delegated
        platform.events.subscribe(self._on_event)
        self._start_loops()

    def _bind_endpoint(self) -> None:
        endpoint = self.wan_rpc.bind(self.site)
        endpoint.register("digest", self._handle_digest)
        endpoint.register("forward-offer", self._handle_forward_offer)
        endpoint.register("forward-commit", self._handle_forward_commit)
        endpoint.register("forward-release", self._handle_forward_release)
        endpoint.register("forward-status", self._handle_forward_status)
        endpoint.register("cancel-job", self._handle_cancel_job)
        endpoint.register("job-complete", self._handle_job_complete)
        endpoint.register("chain-entries", self._handle_chain_entries)

    def _start_loops(self) -> None:
        self._gossip_proc = self._spawn(self._gossip_loop(),
                                        f"gossip:{self.site}")
        self._reconcile_proc = self._spawn(self._reconcile_loop(),
                                           f"reconcile:{self.site}")
        self._maybe_start_byzantine_loop()

    def _spawn(self, gen: Generator, name: str) -> Process:
        """Start a gateway-owned process, tracked for crash interrupts."""
        proc = self.env.process(gen, name=name)
        self._procs.add(proc)
        if proc.callbacks is not None:
            proc.callbacks.append(
                lambda _ev, p=proc: self._procs.discard(p))
        return proc

    # -- tracing ----------------------------------------------------------

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The shared federation tracer (``None`` when tracing is off).

        Lives on the coordinator so both control planes stamp spans
        into the same store; read dynamically so attaching a tracer
        after construction works.
        """
        return self.platform.coordinator.tracer

    # -- gossip -----------------------------------------------------------

    @property
    def peers(self) -> List[str]:
        """Gossip targets: sites with a direct WAN link to this one.

        Capacity knowledge is deliberately *neighbour-scoped* — a
        digest travels one peering hop, never transitively — so a
        job's placement reach beyond the neighbourhood comes from
        multi-hop relaying, not from gossip flooding.  Severed
        neighbours stay on the list (the push just fails and is
        retried next round), exactly as before a partition.
        """
        return self.wan.neighbours(self.site, include_down=True)

    def local_digest(self) -> CapacityDigest:
        """Summarise this campus's spare capacity right now.

        Only *fully-idle* cards count — forwarded training is
        exclusive, so a busy card's free memory is not remote-placement
        capacity.  Inbound offers already accepted (leases granted or
        payload pulls in flight) are subtracted, so concurrent origins
        cannot all claim the same advertised GPU.  The admission
        controller's home-demand headroom is subtracted too, and an
        opted-out site (``host_foreign_jobs=False``) advertises no
        capacity at all — the digest is the single place admission
        policy turns into what peers (and the live offer check) see.
        """
        free_gpus = 0
        free_cards: tuple = ()
        if self.config.host_foreign_jobs:
            free_gpus, free_cards = self._registry_scan()
            # The reservation is time-dependent (the arrival-rate
            # forecast decays with silence), so it is applied fresh on
            # every digest rather than folded into the cached scan.
            free_gpus -= self.admission.reserved_headroom()
        return CapacityDigest(
            site=self.site,
            free_gpus=free_gpus - self._inbound_pending,
            free_cards=free_cards,
            queue_pressure=(self.platform.coordinator.queue_pressure
                            + self._inbound_pending),
            advertised_at=self.env.now,
        )

    def _registry_scan(self) -> Tuple[int, tuple]:
        """Idle-GPU count and card classes, cached per registry version.

        Every mutation that can change the scan (registration, status
        moves, memory reserve/release) bumps the registry's version
        counter, so a clean version means the cached scan is exact —
        the steady-state fast tick never re-walks the inventory.
        """
        registry = self.platform.coordinator.registry
        if registry.version != self._scan_version:
            free_gpus = 0
            card_classes = set()
            for record in registry.schedulable():
                for gpu in record.gpus.values():
                    if gpu.memory_free >= gpu.memory_total:
                        free_gpus += 1
                        card_classes.add(
                            (gpu.memory_total, tuple(gpu.compute_capability)))
            self._scan_version = registry.version
            self._scan = (free_gpus, tuple(sorted(card_classes)))
        return self._scan

    def _digest_drifted(self, peer: str, digest: CapacityDigest,
                        balance: float) -> bool:
        """Whether *this peer's* view of us has gone materially stale.

        Drift is judged against the digest the peer last successfully
        received — not against the last digest pushed to *anyone*.
        The old global comparison let one successful push mark every
        neighbour fresh, so a peer that missed the round (partitioned,
        or simply added later) kept acting on arbitrarily stale data
        until the next whole-interval round.
        """
        last = self._pushed_digest.get(peer)
        if last is None:
            return True
        if digest.free_gpus != last.free_gpus:
            return True
        if digest.free_cards != last.free_cards:
            return True  # same count, different card classes
        if digest.queue_pressure != last.queue_pressure:
            return True
        drift = abs(balance - self._pushed_balance.get(peer, 0.0))
        return drift >= self.config.gossip_balance_drift

    def _gossip_loop(self) -> Generator:
        """Push capacity digests to neighbours.

        Fixed cadence by default (every ``gossip_interval``).  With
        ``gossip_interval_min`` set, the loop wakes at the fast tick
        and pushes early whenever the digest drifted — freshly-freed
        capacity, a growing queue, or credit-balance movement reach
        peers within seconds instead of a full gossip round, which is
        what cuts staleness-declined forwards.

        Due-ness and drift are evaluated per peer, and a peer's state
        advances only on a *successful* push — a partitioned neighbour
        keeps retrying at the fast tick and receives a fresh digest on
        the first tick after heal.  When no push fails, every peer
        carries identical state and the loop degenerates to the old
        all-or-nothing round, so failure-free runs are event-identical.
        """
        interval = self.config.gossip_interval
        tick = self.config.gossip_interval_min or interval
        while True:
            try:
                yield self.env.timeout(tick)
            except Interrupt:
                return  # gateway crashed
            digest = self.local_digest()
            if "over-report" in self.byzantine_modes:
                # The gossip lie: phantom idle GPUs of a dream card
                # class and a rosy queue.  Local admission stays
                # honest (accepting work it cannot run would break
                # exactly-once), so acting peers hit reason-less
                # declines — the capacity-mismatch signature.
                digest = replace(
                    digest, queue_pressure=0,
                    free_gpus=digest.free_gpus + OVER_REPORT_PHANTOM_GPUS,
                    free_cards=digest.free_cards
                    + (OVER_REPORT_PHANTOM_CARD,),
                )
            now = self.env.now
            balance = self.ledger.balance(self.site)
            targets = [
                peer for peer in self.peers
                if now - self._pushed_at.get(peer, float("-inf")) >= interval
                or self._digest_drifted(peer, digest, balance)
            ]
            if targets:
                self.gossip_rounds += 1
            for peer in targets:
                try:
                    yield self.wan_rpc.call(
                        self.site, peer, "digest", digest,
                        request_size=self.config.control_message_bytes,
                        response_size=self.config.control_message_bytes,
                        timeout=self.config.control_rpc_timeout,
                    )
                except Interrupt:
                    return  # gateway crashed
                except NetworkError:
                    continue  # partitioned peer; retried next tick
                # Stamped with the decision-time clock (not the
                # post-push clock) so all peers in one round share
                # identical state.
                self._pushed_digest[peer] = digest
                self._pushed_at[peer] = now
                self._pushed_balance[peer] = balance
            if self.sharechain is not None:
                try:
                    yield from self._sharechain_tick()
                except Interrupt:
                    return  # gateway crashed

    def _handle_digest(self, digest: CapacityDigest):
        if self.trust is not None and self.trust.blocks(digest.site):
            return "quarantined"  # a quarantined peer's view is refused
        self.peer_digests[digest.site] = digest
        return "ok"

    # -- share-chain verification & quarantine ----------------------------

    def enable_ledger_verification(self, keyring: SiteKeyring) -> None:
        """Attach the share-chain verification layer (idempotent).

        Entirely off the default path: with no chain attached the
        gateway neither signs, gossips, nor verifies credit entries,
        so verification-off runs stay event-identical to the seed.
        """
        if self.sharechain is not None:
            return
        keyring.register(self.site)
        self.sharechain = ShareChain(self.site, keyring)
        self.trust = PeerTrust(self.site, self.config)

    def _sharechain_tick(self) -> Generator:
        """One verification turn per gossip tick: advance the
        quarantine clock, then sync this site's chain view (suffixes
        past what each peer last acknowledged) to every trusted peer.
        """
        for peer, old, new in self.trust.tick(self.env.now):
            self._on_trust_transition(peer, old, new, "timer")
        for peer in self.peers:
            if self.trust.blocks(peer):
                continue  # no chain sync with a quarantined peer
            delta = list(self.sharechain.entries_after(
                self._chain_acked.get(peer, {})))
            if "under-bill" in self.byzantine_modes:
                delta = self._tamper_history(delta)
            if not delta:
                continue
            try:
                reply = yield self.wan_rpc.call(
                    self.site, peer, "chain-entries",
                    {"sender": self.site, "entries": tuple(delta)},
                    request_size=self.config.control_message_bytes,
                    response_size=self.config.control_message_bytes,
                    timeout=self.config.control_rpc_timeout,
                )
            except NetworkError:
                continue  # partitioned peer; retried next tick
            if isinstance(reply, dict) and "heads" in reply:
                # The receiver's reply is authoritative: a peer that
                # lost its view (crash) reports low heads and is
                # re-sent the gap next tick.
                self._chain_acked[peer] = dict(reply["heads"])

    def _tamper_charge(self, signed: SignedEntry) -> SignedEntry:
        """The ``under-bill`` tamper: shrink other sites' charges
        against us while re-gossiping their entries.  We cannot
        re-sign what we did not author, so the payload hash goes stale
        — the receiving verifier's integrity check catches it.
        """
        entry = signed.entry
        if signed.signer == self.site or entry.beneficiary != self.site:
            return signed
        return replace(signed, entry=replace(
            entry, gpu_hours=entry.gpu_hours * UNDER_BILL_FACTOR))

    def _tamper_history(self,
                        delta: List[SignedEntry]) -> List[SignedEntry]:
        """The full ``under-bill`` gossip payload: the tampered delta
        plus rewritten copies of every charge against us the peer
        already holds.  A cheater shrinking its bills must re-gossip
        the rewritten history (peers already acked the genuine
        entries, so the normal delta would never carry the lie)."""
        delta = [self._tamper_charge(signed) for signed in delta]
        sent = {(signed.signer, signed.seq) for signed in delta}
        for signed in self.sharechain.accepted_entries():
            if (signed.signer != self.site
                    and signed.entry.beneficiary == self.site
                    and (signed.signer, signed.seq) not in sent):
                delta.append(self._tamper_charge(signed))
        return delta

    def _handle_chain_entries(self, payload: dict):
        if self.sharechain is None:
            return {"disabled": True}
        sender = payload.get("sender", "")
        if self.trust.blocks(sender):
            # No heads in the reply: a quarantined sender learns
            # nothing about our view and its ack floor stays frozen.
            return {"rejected": "quarantined"}
        for signed in payload.get("entries", ()):
            self._ingest_chain_entry(signed, sender)
        return {"heads": self.sharechain.heads()}

    def _ingest_chain_entry(self, signed: SignedEntry,
                            sender: str) -> None:
        chain = self.sharechain
        if self.trust.blocks(signed.signer):
            # Entries signed by a quarantined site are refused even
            # when relayed by an honest peer — and the honest relay
            # earns no strike for carrying them.
            chain.count_rejection("quarantined-signer")
            self._emit_rejection(signed, "quarantined-signer", sender)
            return
        reason = chain.ingest(signed, cross_check=self._cross_check_entry)
        if reason is None or reason == "duplicate":
            return
        self._emit_rejection(signed, reason, sender)
        if reason in BENIGN_REASONS:
            return
        # Attribution: a broken signature or payload hash implicates
        # the *transport* (the sender tampered in flight); every other
        # offense implicates the signer, whose key authenticated the
        # lie.
        offender = sender if reason == "bad-signature" else signed.signer
        self._apply_strike(offender, reason,
                           definitive=reason in DEFINITIVE_REASONS)

    def _cross_check_entry(self, signed: SignedEntry) -> Optional[str]:
        """Audit a bill against this site's own delegation records.

        Only entries charging *this* site are checkable — we hold the
        book for our own jobs.  Everything else is accepted
        provisionally and purged wholesale if its signer is later
        quarantined.
        """
        entry = signed.entry
        if entry.beneficiary != self.site:
            return None
        record = self.delegations.get(entry.job_id)
        state = self.platform.coordinator.jobs.get(entry.job_id)
        if record is None or state is None:
            return "unknown-job"  # billed for a job we never delegated
        budget = state.spec.total_compute / HOUR
        tolerance = 1e-6
        if entry.kind == "donation":
            billed = (self.sharechain.donated_for_job(entry.job_id)
                      + entry.gpu_hours)
            if billed > budget + tolerance:
                return "overbilled"  # cumulative hours exceed the job
        else:
            fee_cap = budget * self.config.relay_fee_fraction
            if entry.gpu_hours > fee_cap + tolerance:
                return "overbilled"  # fee above the per-hop ceiling
        return None

    def _emit_rejection(self, signed: SignedEntry, reason: str,
                        sender: str) -> None:
        """First-class detection record: event + root trace span."""
        entry = signed.entry
        self.platform.events.emit(
            "ledger-entry-rejected", site=self.site, reason=reason,
            signer=signed.signer, source=sender, job_id=entry.job_id,
            entry_kind=entry.kind, gpu_hours=entry.gpu_hours)
        tracer = self.tracer
        if tracer is not None:
            span = tracer.start(
                "ledger-entry-rejected",
                trace_id=f"byzantine:{self.site}",
                site=self.site, reason=reason, signer=signed.signer,
                source=sender, job_id=entry.job_id)
            tracer.finish(span, status="rejected")

    def _apply_strike(self, offender: str, reason: str,
                      definitive: bool) -> None:
        if self.trust is None or not offender or offender == self.site:
            return
        transition = self.trust.strike(offender, reason, self.env.now,
                                       definitive=definitive)
        if transition is not None:
            self._on_trust_transition(offender, transition[0],
                                      transition[1], reason)

    def _on_trust_transition(self, peer: str, old: TrustState,
                             new: TrustState, reason: str) -> None:
        """React to a quarantine state change for one peer.

        Entering quarantine (or eviction) severs every trust surface
        at once: the peer's digest is dropped (no more forwards to
        it), its chain is purged from the local view, and its ack
        floor is forgotten.  In-flight two-phase handshakes are *not*
        interrupted — reconciliation safety outranks isolation, so a
        claim token the offender already holds resolves through the
        normal probe machinery.
        """
        purged = 0
        if new in (TrustState.QUARANTINED, TrustState.EVICTED):
            purged = self.sharechain.purge_signer(peer)
            self.peer_digests.pop(peer, None)
            self._chain_acked.pop(peer, None)
        kind = {
            TrustState.QUARANTINED: "site-quarantined",
            TrustState.EVICTED: "site-evicted",
            TrustState.PROBATION: "site-probation",
            TrustState.TRUSTED: "site-reinstated",
        }[new]
        self.platform.events.emit(kind, site=self.site, peer=peer,
                                  reason=reason, was=old.name.lower(),
                                  purged_entries=purged)
        tracer = self.tracer
        if tracer is not None:
            span = tracer.start(kind, trace_id=f"byzantine:{self.site}",
                                site=self.site, peer=peer, reason=reason,
                                purged_entries=purged)
            tracer.finish(span)

    def reinstate_peer(self, peer: str) -> bool:
        """Operator override: re-admit an evicted peer to probation."""
        if self.trust is None:
            return False
        if self.trust.reinstate(peer, self.env.now):
            self._on_trust_transition(peer, TrustState.EVICTED,
                                      TrustState.PROBATION,
                                      "operator-reinstate")
            return True
        return False

    def _chain_record(self, entry: CreditEntry) -> None:
        """Mirror a settlement this site just wrote into its signed
        chain (the copy peers verify).

        ``over-bill`` mode is exactly a divergence here: the shared
        ledger keeps the true hours while the chain copy bills
        inflated ones — the beneficiary's cross-check refutes the
        chain copy against its own job budget.
        """
        if self.sharechain is None:
            return
        if ("over-bill" in self.byzantine_modes
                and entry.kind == "donation" and entry.donor == self.site):
            self.sharechain.forge(replace(
                entry, gpu_hours=entry.gpu_hours * OVER_BILL_FACTOR))
            return
        self.sharechain.append(entry)

    # -- Byzantine behavior injection -------------------------------------

    def set_byzantine(self, mode: str) -> None:
        """Begin one misbehavior mode (schedule-driven)."""
        if mode not in BYZANTINE_MODES:
            raise ValueError(f"unknown byzantine mode {mode!r}")
        self.byzantine_modes.add(mode)
        self.platform.events.emit("byzantine-mode-set", site=self.site,
                                  mode=mode)
        self._maybe_start_byzantine_loop()

    def clear_byzantine(self, mode: str) -> None:
        """End one misbehavior mode (the loop notices and exits)."""
        self.byzantine_modes.discard(mode)
        self.platform.events.emit("byzantine-mode-cleared",
                                  site=self.site, mode=mode)

    def _maybe_start_byzantine_loop(self) -> None:
        if (self.sharechain is not None and self._byz_proc is None
                and not self._crashed
                and self.byzantine_modes & {"forge", "replay", "free-ride"}):
            self._byz_proc = self._spawn(self._byzantine_loop(),
                                         f"byzantine:{self.site}")

    def _byzantine_loop(self) -> Generator:
        """Fabricate chain entries while a forging mode is active.

        Victims rotate round-robin over the sorted peer list so every
        honest site eventually holds a lie its own records refute —
        detection never depends on topology or traffic patterns.
        """
        tick = self.config.gossip_interval_min or self.config.gossip_interval
        while True:
            try:
                yield self.env.timeout(tick)
            except Interrupt:
                self._byz_proc = None
                return  # gateway crashed
            active = self.byzantine_modes & {"forge", "replay", "free-ride"}
            if not active:
                self._byz_proc = None
                return  # schedule window closed
            peers = sorted(self.peers)
            if not peers or self.sharechain is None:
                continue
            victim = peers[self._byz_seq % len(peers)]
            self._byz_seq += 1
            now = self.env.now
            if "forge" in active:
                # A donation for a job the victim never delegated.
                self.sharechain.forge(CreditEntry(
                    at=now, donor=self.site, beneficiary=victim,
                    gpu_hours=FORGED_ENTRY_HOURS,
                    job_id=f"byz-forge-{self.site}-{self._byz_seq}",
                    kind="donation"))
            if "free-ride" in active:
                # A self-credited relay fee for a hop never carried —
                # structurally invalid, rejected by every verifier.
                self.sharechain.forge(CreditEntry(
                    at=now, donor=self.site, beneficiary=victim,
                    gpu_hours=(FORGED_ENTRY_HOURS
                               * self.config.relay_fee_fraction),
                    job_id=f"byz-fee-{self.site}-{self._byz_seq}",
                    kind="relay-fee"))
            if "replay" in active:
                # Re-sign the oldest own entry at a fresh sequence
                # number; with an empty chain, seed one to replay.
                if self.sharechain.reissue(0) is None:
                    self.sharechain.forge(CreditEntry(
                        at=now, donor=self.site, beneficiary=victim,
                        gpu_hours=FORGED_ENTRY_HOURS,
                        job_id=f"byz-replay-{self.site}",
                        kind="donation"))

    # -- WAN transitions --------------------------------------------------

    def _on_wan_transition(self, event: str, a: str, b: str) -> None:
        if self._crashed:
            return  # a dead gateway observes nothing
        kind = "wan-link-severed" if event == "sever" else "wan-link-healed"
        self.platform.events.emit(kind, a=a, b=b)
        if event == "heal":
            # Reconcile immediately: resolve unknown outcomes, deliver
            # pending cancels, re-send missed completion notices.
            self._kick_reconcile()

    # -- egress: forwarding unplaceable work ------------------------------

    def _on_unplaceable(self, request: ResourceRequest) -> bool:
        """Coordinator hook: may we take this request off its hands?

        Both home surplus and *foreign* jobs this site cannot place
        are candidates — the latter is a relay hop.  The relay path
        (every site the job already visited) is excluded from the
        destination choice, so a multi-hop forward can fan outward but
        never ping-pong, and the total WAN crossings are capped by
        ``max_forward_hops``.
        """
        if self._crashed:
            return False  # no gateway, no federation: work parks locally
        if request.training is None:
            return False  # sessions never cross the WAN
        if request.forward_hops >= self.config.max_forward_hops:
            return False  # out of hops: the job stays parked here
        retry_at = self._retry_after.get(request.request_id)
        if retry_at is not None and self.env.now < retry_at:
            return False
        exclude = set(request.relay_path)
        if self.trust is not None:
            # Quarantined/evicted peers are never forwarding targets
            # (their digests were dropped too; this guards stragglers).
            exclude |= self.trust.excluded()
        dest = self.policy.choose(
            self.site, request, self.peer_digests,
            self.wan, self.fabric, self.ledger, self.env.now,
            exclude=exclude,
        )
        if dest is None:
            return False
        # Optimistically consume the advertised GPU so a burst of
        # parked requests does not dog-pile one remote card before the
        # next gossip round corrects the view.
        digest = self.peer_digests[dest]
        self.peer_digests[dest] = replace(
            digest,
            free_gpus=digest.free_gpus - 1,
            queue_pressure=digest.queue_pressure + 1,
        )
        self._spawn(self._forward(request, dest),
                    f"forward:{request.request_id}->{dest}")
        return True

    def _forward(self, request: ResourceRequest, dest: str) -> Generator:
        job_id = request.training.job_id
        self._inflight.add(job_id)
        try:
            yield from self._forward_handshake(request, dest)
        except Interrupt:
            return  # gateway crashed mid-handshake; the intent
            # journal carries the truth into recovery
        finally:
            self._inflight.discard(job_id)

    def _forward_handshake(self, request: ResourceRequest,
                           dest: str) -> Generator:
        spec = request.training
        state = self.platform.coordinator.jobs.get(spec.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            self._pending_cancels.discard(spec.job_id)
            return  # cancelled between the hook firing and this process
        store = self.platform.store_for(spec)
        snapshot = None
        if store.has_checkpoint(spec.job_id):
            # A migrated job ships its flattened restore chain *and*
            # its dataset — the data lives at the origin campus, so a
            # checkpointed forward is never cheaper than a fresh one.
            snapshot = store.export_snapshot(spec.job_id)
            payload_bytes = snapshot.nbytes + spec.dataset_bytes
        else:
            payload_bytes = spec.dataset_bytes
        restore = snapshot is not None
        started = self.env.now
        # Relay provenance: a foreign job keeps its true origin; the
        # chain of visited sites grows by this site, and the previous
        # hop (if any) is where the completion notice must chain back.
        origin = request.origin_site or self.site
        relay_path = tuple(request.relay_path) + (self.site,)
        upstream = request.relay_path[-1] if request.relay_path else None
        shipped_progress = snapshot.progress if restore else 0.0
        self.platform.events.emit(
            "job-forward-offered", job_id=spec.job_id, dest=dest,
            restore=restore, nbytes=payload_bytes,
            hops=request.forward_hops + 1,
        )
        # The per-hop forward span: covers the whole handshake
        # (offer → claim → commit, including the payload pull the
        # commit blocks on), parented under the request's current span
        # — the root at the origin, the local host span at a relay.
        tracer = self.tracer
        fwd = None
        if tracer is not None and request.trace is not None:
            fwd = tracer.start(
                "forward", parent=request.trace, site=self.site,
                dest=dest, restore=restore, hop=request.forward_hops + 1,
                payload_bytes=payload_bytes,
            )
        # Write-ahead intent: journaled *before* the offer leaves, so
        # a gateway crash at any point of the handshake leaves behind
        # an exact classification — no token means phase 1 died (safe
        # to requeue), a token means the commit may have landed (park
        # UNKNOWN and probe).  Cleared on every terminal branch.
        intent = ForwardIntent(
            job_id=spec.job_id, dest_site=dest, started_at=started,
            payload_bytes=payload_bytes, restore=restore,
            shipped_progress=shipped_progress,
            origin_site=request.origin_site, upstream=upstream,
            request=request, trace=fwd,
        )
        self._intents[spec.job_id] = intent
        self._checkpoint()
        # Phase 1: metadata-only offer.  A failure here is *safe* —
        # nothing durable happened at the host beyond an expiring
        # lease — so any error reads as a decline.
        offer = ForwardOffer(
            spec=spec,
            origin_site=origin,
            payload_bytes=payload_bytes,
            restore=restore,
            progress=shipped_progress,
            forward_hops=request.forward_hops + 1,
            relay_path=relay_path,
            trace=fwd,
        )
        try:
            reply = yield self.wan_rpc.call(
                self.site, dest, "forward-offer", offer,
                request_size=self.config.control_message_bytes,
                response_size=self.config.control_message_bytes,
                timeout=self.config.control_rpc_timeout,
            )
        except NetworkError:
            reply = {}
        if not reply.get("accepted"):
            if tracer is not None:
                tracer.finish(fwd, status="declined",
                              reason=reply.get("reason", "unreachable"))
            self._intents.pop(spec.job_id, None)
            if self.trust is not None and reply and "reason" not in reply:
                # The peer advertised capacity fresh enough for the
                # policy to pick it, yet declined for headroom (the
                # reason-less decline).  One honest race is possible;
                # a pattern of them is the over-report signature —
                # a circumstantial, threshold-gated strike.
                self._apply_strike(dest, "capacity-mismatch",
                                   definitive=False)
            self._decline(request, dest)
            return
        token = reply["claim_token"]
        state = self.platform.coordinator.jobs.get(spec.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            # Cancelled while the offer was in flight: nothing has
            # committed — release the lease (best-effort; it expires
            # on its own if this leg is lost too) and walk away.
            self._pending_cancels.discard(spec.job_id)
            if tracer is not None:
                tracer.finish(fwd, status="cancelled")
            self._intents.pop(spec.job_id, None)
            self._checkpoint()
            yield from self._release_lease(dest, token)
            return
        # Upgrade the journal entry before the commit leaves: from
        # here on a crash must resolve through the status probe, never
        # a blind requeue.
        intent.claim_token = token
        self._checkpoint()
        # Phase 2: claim-bearing commit.  A failure here is AMBIGUOUS
        # — the host may have pulled the payload and scheduled the job
        # — so it parks the delegation as unknown outcome for the
        # reconciliation pass to resolve.  Re-queuing here is exactly
        # the double-schedule bug.
        envelope = ForwardEnvelope(
            spec=spec,
            origin_site=origin,
            payload_bytes=payload_bytes,
            snapshot=snapshot,
            forward_hops=request.forward_hops + 1,
            claim_token=token,
            relay_path=relay_path,
            trace=fwd,
        )
        try:
            commit = yield self.wan_rpc.call(
                self.site, dest, "forward-commit", envelope,
                request_size=self.config.control_message_bytes,
                response_size=self.config.control_message_bytes,
                timeout=self.config.commit_rpc_timeout,
            )
        except NetworkError:
            record = ForwardRecord(
                job_id=spec.job_id, dest_site=dest, forwarded_at=started,
                payload_bytes=payload_bytes, restore=restore,
                claim_token=token, state=DelegationState.UNKNOWN,
                origin_site=request.origin_site, upstream=upstream,
                shipped_progress=shipped_progress,
            )
            # The forward span stays open: the handshake's outcome is
            # ambiguous until a reconciliation probe resolves it.
            record.trace = fwd
            self.delegations[spec.job_id] = record
            self._pending_requests[spec.job_id] = request
            self._intents.pop(spec.job_id, None)
            self._checkpoint()
            self.platform.events.emit("job-forward-unknown",
                                      job_id=spec.job_id, dest=dest)
            self._kick_reconcile()
            return
        if not commit.get("committed"):
            if tracer is not None:
                tracer.finish(fwd, status="declined",
                              reason=commit.get("reason", "not-committed"))
            self._intents.pop(spec.job_id, None)
            self._decline(request, dest)
            return
        elapsed = self.env.now - started
        self.forwarded_out += 1
        self.wan_transfer_seconds += elapsed
        record = ForwardRecord(
            job_id=spec.job_id,
            dest_site=dest,
            forwarded_at=started,
            payload_bytes=payload_bytes,
            restore=restore,
            transfer_seconds=elapsed,
            claim_token=token,
            origin_site=request.origin_site,
            upstream=upstream,
            shipped_progress=shipped_progress,
            trace=fwd,
        )
        if tracer is not None:
            tracer.finish(fwd, status="committed",
                          transfer_seconds=elapsed)
        self.delegations[spec.job_id] = record
        self._intents.pop(spec.job_id, None)
        self._settle_relay_departure(record)
        state = self.platform.coordinator.jobs.get(spec.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            # The user cancelled mid-commit; the host runs the job
            # until the pending cancellation lands there.
            self._pending_cancels.add(spec.job_id)
            self._kick_reconcile()
        elif state is not None:
            state.status = JobStatus.MIGRATING
            state.current_node = f"wan:{dest}"
        self._checkpoint()
        self.platform.events.emit(
            "job-forwarded-out", job_id=spec.job_id, dest=dest,
            restore=restore, transfer_seconds=elapsed,
        )

    def _on_cancel_delegated(self, job_id: str) -> bool:
        """Coordinator hook: the user cancelled a gateway-held job.

        The local record is already CANCELLED; if the job crossed (or
        is crossing) the WAN, queue the cancellation for at-most-once
        delivery to the hosting site.
        """
        if self._crashed:
            # The CANCELLED job state survives in the coordinator;
            # recovery re-derives the pending set from it.
            return False
        if job_id in self.delegations or job_id in self._inflight:
            self._pending_cancels.add(job_id)
            self._checkpoint()
            self._kick_reconcile()
            return True
        return False

    def _decline(self, request: ResourceRequest, dest: str) -> None:
        """Offer declined (or failed safely): back off and re-park.

        The request goes back to the local queue like any other
        unplaceable work — unless the user cancelled while the offer
        was in flight.
        """
        spec = request.training
        self.declined += 1
        self._retry_after[spec.job_id] = (
            self.env.now + self.config.forward_retry_backoff)
        self.platform.events.emit("job-forward-declined",
                                  job_id=spec.job_id, dest=dest)
        state = self.platform.coordinator.jobs.get(spec.job_id)
        if state is None or state.status is not JobStatus.CANCELLED:
            self.platform.coordinator.queue.push(request)
        else:
            self._pending_cancels.discard(spec.job_id)
        self._checkpoint()

    def _settle_relay_departure(self, record: ForwardRecord) -> None:
        """Close this site's hosting role after relaying a job onward.

        A relay stops hosting the moment its outgoing commit is
        confirmed: the foreign-job entry closes, and any *durable*
        progress this site added beyond the arrival snapshot (it may
        have run the job between hosting and relaying) is settled as a
        donation now — the downstream host bills only the remainder,
        so the origin is charged each GPU-hour exactly once across the
        chain.
        """
        if record.origin_site is None:
            return  # we are the true origin, not a relay
        entry = self._foreign_jobs.pop(record.job_id, None)
        self.relayed_out += 1
        # This site's hosting role ends here; its host span closes and
        # the delegation lives on in the outgoing forward span.
        self.platform.coordinator.finish_trace(record.job_id, "relayed")
        self.platform.events.emit(
            "job-relayed", job_id=record.job_id, dest=record.dest_site,
            origin=record.origin_site,
        )
        if entry is None:
            return
        origin, arrival_progress, _path = entry
        executed = max(0.0, record.shipped_progress - arrival_progress)
        if executed > 1e-9:
            self._chain_record(self.ledger.record_donation(
                donor=self.site,
                beneficiary=origin,
                gpu_hours=executed / HOUR,
                job_id=record.job_id,
                at=self.env.now,
            ))

    def _settle_relay_fees(self, job_id: str, origin: str,
                           relay_path: Tuple[str, ...],
                           executed_seconds: float) -> None:
        """Pay each intermediate relay its cut of a settled donation.

        ``relay_path[0]`` is the origin itself and earns nothing; every
        later entry carried the job one hop and is credited
        ``relay_fee_fraction`` of the donated hours, charged to the
        origin — entries are plain transfers, so ledger conservation
        holds by construction.
        """
        fee = (executed_seconds / HOUR) * self.config.relay_fee_fraction
        if fee <= 1e-12:
            return
        for relay in relay_path[1:]:
            # The settling host signs the fee entry — donor is the
            # relay, so an honest fee is never self-credited.
            self._chain_record(self.ledger.record_relay_fee(
                relay=relay,
                beneficiary=origin,
                gpu_hours=fee,
                job_id=job_id,
                at=self.env.now,
            ))

    def _release_lease(self, dest: str, token: str) -> Generator:
        try:
            yield self.wan_rpc.call(
                self.site, dest, "forward-release", {"claim_token": token},
                request_size=self.config.control_message_bytes,
                response_size=self.config.control_message_bytes,
                timeout=self.config.control_rpc_timeout,
            )
        except NetworkError:
            pass  # the lease expires at the host on its own

    # -- ingress: hosting foreign work ------------------------------------

    def accepts(self, spec: TrainingJobSpec) -> bool:
        """Local-first admission: host foreign work only with headroom.

        Applies the same filters a peer's forwarding policy applied to
        our (possibly stale) digest, but against the live local view.
        """
        model = spec.model
        return self.policy.admissible(
            self.local_digest(), model.gpu_memory,
            model.min_compute_capability)

    def _trace_admission(self, offer: ForwardOffer, accepted: bool,
                         reason: str = "") -> None:
        """Record the host-side admission decision as an instant span."""
        tracer = self.tracer
        if tracer is not None:
            tracer.event("admission", offer.trace, site=self.site,
                         status="accepted" if accepted else "declined",
                         reason=reason)

    def _handle_forward_offer(self, offer: ForwardOffer) -> dict:
        job_id = offer.spec.job_id
        sender = (offer.relay_path[-1] if offer.relay_path
                  else offer.origin_site)
        if self.trust is not None and self.trust.blocks(sender):
            # A quarantined peer gets no capacity lease (its work may
            # be fabricated); already-committed jobs still run — the
            # isolation is forward-looking only.
            self._trace_admission(offer, False, "quarantined")
            return {"accepted": False, "reason": "quarantined"}
        if not self.config.host_foreign_jobs:
            # Opted out of hosting: our digest already advertises no
            # capacity, but a peer acting on a pre-opt-out digest (or
            # probing blindly) still gets a clean decline.
            self._trace_admission(offer, False, "opted-out")
            return {"accepted": False, "reason": "opted-out"}
        if self.site in offer.relay_path:
            # The job already passed through here; the sender's policy
            # should have excluded us — decline defensively rather
            # than let a relay loop form.
            self._trace_admission(offer, False, "relay-loop")
            return {"accepted": False, "reason": "relay-loop"}
        if job_id in self.platform.coordinator.jobs or job_id in self._committing:
            # We already host (or are mid-commit of) this job; the
            # origin should resolve its handshake via forward-status,
            # never re-offer — decline defensively.
            self._trace_admission(offer, False, "already-hosted")
            return {"accepted": False, "reason": "already-hosted"}
        if not self.accepts(offer.spec):
            self.platform.events.emit("job-forward-rejected",
                                      job_id=job_id,
                                      origin=offer.origin_site)
            self._trace_admission(offer, False, "no-headroom")
            return {"accepted": False}
        self._trace_admission(offer, True)
        token = f"{self.site}#{self._token_seq}"
        self._token_seq += 1
        self._offers[token] = offer
        # Reserve the accepted card until the claim arrives, so
        # concurrent origins cannot all book the same advertised GPU.
        self._inbound_pending += 1
        # Persist the token ordinal: leases are volatile, but a token
        # recycled after a crash could alias a pre-crash handshake.
        self._checkpoint()
        self.env.process(self._lease_expiry(token),
                         name=f"lease:{self.site}:{job_id}")
        return {"accepted": True, "claim_token": token}

    def _lease_expiry(self, token: str) -> Generator:
        yield self.env.timeout(self.config.offer_lease_timeout)
        offer = self._offers.pop(token, None)
        if offer is not None:
            self._inbound_pending -= 1
            self.platform.events.emit("forward-lease-expired",
                                      job_id=offer.spec.job_id,
                                      origin=offer.origin_site)

    def _handle_forward_commit(self, envelope: ForwardEnvelope) -> Generator:
        job_id = envelope.spec.job_id
        token = envelope.claim_token
        if self._commits.get(job_id) == token:
            # Idempotent replay: we committed this exact handshake and
            # the acknowledgement was lost.  Do NOT schedule again.
            return {"committed": True}
        offer = self._offers.pop(token, None)
        if offer is None:
            # Lease expired (or was never granted): nothing committed,
            # so the origin can safely requeue.
            return {"committed": False, "reason": "lease-expired"}
        # Pull the bulk bytes (checkpoint snapshot or dataset) over the
        # WAN from the *previous hop* — on a relayed forward the data
        # lives at the relay, not the origin; the handler runs inside
        # the RPC, so the sender sees the full replication time before
        # its commit is acknowledged.
        incarnation = self._incarnation
        self._committing.add(job_id)
        category = (CHECKPOINT_CATEGORY if envelope.restore
                    else DATASET_CATEGORY)
        tracer = self.tracer
        pull = None
        if tracer is not None and envelope.trace is not None:
            pull = tracer.start("payload-pull", parent=envelope.trace,
                                site=self.site,
                                src=envelope.sender_site,
                                nbytes=envelope.payload_bytes,
                                category=category)
        try:
            yield self.fabric.transfer(envelope.sender_site, self.site,
                                       envelope.payload_bytes,
                                       category=category)
        except NetworkError:
            # A crashed gateway must not hand the origin a definite
            # answer — the pull died *because* this process died, so
            # the caller sees a network error (ambiguous, resolved by
            # a probe), exactly as if the response leg was lost.
            self._check_alive()
            # The pull died (e.g. the WAN severed mid-replication):
            # abort without committing, so a forward-status probe
            # reports "absent" and the origin requeues safely.
            self._committing.discard(job_id)
            self._inbound_pending -= 1
            if tracer is not None:
                tracer.finish(pull, status="pull-failed")
            self.platform.events.emit("forward-commit-aborted",
                                      job_id=job_id,
                                      origin=envelope.origin_site)
            return {"committed": False, "reason": "pull-failed"}
        self._check_alive()
        if incarnation == self._incarnation:
            # The lease count belongs to the incarnation that granted
            # it; after a crash/restart cycle it was already zeroed.
            self._inbound_pending -= 1
        if tracer is not None:
            tracer.finish(pull)
        if envelope.snapshot is not None:
            store = self.platform.store_for(envelope.spec)
            store.import_snapshot(envelope.snapshot)
            # Keep the local engine's version counter ahead of the
            # imported record so future checkpoints never collide.
            self.platform.engine.adopt_base(job_id,
                                            envelope.snapshot.version)
        self._foreign_jobs[job_id] = (envelope.origin_site,
                                      envelope.progress,
                                      envelope.relay_path)
        self._commits[job_id] = token
        self.forwarded_in += 1
        self._checkpoint()
        self.platform.coordinator.submit_remote(
            envelope.spec,
            origin_site=envelope.origin_site,
            restore=envelope.restore,
            progress=envelope.progress,
            forward_hops=envelope.forward_hops,
            relay_path=envelope.relay_path,
            trace=envelope.trace,
        )
        self._committing.discard(job_id)
        return {"committed": True}

    def _handle_forward_release(self, payload: dict):
        offer = self._offers.pop(payload.get("claim_token"), None)
        if offer is not None:
            self._inbound_pending -= 1
        return "ok"

    def _handle_forward_status(self, payload: dict) -> dict:
        """Idempotent probe: what happened to this handshake here?

        ``absent`` is a *guarantee* that the commit never happened and
        never will (an unclaimed lease for the token is released), so
        the origin may requeue without risking a duplicate.
        """
        job_id = payload["job_id"]
        if job_id in self._committing:
            return {"state": "pending"}
        state = self.platform.coordinator.jobs.get(job_id)
        if state is None:
            offer = self._offers.pop(payload.get("claim_token"), None)
            if offer is not None:
                # The origin abandoned this handshake; free the lease
                # now instead of waiting for expiry.
                self._inbound_pending -= 1
            return {"state": "absent"}
        if state.status is JobStatus.CANCELLED:
            return {"state": "cancelled"}
        if state.is_done:
            return {"state": "completed",
                    "completed_at": state.completed_at,
                    "host_site": self._host_of(job_id)}
        return {"state": "committed"}

    def _host_of(self, job_id: str) -> str:
        """The site that actually ran a job done *from here*: this one,
        unless we relayed it onward — then the downstream record knows
        the true host, and probe/cancel replies must not claim it."""
        record = self.delegations.get(job_id)
        if record is not None:
            return record.host_site or record.dest_site
        return self.site

    def _handle_cancel_job(self, payload: dict) -> Generator:
        """Cross-WAN cancellation of a job delegated to this site.

        Idempotent: re-delivery after a lost response reports the same
        terminal outcome instead of acting twice, so the origin's
        retry loop gives at-most-once *effect*.
        """
        job_id = payload["job_id"]
        coordinator = self.platform.coordinator
        if job_id in self._committing or coordinator.is_dispatching(job_id):
            # Mid-commit or mid-dispatch: the job's fate is changing
            # under us — ask the origin to retry shortly.
            return {"pending": True}
        state = coordinator.jobs.get(job_id)
        if state is None:
            return {"known": False}
        if state.status is JobStatus.CANCELLED:
            return {"cancelled": True}
        if state.is_done:
            # Completed before the cancellation arrived: report the
            # race honestly rather than pretending to cancel.
            return {"completed": True,
                    "completed_at": state.completed_at,
                    "host_site": self._host_of(job_id)}
        terminate = coordinator.cancel_job(job_id)
        if terminate is not None:
            try:
                yield terminate
            except NetworkError:
                pass  # provider vanished mid-terminate; reclaim handles it
            if state.is_done:
                # The job finished during the terminate round trip: the
                # completion path already settled full credits and
                # queued the notice — report the lost race, don't
                # overwrite a finished job with CANCELLED.
                self._check_alive()
                return {"completed": True,
                        "completed_at": state.completed_at,
                        "host_site": self._host_of(job_id)}
        state.status = JobStatus.CANCELLED
        entry = self._foreign_jobs.pop(job_id, None)
        if entry is not None:
            self._settle_foreign_cancellation(job_id, entry, state)
            self._checkpoint()
        # A crash during the terminate round trip keeps the *local*
        # effects (the executor is already dead, and CANCELLED is the
        # durable truth) but must not answer: the origin retries after
        # restart and the idempotent path above reports the outcome.
        # Settlement then happens in recovery, off the snapshot.
        self._check_alive()
        return {"cancelled": True}

    def _settle_foreign_cancellation(self, job_id: str, entry: tuple,
                                     state) -> None:
        """Bill the hours a cancelled foreign job donated before dying.

        Shared by the live cancel handler and restart recovery (a
        cancel whose terminate round trip straddled a gateway crash
        completes locally but cannot settle until the restarted
        gateway replays its books).
        """
        origin, arrival_progress, relay_path = entry
        executed = max(0.0, state.progress - arrival_progress)
        if executed > 1e-9:
            # Bill the hours actually donated before the cancel —
            # and the relays' cut of that partial settlement.
            self._chain_record(self.ledger.record_donation(
                donor=self.site,
                beneficiary=origin,
                gpu_hours=executed / HOUR,
                job_id=job_id,
                at=self.env.now,
            ))
            self._settle_relay_fees(job_id, origin, relay_path,
                                    executed)
        self.platform.events.emit("foreign-job-cancelled",
                                  job_id=job_id, origin=origin,
                                  donated_gpu_hours=executed / HOUR)

    # -- settlement -------------------------------------------------------

    def _on_event(self, event: PlatformEvent) -> None:
        if self._crashed:
            return  # a dead gateway sees nothing; recovery replays
        self.admission.on_event(event)
        if event.kind != "job-completed":
            return
        job_id = event.payload.get("job_id")
        entry = self._foreign_jobs.pop(job_id, None)
        if entry is None:
            return
        self._settle_foreign_completion(job_id, entry)
        self._checkpoint()

    def _settle_foreign_completion(self, job_id: str,
                                   entry: tuple) -> None:
        """Credit this site for a hosted foreign job that finished.

        Shared by the live completion event and restart recovery —
        a job that completed while the gateway was down settles here
        when the restarted gateway replays its books.
        """
        origin, arrival_progress, relay_path = entry
        state = self.platform.coordinator.jobs.get(job_id)
        donated = state.spec.total_compute - arrival_progress
        self._chain_record(self.ledger.record_donation(
            donor=self.site,
            beneficiary=origin,
            gpu_hours=donated / HOUR,
            job_id=job_id,
            at=self.env.now,
        ))
        # Relays along the path earn their fee out of the origin's
        # balance — settled here, at the one site that knows the final
        # donated hours.
        self._settle_relay_fees(job_id, origin, relay_path, donated)
        tracer = self.tracer
        if tracer is not None:
            # On the live path this runs inside the coordinator's
            # job-completed emit, before it closes the host span — so
            # the settlement records as a child of the hosting it pays
            # for.
            tracer.event("settle", self.platform.coordinator.trace_context(
                job_id), site=self.site, donated_gpu_hours=donated / HOUR)
        self.platform.events.emit("foreign-job-completed", job_id=job_id,
                                  origin=origin,
                                  donated_gpu_hours=donated / HOUR)
        completed_at = (state.completed_at if state.completed_at is not None
                        else self.env.now)
        # The notice goes to the *previous hop* (on a relayed job that
        # is the relay, which chains it onward) and stays registered
        # until acknowledged, so a partitioned upstream receives it on
        # heal (reconciliation) instead of never.
        self._queue_completion_notice(
            job_id,
            upstream=relay_path[-1] if relay_path else origin,
            completed_at=completed_at,
            host_site=self.site,
        )

    def _queue_completion_notice(self, job_id: str, upstream: str,
                                 completed_at: float,
                                 host_site: str) -> None:
        """Register a completion notice toward the previous hop and
        start delivering it.

        The one place the keep-until-acknowledged payload is built —
        both the hosting site's settlement and a relay chaining a
        downstream notice onward go through here, so the wire shape
        cannot drift between them.
        """
        self._unacked[job_id] = (upstream, {
            "job_id": job_id, "completed_at": completed_at,
            "host_site": host_site,
        })
        self._checkpoint()
        self._spawn(self._notify_upstream(job_id), f"notify:{job_id}")

    def _notify_upstream(self, job_id: str) -> Generator:
        entry = self._unacked.get(job_id)
        if entry is None:
            return
        upstream, payload = entry
        try:
            yield self.wan_rpc.call(
                self.site, upstream, "job-complete", payload,
                request_size=self.config.control_message_bytes,
                response_size=self.config.control_message_bytes,
                timeout=self.config.control_rpc_timeout,
            )
        except NetworkError:
            # The previous hop is partitioned; the reconciliation pass
            # re-sends this notice once the WAN heals.  (A crash
            # Interrupt propagates instead: the notice survives in the
            # snapshot and reconciliation re-sends it after restart.)
            self.platform.events.emit("job-complete-notify-failed",
                                      job_id=job_id, origin=upstream)
            return
        self._unacked.pop(job_id, None)
        self._checkpoint()

    def _handle_job_complete(self, payload: dict):
        job_id = payload["job_id"]
        # The host stamps completion when the last step finished; the
        # notice's WAN flight time must not inflate makespan metrics.
        completed_at = payload.get("completed_at", self.env.now)
        self._apply_remote_completion(job_id, completed_at,
                                      payload.get("host_site"))
        return "ok"

    def _apply_remote_completion(self, job_id: str, completed_at: float,
                                 host_site: Optional[str]) -> bool:
        """Close the origin-side record of a delegated job (idempotent).

        Returns ``False`` on a duplicate (the completion was already
        applied — e.g. a re-sent notice after a lost acknowledgement).
        """
        record = self.delegations.get(job_id)
        if record is not None:
            if record.state is DelegationState.COMPLETED:
                return False
            if record.state is DelegationState.UNKNOWN:
                # The commit-ack was lost but the host clearly
                # committed; the completion resolves the handshake.
                self._confirm_delegation(record)
            record.completed_at = completed_at
            record.host_site = host_site or record.dest_site
            record.state = DelegationState.COMPLETED
        # At the true origin this closes the root job span; at a relay
        # the host span already closed as "relayed" and this is a no-op.
        self.platform.coordinator.finish_trace(job_id, "completed")
        self._pending_requests.pop(job_id, None)
        state = self.platform.coordinator.jobs.get(job_id)
        if state is not None:
            state.progress = state.spec.total_compute
            state.checkpointed_progress = state.spec.total_compute
            state.completed_at = completed_at
            if state.status is JobStatus.CANCELLED:
                # The cancellation raced the completion and lost; the
                # user's cancellation record survives.
                self._pending_cancels.discard(job_id)
                self.platform.events.emit("job-cancel-lost-race",
                                          job_id=job_id, dest=host_site)
            else:
                state.status = JobStatus.COMPLETED
        self._checkpoint()
        self.platform.events.emit("job-remote-completed", job_id=job_id,
                                  host=host_site)
        if record is not None and record.upstream is not None:
            # We were a relay hop for this job: chain the completion
            # notice toward the previous hop with the *host's* stamp
            # intact, under the same keep-until-acknowledged rule.
            self._queue_completion_notice(
                job_id,
                upstream=record.upstream,
                completed_at=completed_at,
                host_site=host_site or record.dest_site,
            )
        return True

    def _confirm_delegation(self, record: ForwardRecord) -> None:
        """An unknown-outcome handshake turned out to have committed."""
        record.state = DelegationState.COMMITTED
        self.forwarded_out += 1
        tracer = self.tracer
        if tracer is not None:
            # The forward span was left open when the commit-ack was
            # lost; the probe/notice proves the handshake landed.
            tracer.finish(record.trace, status="committed")
        self._settle_relay_departure(record)
        self._pending_requests.pop(record.job_id, None)
        state = self.platform.coordinator.jobs.get(record.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            self._pending_cancels.add(record.job_id)
        elif state is not None:
            state.status = JobStatus.MIGRATING
            state.current_node = f"wan:{record.dest_site}"
        self._checkpoint()
        self.platform.events.emit(
            "job-forwarded-out", job_id=record.job_id,
            dest=record.dest_site, restore=record.restore,
            transfer_seconds=record.transfer_seconds,
        )

    # -- reconciliation ---------------------------------------------------

    def _kick_reconcile(self) -> None:
        """Run a reconciliation pass as soon as possible.

        A kick while a pass is already running (whose wake event is
        abandoned) must set the flag, not succeed the stale event —
        otherwise the heal-time kick is silently lost until the next
        timer tick.
        """
        wake = self._reconcile_wake
        if (not self._pass_running and wake is not None
                and not wake.triggered):
            wake.succeed()
        else:
            self._reconcile_kicked = True  # picked up next loop turn

    def _has_reconcile_work(self) -> bool:
        unknown = any(r.state is DelegationState.UNKNOWN
                      for r in self.delegations.values())
        return bool(unknown or self._pending_cancels or self._unacked)

    def _reconcile_loop(self) -> Generator:
        while True:
            self._reconcile_wake = self.env.event()
            if self._reconcile_kicked:
                self._reconcile_kicked = False
                self._reconcile_wake.succeed()
            try:
                yield self.env.any_of([
                    self.env.timeout(self.config.reconcile_interval),
                    self._reconcile_wake,
                ])
            except Interrupt:
                return  # gateway crashed
            if self._has_reconcile_work():
                self._pass_running = True
                try:
                    yield from self._reconcile_pass()
                except Interrupt:
                    return  # gateway crashed mid-pass; every step is
                    # idempotent, the restarted loop re-runs the rest
                finally:
                    self._pass_running = False

    def _reconcile_pass(self) -> Generator:
        """One idempotent sweep over everything a partition left open."""
        # 1. Resolve unknown-outcome delegations with status probes.
        for job_id in sorted(self.delegations):
            record = self.delegations.get(job_id)
            if record is None or record.state is not DelegationState.UNKNOWN:
                continue
            yield from self._probe_delegation(job_id, record)
        # 2. Deliver pending cross-site cancellations.
        for job_id in sorted(self._pending_cancels):
            record = self.delegations.get(job_id)
            if record is None:
                if job_id not in self._inflight:
                    self._pending_cancels.discard(job_id)
                continue
            if record.state is DelegationState.UNKNOWN:
                continue  # probe must resolve the handshake first
            if record.state in (DelegationState.COMPLETED,
                                DelegationState.CANCELLED):
                self._pending_cancels.discard(job_id)
                continue
            yield from self._send_cancel(job_id, record)
        # 3. Re-send completion notices the previous hop never
        #    acknowledged.
        for job_id in sorted(self._unacked):
            yield from self._notify_upstream(job_id)

    def _probe_delegation(self, job_id: str,
                          record: ForwardRecord) -> Generator:
        try:
            reply = yield self.wan_rpc.call(
                self.site, record.dest_site, "forward-status",
                {"job_id": job_id, "claim_token": record.claim_token},
                request_size=self.config.control_message_bytes,
                response_size=self.config.control_message_bytes,
                timeout=self.config.control_rpc_timeout,
            )
        except NetworkError:
            return  # still unreachable; retried next pass
        outcome = reply.get("state")
        tracer = self.tracer
        if tracer is not None:
            tracer.event("probe", record.trace, site=self.site,
                         dest=record.dest_site, outcome=outcome or "lost")
        if outcome == "pending":
            return  # host mid-commit; stay unknown and re-probe later
        if outcome == "absent":
            # Guaranteed not (and never to be) committed at the host:
            # requeuing locally cannot duplicate the job.
            if tracer is not None:
                tracer.finish(record.trace, status="absent")
            del self.delegations[job_id]
            request = self._pending_requests.pop(job_id, None)
            self._pending_cancels.discard(job_id)
            self._checkpoint()
            self.platform.events.emit("job-forward-requeued",
                                      job_id=job_id, dest=record.dest_site)
            state = self.platform.coordinator.jobs.get(job_id)
            if request is not None and (
                    state is None
                    or state.status is not JobStatus.CANCELLED):
                self._retry_after[job_id] = (
                    self.env.now + self.config.forward_retry_backoff)
                self.platform.coordinator.queue.push(request)
            return
        # The host committed: resolve the handshake.
        if record.state is DelegationState.UNKNOWN:
            self._confirm_delegation(record)
        if outcome == "completed":
            self._apply_remote_completion(
                job_id, reply.get("completed_at", self.env.now),
                reply.get("host_site", record.dest_site))
        elif outcome == "cancelled":
            record.state = DelegationState.CANCELLED
            self._pending_cancels.discard(job_id)
            self._checkpoint()

    def _send_cancel(self, job_id: str, record: ForwardRecord) -> Generator:
        try:
            reply = yield self.wan_rpc.call(
                self.site, record.dest_site, "cancel-job",
                {"job_id": job_id, "origin_site": self.site},
                request_size=self.config.control_message_bytes,
                response_size=self.config.control_message_bytes,
                timeout=self.config.control_rpc_timeout,
            )
        except NetworkError:
            return  # unreachable; retried next pass (host is idempotent)
        if reply.get("pending"):
            return  # host mid-commit/dispatch; retry shortly
        self._pending_cancels.discard(job_id)
        tracer = self.tracer
        if reply.get("completed"):
            if tracer is not None:
                tracer.event("cancel-delivered", record.trace,
                             site=self.site, outcome="lost-race")
            self._apply_remote_completion(
                job_id, reply.get("completed_at", self.env.now),
                reply.get("host_site", record.dest_site))
        else:
            record.state = DelegationState.CANCELLED
            self._checkpoint()
            if tracer is not None:
                tracer.event("cancel-delivered", record.trace,
                             site=self.site, outcome="cancelled")
                self.platform.coordinator.finish_trace(job_id, "cancelled")
            self.platform.events.emit("job-cancel-delivered",
                                      job_id=job_id, dest=record.dest_site)

    # -- crash / restart --------------------------------------------------

    @property
    def is_crashed(self) -> bool:
        """Whether the gateway process is currently down."""
        return self._crashed

    def _check_alive(self) -> None:
        """Raise out of a handler that resumed inside a dead gateway.

        RPC handlers run as their own processes, so a gateway crash
        cannot interrupt them synchronously — instead every handler
        re-checks liveness after each yield.  Raising turns into a
        network error at the caller: ambiguous, like any lost response
        leg, and resolved through the idempotent probe machinery.
        """
        if self._crashed:
            raise RpcError(f"gateway {self.site} crashed mid-operation")

    def attach_vault(self, vault: "StateVault") -> None:
        """Enable durable snapshots (and write the first one)."""
        self.vault = vault
        self._checkpoint()

    def _checkpoint(self) -> None:
        """Persist the durable tables.  No-op without a vault.

        Called after every mutation of snapshot-worthy state; crash
        points exist only at yields, so the vault is always current
        when one lands.  Volatile state (leases, peer digests, backoff
        clocks, in-flight handshake sets) is deliberately excluded.
        """
        if self.vault is None or self._crashed:
            return
        snap = GatewaySnapshot(
            site=self.site,
            taken_at=self.env.now,
            token_seq=self._token_seq,
            delegations=dict(self.delegations),
            pending_requests=dict(self._pending_requests),
            pending_cancels=tuple(sorted(self._pending_cancels)),
            unacked=dict(self._unacked),
            commits=dict(self._commits),
            foreign_jobs=dict(self._foreign_jobs),
            intents=dict(self._intents),
            counters={
                "forwarded_out": self.forwarded_out,
                "forwarded_in": self.forwarded_in,
                "relayed_out": self.relayed_out,
                "declined": self.declined,
                "gossip_rounds": self.gossip_rounds,
                "wan_transfer_seconds": self.wan_transfer_seconds,
            },
        )
        self.vault.store("gateway", snap, snap.nbytes)

    def crash(self) -> None:
        """Kill the gateway process: all in-memory state dies.

        The WAN endpoint unbinds (peers see network errors), every
        flow terminating here fails, and every gateway-owned process —
        loops, in-flight forwards, notice deliveries — is interrupted.
        The durable tables come back from the vault at :meth:`restart`;
        everything else is rebuilt or intentionally dropped.
        """
        if self._crashed:
            return
        self._crashed = True
        self._incarnation += 1
        self.wan_rpc.unbind(self.site)
        self.fabric.kill_host_flows(self.site, reason="gateway crashed")
        procs, self._procs = self._procs, set()
        for proc in procs:
            if proc.is_alive:
                proc.interrupt("gateway-crash")
        self._gossip_proc = None
        self._reconcile_proc = None
        self.peer_digests.clear()
        self.delegations = {}
        self._pending_requests = {}
        self._pending_cancels = set()
        self._foreign_jobs = {}
        self._unacked = {}
        self._commits = {}
        self._intents = {}
        self._inflight.clear()
        self._retry_after.clear()
        self._offers.clear()
        self._committing.clear()
        self._inbound_pending = 0
        self._reconcile_wake = None
        self._reconcile_kicked = False
        self._pass_running = False
        self._pushed_digest.clear()
        self._pushed_at.clear()
        self._pushed_balance.clear()
        self._scan_version = -1
        # Volatile chain-gossip floors die with the process; the chain
        # view, trust state, and active misbehavior modes are durable
        # operator state (the peers' replies rebuild the floors).
        self._chain_acked.clear()
        self._byz_proc = None
        self.platform.events.emit("gateway-crashed", site=self.site)

    def restart(self) -> None:
        """Bring the gateway back: recover the vault, replay the books.

        Raises :class:`~repro.errors.SnapshotVersionError` (and stays
        down) when the persisted snapshot carries an incompatible
        layout version — the operator discards it and restarts cold
        rather than let misread state break exactly-once.
        """
        if not self._crashed:
            return
        snap = self.vault.load("gateway") if self.vault is not None else None
        if snap is not None and snap.version != GATEWAY_SNAPSHOT_VERSION:
            raise SnapshotVersionError(
                f"gateway {self.site}: snapshot version {snap.version} "
                f"(expected {GATEWAY_SNAPSHOT_VERSION})")
        self._crashed = False
        self.restarts += 1
        if snap is not None:
            self.delegations = dict(snap.delegations)
            self._pending_requests = dict(snap.pending_requests)
            self._pending_cancels = set(snap.pending_cancels)
            self._unacked = dict(snap.unacked)
            self._commits = dict(snap.commits)
            self._foreign_jobs = dict(snap.foreign_jobs)
            self._intents = dict(snap.intents)
            self._token_seq = snap.token_seq
            counters = snap.counters
            self.forwarded_out = int(counters.get("forwarded_out", 0))
            self.forwarded_in = int(counters.get("forwarded_in", 0))
            self.relayed_out = int(counters.get("relayed_out", 0))
            self.declined = int(counters.get("declined", 0))
            self.gossip_rounds = int(counters.get("gossip_rounds", 0))
            self.wan_transfer_seconds = float(
                counters.get("wan_transfer_seconds", 0.0))
        self._bind_endpoint()
        self._start_loops()
        self.platform.events.emit("gateway-restarted", site=self.site,
                                  restarts=self.restarts)
        self._recover()

    def _recover(self) -> None:
        """Replay the books against what happened while we were down."""
        coordinator = self.platform.coordinator
        # 1. Classify crash-orphaned forward attempts from the
        #    write-ahead journal.
        intents, self._intents = self._intents, {}
        for job_id in sorted(intents):
            intent = intents[job_id]
            state = coordinator.jobs.get(job_id)
            if intent.claim_token is None:
                # Phase-1 crash: nothing durable happened at the peer
                # beyond an expiring lease — requeue locally, with the
                # usual decline backoff before the next forward try.
                self.platform.events.emit("job-forward-requeued",
                                          job_id=job_id,
                                          dest=intent.dest_site)
                if intent.request is not None and (
                        state is None
                        or state.status is not JobStatus.CANCELLED):
                    self._retry_after[job_id] = (
                        self.env.now + self.config.forward_retry_backoff)
                    coordinator.queue.push(intent.request)
                continue
            # Phase-2 crash: the commit may have landed.  Park the
            # delegation as unknown outcome; the probe resolves it.
            record = ForwardRecord(
                job_id=job_id, dest_site=intent.dest_site,
                forwarded_at=intent.started_at,
                payload_bytes=intent.payload_bytes,
                restore=intent.restore,
                claim_token=intent.claim_token,
                state=DelegationState.UNKNOWN,
                origin_site=intent.origin_site,
                upstream=intent.upstream,
                shipped_progress=intent.shipped_progress,
                trace=intent.trace,
            )
            self.delegations[job_id] = record
            if intent.request is not None:
                self._pending_requests[job_id] = intent.request
            self.platform.events.emit("job-forward-unknown",
                                      job_id=job_id,
                                      dest=intent.dest_site)
        # 2. Settle hosted foreign jobs that reached a terminal state
        #    while the gateway was down (their completion events fired
        #    into a dead subscriber).
        for job_id in sorted(self._foreign_jobs):
            state = coordinator.jobs.get(job_id)
            if state is None:
                continue
            if state.status is JobStatus.CANCELLED:
                entry = self._foreign_jobs.pop(job_id)
                self._settle_foreign_cancellation(job_id, entry, state)
            elif state.is_done:
                entry = self._foreign_jobs.pop(job_id)
                self._settle_foreign_completion(job_id, entry)
        # 3. Cancellations requested while down exist only as
        #    CANCELLED job states; re-derive the pending set.
        for job_id, record in self.delegations.items():
            if record.state in (DelegationState.COMMITTED,
                                DelegationState.UNKNOWN):
                state = coordinator.jobs.get(job_id)
                if state is not None and state.status is JobStatus.CANCELLED:
                    self._pending_cancels.add(job_id)
        self._checkpoint()
        self._kick_reconcile()

    # -- introspection ----------------------------------------------------

    @property
    def hosted_foreign_count(self) -> int:
        """Foreign jobs currently hosted (not yet completed)."""
        return len(self._foreign_jobs)

    @property
    def unresolved_delegations(self) -> int:
        """Delegations parked as unknown outcome (partition pending)."""
        return sum(1 for record in self.delegations.values()
                   if record.state is DelegationState.UNKNOWN)

    @property
    def pending_cancel_count(self) -> int:
        """Cancellations awaiting cross-WAN delivery."""
        return len(self._pending_cancels)

    @property
    def unacked_completion_count(self) -> int:
        """Completion notices the origin has not acknowledged yet."""
        return len(self._unacked)
