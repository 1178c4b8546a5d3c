"""Control-plane chaos: coordinator/gateway crashes as protocol chaos.

The WAN-partition suite kills *links* at adversarial moments; this one
kills the control-plane *processes* themselves — the leading
coordinator replica mid-dispatch, the federation gateway mid-handshake
— at every phase of the two-phase forward protocol, and checks the
same invariants the partition suite pins: every job executes exactly
once federation-wide, the credit ledger conserves, no reconciliation
work is stranded, and (with tracing on) no span is orphaned by a
crash-straddled operation.

Gateway recovery is snapshot-based: the durable books (delegations,
pending cancels, unacked notices, the claim-token idempotency table,
hosted foreign jobs, and the write-ahead forward-intent journal) come
back from a :class:`~repro.storage.StateVault`; a phase-1 intent is
requeued, a phase-2 intent is parked as unknown outcome and resolved
by the idempotent ``forward-status`` probe.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.agent import BehaviorProfile
from repro.core.failover import FailoverConfig
from repro.core.faults import ControlPlaneCrash, LinkOutage
from repro.errors import SnapshotVersionError
from repro.federation import (
    DelegationState,
    FederatedDeployment,
    FederationConfig,
    GatewaySnapshot,
)
from repro.gpu.specs import RTX_3090, RTX_4090
from repro.units import HOUR, MINUTE
from repro.workloads.models import RESNET50
from repro.workloads.training import JobStatus, TrainingJobSpec, next_job_id


def _pair(seed=3, trace=False, south_gpus=2, **config_kwargs):
    """Two campuses with failover enabled on both control planes."""
    fed = FederatedDeployment(
        seed=seed, trace=trace,
        federation_config=FederationConfig(**config_kwargs))
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("n-ws1", [RTX_3090], lab="vision")
    south.platform.add_provider("s-farm", [RTX_4090] * south_gpus,
                                lab="infra")
    fed.enable_failover()
    return fed, north, south


def _job(compute=1 * HOUR, **kwargs):
    return TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=compute, **kwargs)


def _run_until(fed, condition, step, limit):
    """Deterministically step the sim until ``condition()`` holds."""
    while not condition() and fed.env.now < limit:
        fed.run(until=fed.env.now + step)
    assert condition(), f"condition never held by t={fed.env.now}"


def _completions(fed, job_id):
    return sum(
        1 for handle in fed.sites.values()
        for event in handle.platform.events.of_kind("job-completed")
        if event.payload.get("job_id") == job_id
    )


def _forced_forward(fed, north, victim_compute=30 * MINUTE):
    """A blocker pinning north's only card and a victim that must
    cross the WAN.  Returns (blocker, victim)."""
    fed.run(until=fed.env.now + 100)
    blocker = north.platform.submit_job(_job(compute=8 * HOUR))
    fed.run(until=fed.env.now + 100)
    victim = north.platform.submit_job(_job(compute=victim_compute))
    return blocker, victim


def _assert_invariants(fed, jobs):
    """The chaos contract: exactly-once, nothing lost, books balanced."""
    for job in jobs:
        assert job.status is JobStatus.COMPLETED, (
            f"{job.job_id} lost (status {job.status})")
        assert _completions(fed, job.job_id) == 1, job.job_id
    assert fed.duplicate_executions() == []
    assert fed.unresolved_count() == 0
    assert abs(fed.ledger.total()) < 1e-6
    if fed.tracer is not None:
        assert fed.tracer.orphans() == []


# -- the phase matrix: kill a gateway at every protocol phase ---------------

PHASES = ("offer", "claim", "commit", "completion-notice", "settle")
SEEDS = (7, 19, 23)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("phase", PHASES)
def test_gateway_crash_at_every_protocol_phase(phase, seed):
    """Crash the gateway owning each phase of the forward protocol —
    origin side for offer/claim, host side for commit, completion
    notice, and settlement — then restart it and demand the full
    chaos contract."""
    fed, north, south = _pair(seed=seed, trace=True)
    blocker, victim = _forced_forward(fed, north)
    job_id = victim.job_id
    origin, host = north.gateway, south.gateway

    if phase == "offer":
        # Intent journaled, no claim token yet: the handshake is in
        # phase 1 and nothing durable exists at the host.
        target, downtime = origin, 120.0
        cond = (lambda: job_id in origin._intents
                and origin._intents[job_id].claim_token is None)
    elif phase == "claim":
        # Token granted, commit not yet concluded: the crash must park
        # the delegation as unknown, never requeue it blindly.
        target, downtime = origin, 120.0
        cond = (lambda: job_id in origin._intents
                and origin._intents[job_id].claim_token is not None)
    elif phase == "commit":
        # The host is mid-commit (payload pull running).
        target, downtime = host, 120.0
        cond = lambda: job_id in host._committing
    elif phase == "completion-notice":
        # Sever the WAN so the completion notice parks unacked, then
        # kill the host holding it.
        target, downtime = host, 120.0
        _run_until(fed, lambda: job_id in host._foreign_jobs,
                   step=1.0, limit=4 * HOUR)
        fed.sever("north", "south")
        cond = lambda: job_id in host._unacked
    else:  # settle
        # The foreign job is running; the gateway dies and stays dead
        # across the completion, so settlement happens in recovery.
        target, downtime = host, 2 * HOUR
        cond = (lambda: job_id in host._foreign_jobs
                and south.coordinator.jobs.get(job_id) is not None
                and south.coordinator.jobs[job_id].status
                is JobStatus.RUNNING)

    step = 1.0 if phase in ("completion-notice", "settle") else 0.01
    _run_until(fed, cond, step=step, limit=4 * HOUR)
    target.crash()
    fed.run(until=fed.env.now + downtime)
    target.restart()
    if phase == "completion-notice":
        fed.heal("north", "south")
    fed.run(until=36 * HOUR)

    assert target.restarts == 1
    assert fed.total_forwarded() >= 1
    _assert_invariants(fed, [blocker, victim])


def test_phase1_crash_requeues_from_the_intent_journal():
    """The write-ahead intent without a token classifies as a safe
    requeue — pinned explicitly (the matrix above only demands the
    end-state)."""
    fed, north, south = _pair(seed=7)
    blocker, victim = _forced_forward(fed, north)
    origin = north.gateway
    _run_until(fed, lambda: victim.job_id in origin._intents
               and origin._intents[victim.job_id].claim_token is None,
               step=0.01, limit=2 * HOUR)
    origin.crash()
    fed.run(until=fed.env.now + 60)
    origin.restart()
    assert north.platform.events.count("job-forward-requeued") == 1
    assert victim.job_id not in origin.delegations
    fed.run(until=36 * HOUR)
    _assert_invariants(fed, [blocker, victim])


def test_phase2_crash_parks_unknown_and_probes():
    """An intent carrying a claim token must come back as an UNKNOWN
    delegation resolved by probe — never a blind requeue (the
    double-schedule bug)."""
    fed, north, south = _pair(seed=7)
    blocker, victim = _forced_forward(fed, north)
    origin = north.gateway
    _run_until(fed, lambda: victim.job_id in origin._intents
               and origin._intents[victim.job_id].claim_token is not None,
               step=0.01, limit=2 * HOUR)
    origin.crash()
    fed.run(until=fed.env.now + 60)
    origin.restart()
    assert north.platform.events.count("job-forward-unknown") == 1
    record = origin.delegations[victim.job_id]
    assert record.state is DelegationState.UNKNOWN
    assert record.claim_token
    fed.run(until=36 * HOUR)
    _assert_invariants(fed, [blocker, victim])


# -- coordinator death inside the claim→commit-ack window -------------------

@pytest.mark.parametrize("side", ("north", "south"))
@pytest.mark.parametrize("point", ("after-claim", "before-commit-ack"))
def test_coordinator_death_in_claim_commit_window(side, point):
    """The deterministic regression: the leading coordinator replica —
    on either side of the WAN — dies between the claim token being
    granted and the commit acknowledgement landing.  The handshake
    (gateway-owned) must neither double-schedule nor lose the job."""
    fed, north, south = _pair(seed=11)
    blocker, victim = _forced_forward(fed, north, victim_compute=1 * HOUR)
    origin = north.gateway
    if point == "after-claim":
        cond = (lambda: victim.job_id in origin._intents
                and origin._intents[victim.job_id].claim_token is not None)
    else:
        # The host accepted the commit and is importing; the ack has
        # not reached the origin yet.
        cond = lambda: victim.job_id in south.gateway._committing
    _run_until(fed, cond, step=0.01, limit=2 * HOUR)
    ha = fed.failover[side]
    assert ha.crash() == "a"
    fed.run(until=36 * HOUR)
    assert ha.takeovers == 1
    assert ha.epoch == 2
    _assert_invariants(fed, [blocker, victim])


# -- gateway snapshot round-trip edges --------------------------------------

def test_snapshot_roundtrip_with_empty_books():
    """Crash/restart before any federation traffic: the snapshot holds
    empty tables, the ledger stays empty, and the reborn gateway still
    forwards (endpoint rebound, loops restarted, token sequence
    preserved)."""
    fed, north, south = _pair(seed=5)
    fed.run(until=300)
    gateway = north.gateway
    assert gateway.vault.writes >= 1
    seq_before = gateway._token_seq
    gateway.crash()
    fed.run(until=fed.env.now + 60)
    gateway.restart()
    assert gateway.restarts == 1
    assert gateway._token_seq == seq_before
    assert all(balance == 0.0 for balance in fed.ledger.balances().values())
    assert fed.ledger.total() == 0.0
    blocker, victim = _forced_forward(fed, north)
    fed.run(until=24 * HOUR)
    assert north.gateway.forwarded_out == 1
    _assert_invariants(fed, [blocker, victim])


def test_snapshot_roundtrip_preserves_inflight_relay_fees():
    """A relay gateway dies while the job it relayed onward is still
    running two hops away: its relay-leg record (the provenance the
    fee settles against) must survive the restart, so the fee still
    lands when the chained completion notice arrives."""
    fed = FederatedDeployment(
        seed=5, federation_config=FederationConfig(max_forward_hops=2))
    alpha = fed.add_campus("alpha")
    bravo = fed.add_campus("bravo")
    charlie = fed.add_campus("charlie")
    fed.connect("alpha", "bravo")
    fed.connect("bravo", "charlie")
    alpha.platform.add_provider("a-ws", [RTX_3090], lab="vision")
    bravo.platform.add_provider("b-ws", [RTX_3090], lab="nlp")
    charlie.platform.add_provider("c-farm", [RTX_4090] * 2, lab="infra")
    fed.enable_failover()
    # The saturated-middle race: bravo accepts alpha's surplus, loses
    # its own card to a local submission, and relays to charlie.
    fed.run(until=100)
    local = alpha.platform.submit_job(_job(compute=4 * HOUR))
    surplus = alpha.platform.submit_job(_job(compute=1 * HOUR))
    fed.run(until=101)
    home = bravo.platform.submit_job(_job(compute=4 * HOUR))
    _run_until(fed, lambda: surplus.job_id in charlie.gateway._foreign_jobs,
               step=10.0, limit=6 * HOUR)
    assert bravo.gateway.relayed_out == 1
    # The relay's books die with it...
    bravo.gateway.crash()
    fed.run(until=fed.env.now + 5 * MINUTE)
    bravo.gateway.restart()
    # ...and come back: the onward delegation record still exists.
    assert surplus.job_id in bravo.gateway.delegations
    assert bravo.gateway.relayed_out == 1
    fed.run(until=24 * HOUR)
    fee = 1.0 * fed.federation_config.relay_fee_fraction
    assert fed.ledger.relay_fees_earned("bravo") == pytest.approx(fee)
    assert fed.ledger.balance("charlie") == pytest.approx(1.0)
    _assert_invariants(fed, [local, surplus, home])


def test_snapshot_roundtrip_preserves_pending_cross_wan_cancel():
    """A cancel for a delegated job issued while the WAN is down is
    durable only as a CANCELLED job state: the restarted gateway must
    re-derive the pending cancel set and deliver it after heal."""
    fed, north, south = _pair(seed=5)
    blocker, victim = _forced_forward(fed, north, victim_compute=4 * HOUR)
    _run_until(fed, lambda: south.coordinator.jobs.get(victim.job_id)
               is not None and south.coordinator.jobs[victim.job_id].status
               is JobStatus.RUNNING, step=10.0, limit=4 * HOUR)
    fed.sever("north", "south")
    north.coordinator.cancel_job(victim.job_id)
    fed.run(until=fed.env.now + 60)
    assert north.gateway.pending_cancel_count == 1
    north.gateway.crash()
    fed.run(until=fed.env.now + 60)
    north.gateway.restart()
    assert north.gateway.pending_cancel_count == 1
    fed.heal("north", "south")
    fed.run(until=24 * HOUR)
    assert victim.status is JobStatus.CANCELLED
    assert south.coordinator.jobs[victim.job_id].status \
        is JobStatus.CANCELLED
    assert south.platform.events.count("foreign-job-cancelled") == 1
    assert fed.unresolved_count() == 0
    assert abs(fed.ledger.total()) < 1e-6
    assert blocker.status is JobStatus.COMPLETED


def test_snapshot_version_mismatch_rejected_then_cold_restart():
    """An incompatible snapshot layout must fail the restart loudly
    (the gateway stays down for forensics) — and discarding it permits
    a clean cold start."""
    fed, north, south = _pair(seed=5)
    fed.run(until=300)
    gateway = north.gateway
    gateway.crash()
    gateway.vault.store(
        "gateway",
        GatewaySnapshot(site="north", taken_at=0.0, version=999),
        512.0)
    with pytest.raises(SnapshotVersionError):
        gateway.restart()
    assert gateway.is_crashed
    assert gateway.restarts == 0
    gateway.vault.discard("gateway")
    gateway.restart()
    assert not gateway.is_crashed
    assert gateway.restarts == 1
    blocker, victim = _forced_forward(fed, north)
    fed.run(until=24 * HOUR)
    _assert_invariants(fed, [blocker, victim])


# -- randomized chaos: crashes × partitions × churn -------------------------

CHAOS_SEEDS = (7, 19, 23)


def _random_partitions(rng, pairs, chaos_until):
    outages = []
    for a, b in pairs:
        at = rng.uniform(5 * MINUTE, 30 * MINUTE)
        while at < chaos_until:
            duration = min(rng.uniform(3 * MINUTE, 20 * MINUTE),
                           chaos_until - at)
            outages.append(LinkOutage(a, b, at, duration))
            at += duration + rng.uniform(10 * MINUTE, 60 * MINUTE)
    return outages


def _random_crashes(rng, victims, chaos_until):
    crashes = []
    for site, component in victims:
        at = rng.uniform(10 * MINUTE, 45 * MINUTE)
        while at < chaos_until:
            downtime = min(rng.uniform(2 * MINUTE, 12 * MINUTE),
                           chaos_until - at)
            crashes.append(ControlPlaneCrash(site, component, at, downtime))
            at += downtime + rng.uniform(30 * MINUTE, 90 * MINUTE)
    return crashes


def _chaos_run(seed):
    rng = random.Random(seed)
    fed = FederatedDeployment(
        seed=seed, trace=True,
        federation_config=FederationConfig(
            max_forward_hops=2,
            gossip_interval_min=15.0,
            admission_headroom_horizon=30 * MINUTE,
        ))
    alpha = fed.add_campus("alpha")
    bravo = fed.add_campus("bravo")
    charlie = fed.add_campus("charlie")
    fed.connect("alpha", "bravo")
    fed.connect("bravo", "charlie")
    alpha.platform.add_provider("a-ws", [RTX_3090], lab="vision")
    bravo.platform.add_provider("b-ws1", [RTX_3090], lab="nlp")
    bravo.platform.add_provider("b-ws2", [RTX_3090], lab="nlp")
    charlie.platform.add_provider("c-farm", [RTX_4090] * 3, lab="infra")
    churn = BehaviorProfile(
        events_per_day=4.0,
        p_scheduled=0.3, p_emergency=0.3, p_temporary=0.4,
        mean_temporary_downtime=40 * MINUTE,
        mean_rejoin_delay=30 * MINUTE,
    )
    bravo.platform.add_behavior("b-ws1", churn)
    bravo.platform.add_behavior("b-ws2", churn)
    fed.enable_failover(FailoverConfig())

    chaos_until = 8 * HOUR
    partitions = _random_partitions(
        rng, [("alpha", "bravo"), ("bravo", "charlie")], chaos_until)
    fed.inject(partitions)
    crashes = _random_crashes(
        rng,
        [("alpha", "coordinator"), ("bravo", "coordinator"),
         ("bravo", "gateway"), ("charlie", "gateway")],
        chaos_until)
    fed.inject(crashes)

    jobs = []

    def feeder(env, handle, count, mean_gap):
        for index in range(count):
            yield env.timeout(rng.expovariate(1.0 / mean_gap))
            jobs.append(handle.platform.submit_job(TrainingJobSpec(
                job_id=next_job_id(), model=RESNET50,
                total_compute=rng.uniform(0.5 * HOUR, 2 * HOUR),
                checkpoint_interval=8 * MINUTE,
            )))

    fed.env.process(feeder(fed.env, alpha, 12, 30 * MINUTE))
    fed.env.process(feeder(fed.env, bravo, 4, 90 * MINUTE))
    fed.env.process(feeder(fed.env, charlie, 2, 2 * HOUR))
    fed.run(until=40 * HOUR)
    return fed, jobs, partitions, crashes


@pytest.fixture(scope="module", params=CHAOS_SEEDS)
def chaos(request):
    return _chaos_run(request.param)


def test_chaos_exactly_once_and_nothing_lost(chaos):
    fed, jobs, _, _ = chaos
    completions = fed.completion_counts()
    for job in jobs:
        assert job.is_done, f"{job.job_id} lost (status {job.status})"
        assert job.status is JobStatus.COMPLETED
        assert completions.get(job.job_id, 0) == 1, job.job_id
    assert fed.duplicate_executions() == []


def test_chaos_reconciliation_drains_and_ledger_conserves(chaos):
    fed, jobs, _, _ = chaos
    assert fed.unresolved_count() == 0
    assert abs(fed.ledger.total()) < 1e-6
    for handle in fed.sites.values():
        assert handle.gateway.unresolved_delegations == 0
        assert handle.gateway.unacked_completion_count == 0
        assert not handle.gateway._intents


def test_chaos_traces_stay_orphan_free(chaos):
    """A crash mid-operation must never detach a span from its tree —
    the write-ahead intent carries the forward span across a gateway
    restart, and takeover swaps the HA epoch root before resync."""
    fed, jobs, _, _ = chaos
    tracer = fed.tracer
    assert tracer.orphans() == []
    for trace_id in tracer.trace_ids():
        assert tracer.orphans(trace_id) == []


def test_chaos_actually_engaged_the_machinery(chaos):
    """A chaos run whose schedule never killed anything mid-flight
    proves nothing: pin the mix."""
    fed, jobs, partitions, crashes = chaos
    assert partitions
    assert crashes
    takeovers = sum(ha.takeovers for ha in fed.failover.values())
    restarts = sum(h.gateway.restarts for h in fed.sites.values())
    assert takeovers > 0
    assert restarts > 0
    assert fed.total_forwarded() > 0


# -- property: exactly-once under arbitrary crash points --------------------

@given(
    start=st.floats(min_value=150.0, max_value=5400.0),
    downtime=st.floats(min_value=30.0, max_value=900.0),
    victim=st.sampled_from([
        ("north", "gateway"), ("south", "gateway"),
        ("north", "coordinator"), ("south", "coordinator"),
    ]),
)
@settings(max_examples=12, deadline=None)
def test_any_crash_point_preserves_exactly_once(start, downtime, victim):
    """One crash window anywhere in (or after) the forward protocol —
    either component, either side — never loses or duplicates the
    forwarded job, and the books always drain."""
    site, component = victim
    fed, north, south = _pair(seed=17)
    blocker, job = _forced_forward(fed, north, victim_compute=1 * HOUR)
    fed.inject([ControlPlaneCrash(site, component, start, downtime)])
    fed.run(until=36 * HOUR)
    _assert_invariants(fed, [blocker, job])
