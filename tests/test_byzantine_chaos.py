"""Adversarial chaos: one Byzantine campus vs the verified federation.

Three-campus full mesh, ``charlie`` runs one misbehavior mode per run
(every mode × three seeds), the honest majority runs share-chain
verification.  The suite pins the detection matrix — which honest
observers can and must catch each lie — and the safety invariants
that hold regardless: no honest job lost, exactly-once execution,
ledger and per-view conservation, zero orphan spans.

Who can detect what (the assertion matrix):

========== =============================== ==========================
mode       detector                        evidence
========== =============================== ==========================
forge      every honest peer               ``unknown-job`` cross-check
replay     every honest peer               ``replay`` settled-key hit
free-ride  every honest peer               ``self-credit`` structure
under-bill every honest peer it charged    ``bad-signature`` tamper
over-bill  the defrauded beneficiary only  ``overbilled`` budget check
over-rep.  forwarding origins only         capacity-mismatch strikes
========== =============================== ==========================

Chain-visible lies (forge/replay/free-ride) are gossip-propagated and
demand-independent, so they carry a hard detection bound: every honest
observer must convict within ``DETECTION_ROUNDS_BOUND`` gossip rounds
of the misbehavior window opening.  The other modes need a settlement
or a forwarding attempt to surface, so the suite asserts detection
happened, not a round count.
"""

import pytest

from repro.core.faults import ByzantineWindow
from repro.federation import (
    FederatedDeployment,
    FederationConfig,
    TrustState,
)
from repro.gpu.specs import RTX_3090, RTX_4090
from repro.units import HOUR, MINUTE
from repro.workloads.models import RESNET50
from repro.workloads.training import JobStatus, TrainingJobSpec, next_job_id

BYZ = "charlie"
HONEST = ("alpha", "bravo")
MODES = ("forge", "replay", "free-ride",
         "under-bill", "over-bill", "over-report")
SEEDS = (7, 19, 23)
HORIZON = 14 * HOUR
#: Detection deadline for chain-visible modes, in gossip rounds —
#: mirrors the scenario runner's audit bound.
DETECTION_ROUNDS_BOUND = 10
CHAIN_VISIBLE = frozenset({"forge", "replay", "free-ride"})
#: ``replay`` only exercises the settled-key check if the adversary
#: has a *genuine accepted* entry to re-sign, so its window opens
#: after the first honest settlement; every other mode lies from t=0.
WINDOW_START = {"replay": 2 * HOUR}


def _job(compute):
    return TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=compute)


def _build(mode, seed, gpus):
    """Full-mesh verified federation with ``charlie`` adversarial."""
    fed = FederatedDeployment(
        seed=seed, trace=True,
        federation_config=FederationConfig(max_forward_hops=2,
                                           gossip_interval_min=15.0))
    handles = {}
    for name, cards in gpus.items():
        handles[name] = fed.add_campus(name)
        handles[name].platform.add_provider(f"{name}-node", cards,
                                            lab="chaos")
    names = list(gpus)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            fed.connect(a, b)
    fed.enable_ledger_verification()
    fed.inject([ByzantineWindow(
        BYZ, mode, start=WINDOW_START.get(mode, 0.0))])
    return fed, handles


def _run_chaos(mode, seed):
    """Per-mode topology + workload, run to the horizon.

    Each mode needs different traffic to surface: chain-visible lies
    need only honest bystanders (plus one genuine settlement so
    ``replay`` has something real to re-sign); billing lies need the
    adversary to host (over-bill) or be hosted (under-bill); capacity
    lies need surplus demand probing the adversary's phantom headroom.
    """
    jobs = []
    if mode in CHAIN_VISIBLE or mode == "over-bill":
        # Saturated honest campuses; surplus forwarded to the farm.
        fed, handles = _build(mode, seed, {
            "alpha": [RTX_3090], "bravo": [RTX_3090], BYZ: [RTX_4090] * 2})
        fed.run(until=100)
        jobs += [handles[site].platform.submit_job(_job(3 * HOUR))
                 for site in HONEST]
        fed.run(until=200)
        jobs += [handles["alpha"].platform.submit_job(_job(30 * MINUTE))
                 for _ in range(2)]
    elif mode == "under-bill":
        # The adversary's surplus runs at honest hosts, who then bill
        # it — the charges it will rewrite.
        fed, handles = _build(mode, seed, {
            "alpha": [RTX_4090] * 2, "bravo": [RTX_4090] * 2,
            BYZ: [RTX_3090]})
        fed.run(until=100)
        jobs.append(handles[BYZ].platform.submit_job(_job(3 * HOUR)))
        fed.run(until=200)
        jobs += [handles[BYZ].platform.submit_job(_job(30 * MINUTE))
                 for _ in range(2)]
    else:  # over-report
        # Everyone saturated; the phantom digest is the only "spare"
        # capacity, so every forward probes the lie.
        fed, handles = _build(mode, seed, {
            name: [RTX_3090] for name in (*HONEST, BYZ)})
        fed.run(until=100)
        jobs += [handles[name].platform.submit_job(_job(3 * HOUR))
                 for name in (*HONEST, BYZ)]
        fed.run(until=200)
        for _ in range(4):
            jobs += [handles[site].platform.submit_job(_job(15 * MINUTE))
                     for site in HONEST]
            fed.run(until=fed.env.now + 60)
    fed.run(until=HORIZON)
    return fed, jobs


@pytest.fixture(scope="module", params=[(mode, seed) for mode in MODES
                                        for seed in SEEDS],
                ids=lambda p: f"{p[0]}-s{p[1]}")
def chaos(request):
    mode, seed = request.param
    fed, jobs = _run_chaos(mode, seed)
    return mode, fed, jobs


def _detectors(mode):
    """Honest sites that *must* convict the adversary in this mode."""
    return ("alpha",) if mode == "over-bill" else HONEST


def test_honest_sites_detect_the_adversary(chaos):
    mode, fed, _jobs = chaos
    interval = fed.federation_config.gossip_interval
    start = WINDOW_START.get(mode, 0.0)
    for site in _detectors(mode):
        trust = fed.site(site).gateway.trust
        assert BYZ in trust.detected_at, \
            f"{site} never detected {BYZ} ({mode})"
        if mode in CHAIN_VISIBLE:
            rounds = (trust.detected_at[BYZ] - start) / interval
            assert rounds <= DETECTION_ROUNDS_BOUND, \
                f"{site} took {rounds:.1f} gossip rounds on {mode}"


def test_detection_was_for_cause(chaos):
    """Each mode leaves its signature rejection in the evidence log,
    and strict lies keep the adversary blocked at the horizon (it
    re-offends on probation, so the heal path ends in eviction)."""
    mode, fed, _jobs = chaos
    expected = {"forge": "unknown-job", "replay": "replay",
                "free-ride": "self-credit", "under-bill": "bad-signature",
                "over-bill": "overbilled"}
    if mode in expected:
        reason = expected[mode]
        assert any(
            fed.site(site).gateway.sharechain.rejected.get(reason, 0) > 0
            for site in _detectors(mode)), \
            f"no {reason!r} rejection recorded for {mode}"
    if mode in CHAIN_VISIBLE or mode == "under-bill":
        for site in _detectors(mode):
            trust = fed.site(site).gateway.trust
            assert trust.state(BYZ) in (TrustState.QUARANTINED,
                                        TrustState.EVICTED), \
                f"{site} let {BYZ} back in at the horizon ({mode})"


def test_no_honest_job_lost(chaos):
    """Every submitted job — including the adversary's own honest
    workload — completes exactly once despite the quarantine."""
    mode, fed, jobs = chaos
    counts = fed.completion_counts()
    for job in jobs:
        assert job.status is JobStatus.COMPLETED, \
            f"{job.job_id} ended {job.status} under {mode}"
        assert counts.get(job.job_id) == 1
    assert fed.duplicate_executions() == []
    assert fed.unresolved_count() == 0


def test_conservation_and_trace_hygiene(chaos):
    """Zero-sum holds in the ground-truth ledger and in every honest
    verified view; the adversary never nets more credit at a detecting
    site than it truly earned; span trees stay parented."""
    mode, fed, _jobs = chaos
    assert abs(fed.ledger.total()) < 1e-6
    for site in HONEST:
        chain = fed.site(site).gateway.sharechain
        assert abs(chain.view.total()) < 1e-6, \
            f"{site}'s verified view leaks credit under {mode}"
    for site in _detectors(mode):
        chain = fed.site(site).gateway.sharechain
        assert (chain.view.balance(BYZ)
                <= fed.ledger.balance(BYZ) + 1e-6), \
            f"{site} credited {BYZ} beyond its true donations ({mode})"
    assert fed.tracer.orphans() == []
