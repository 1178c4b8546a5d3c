"""Coordinator-side request and record types.

These are the payloads that move through the dispatch queue and over
the RPC layer: resource requests (training jobs, interactive sessions)
and the placement decisions the scheduler produces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

from ..workloads.interactive import InteractiveSessionSpec
from ..workloads.training import TrainingJobSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..observability.trace import TraceContext

_request_seq = itertools.count(1)


class RequestKind(Enum):
    """What kind of workload a resource request carries."""

    TRAINING = "training"
    INTERACTIVE = "interactive"


@dataclass(frozen=True, slots=True)
class ResourceRequest:
    """One entry in the central pending-request priority queue (§3.5)."""

    kind: RequestKind
    training: Optional[TrainingJobSpec] = None
    session: Optional[InteractiveSessionSpec] = None
    priority: int = 5
    seq: int = field(default_factory=lambda: next(_request_seq))
    restore: bool = False  # relaunch from checkpoint (migration path)
    exclude_nodes: FrozenSet[str] = frozenset()
    preferred_node: Optional[str] = None  # migrate-back target
    enqueued_at: float = 0.0
    #: Migration relaunches may squeeze onto a partially-used card
    #: (temporary co-location) instead of waiting for a fully free one.
    allow_shared: bool = False
    #: Federation provenance: the campus where the workload was
    #: originally submitted, when it was forwarded here over the WAN.
    #: ``None`` for locally-submitted work.
    origin_site: Optional[str] = None
    #: How many times federation gateways forwarded this request
    #: between sites (hop budget for multi-hop relaying).
    forward_hops: int = 0
    #: Every site the request passed through on its way here, in
    #: order, starting with the true origin — empty for local work.
    #: Relay forwarding excludes these sites, so a multi-hop forward
    #: never loops.
    relay_path: Tuple[str, ...] = ()
    #: Causal-trace propagation: the span context this request's
    #: handling should parent under.  ``None`` when tracing is off —
    #: the golden-trace configuration.
    trace: Optional["TraceContext"] = None

    def __post_init__(self):
        if self.kind is RequestKind.TRAINING and self.training is None:
            raise ValueError("training request needs a TrainingJobSpec")
        if self.kind is RequestKind.INTERACTIVE and self.session is None:
            raise ValueError("interactive request needs a session spec")

    @property
    def is_foreign(self) -> bool:
        """Whether the workload was forwarded here from another campus."""
        return self.origin_site is not None

    @property
    def request_id(self) -> str:
        """Identifier of the underlying workload."""
        if self.kind is RequestKind.TRAINING:
            return self.training.job_id
        return self.session.session_id

    @property
    def gpu_memory_needed(self) -> float:
        """GPU memory the placement must provide (bytes)."""
        if self.kind is RequestKind.TRAINING:
            return self.training.model.gpu_memory
        return self.session.gpu_memory

    @property
    def exclusive(self) -> bool:
        """Whether the workload needs the whole GPU.

        Training saturates a card's compute (and frameworks grab memory
        greedily), so training placements are exclusive; interactive
        notebooks are bursty and may share a card with each other, and
        migration relaunches may temporarily co-locate (§4: displaced
        work resumes quickly rather than queueing for a free card).
        """
        return self.kind is RequestKind.TRAINING and not self.allow_shared

    @property
    def min_capability(self) -> Tuple[int, int]:
        """Minimum CUDA compute capability required."""
        if self.kind is RequestKind.TRAINING:
            return self.training.model.min_compute_capability
        return (7, 0)

    def sort_key(self) -> Tuple[int, int]:
        """Priority-queue ordering: priority class, then FIFO."""
        return (self.priority, self.seq)


@dataclass(frozen=True, slots=True)
class Placement:
    """A scheduling decision: which node and GPU take a request."""

    node_id: str
    hostname: str
    gpu_uuid: str
