"""Exception hierarchy for the GPUnion platform.

Every error raised by platform components derives from
:class:`GPUnionError`, so callers can catch the whole family or a
specific subsystem's failures.
"""

from __future__ import annotations


class GPUnionError(Exception):
    """Base class for all GPUnion platform errors."""


class RegistrationError(GPUnionError):
    """Node registration or authentication failed."""


class AuthenticationError(RegistrationError):
    """A request carried a missing, unknown, or revoked auth token."""


class SchedulingError(GPUnionError):
    """The scheduler could not produce a valid placement."""


class DispatchError(GPUnionError):
    """Launching a workload on a provider node failed."""


class ImageVerificationError(DispatchError):
    """Container image digest mismatch or untrusted base image."""


class ContainerError(GPUnionError):
    """Container runtime operation failed."""


class InvalidTransitionError(ContainerError):
    """A container lifecycle verb was applied in the wrong state."""


class GpuAllocationError(ContainerError):
    """Requested GPU memory/devices could not be allocated."""


class CheckpointError(GPUnionError):
    """Creating, storing, or restoring a checkpoint failed."""


class CheckpointNotFoundError(CheckpointError):
    """No checkpoint exists for the requested job."""


class CriuUnsupportedError(CheckpointError):
    """The CRIU baseline cannot checkpoint this workload (e.g. CUDA)."""


class StorageError(GPUnionError):
    """Data store or distributed file system operation failed."""


class SnapshotVersionError(StorageError):
    """A persisted control-plane snapshot carries an incompatible
    format version.

    Recovery must reject it rather than guess: installing state whose
    layout the running code misreads is how exactly-once guarantees
    die silently.  The operator keeps the snapshot for forensics and
    the gateway comes up cold (every delegation resolves through
    ``forward-status`` probes instead)."""


class NetworkError(GPUnionError):
    """A network transfer or RPC failed (peer gone, link down)."""


class WanPartitionError(NetworkError):
    """A WAN route is severed: the sites exist and were once connected,
    but every path between them currently crosses a failed link.

    Distinct from the generic :class:`NetworkError` so federation
    gateways can tell "the peer is partitioned (retry on heal)" from
    "the call itself was malformed / the peer never existed"."""


class RpcTimeoutError(NetworkError):
    """An RPC did not complete within the caller's deadline.

    The outcome at the remote side is *unknown*: the request may never
    have arrived, or the handler may have committed and only the
    response leg was lost.  Callers must reconcile (query the remote
    side) before retrying non-idempotent work."""
