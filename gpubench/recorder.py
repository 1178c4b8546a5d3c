"""The traced-run recorder: per-layer counts, busy time and spans.

Everything here observes a run from the outside, through public
surfaces only:

* :class:`LayerRecorder` is a :class:`repro.observability.KernelHooks`
  subclass attached with ``env.hooks = recorder``.  The kernel reports
  each dispatch's wall time (``on_dispatch``), each queue push
  (``on_schedule``) and each max-min recomputation
  (``on_reallocate``).
* ``env.step`` is wrapped on the instance so the recorder can name the
  *owner* of the item about to fire before it fires: the module of the
  process generator (or callback) the item resumes.  Once an event has
  fired its callback list is gone, so this cannot be done afterwards.
* :meth:`LayerRecorder.wrap` replaces one bound method on one object
  with a timed wrapper that opens a span.

Spans are ``(name, start, end, parent)`` tuples kept in memory and
written out by :meth:`LayerRecorder.write_spans` when the run ends.
A span's self time is its duration minus the time its child spans
cover.  Dispatches are spans too (named ``dispatch:<layer>``), so the
self times of every span plus the root add up to the root's duration:
``sim.self_s`` is the part of the run spent in the kernel itself
(heap operations, the run loop, hook overhead) rather than in any
dispatched item or wrapped call.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability.hooks import KernelHooks

#: Spans kept in memory per run; beyond this they are counted, not kept
#: (a campus week dispatches ~300k items).
MAX_SPANS = 1_000_000

#: ``repro`` sub-packages that own dispatched items, reported as
#: ``<layer>.busy_s``.  Dispatches owned by the benchmark's own feeders
#: land in ``bench``; any other owner lands in ``other``, which no
#: metric reports, so ``trace.accounted_s`` falls short of the wall.
LAYERS = (
    "agent", "checkpoint", "containers", "core", "experiments",
    "federation", "network", "scenarios", "sim", "storage",
)

#: Generator functions whose dispatch self time is reported on its own:
#: ``(module, function) → metric``.  Checkpoint capture/replicate/
#: restore return a process at once; their work runs in later
#: dispatches of these generators.
GENERATOR_METRICS = {
    ("repro.checkpoint.alc", "_replicate"): "checkpoint.replicate_busy_s",
}


def _module_layer(module: Optional[str]) -> str:
    if not module:
        return "sim"
    parts = module.split(".")
    if parts[0] != "repro":
        return "bench"
    if len(parts) < 2:
        return "other"
    return parts[1] if parts[1] in LAYERS else "other"


class _Frame:
    __slots__ = ("name", "start", "child", "index")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index


class LayerRecorder(KernelHooks):
    """Kernel hooks plus call wrappers that attribute host time to layers.

    Use::

        recorder = LayerRecorder()
        recorder.attach(env)            # hooks + owner-resolving step
        recorder.wrap(store, "add", "storage.store_add")
        with recorder.span("sim.run"):
            env.run(until=horizon)
        recorder.layer_busy()           # dispatch self time by layer
        recorder.busy("storage.store_add"), recorder.calls

    The recorder is single-threaded by design; in the HTTP server every
    wrapped call runs under the server's simulation lock, which
    serialises them.
    """

    def __init__(self):
        self.events = 0
        self.queue_max = 0
        self.reallocations = 0
        self.realloc_busy_s = 0.0
        self.flows_touched = 0
        self.component_max = 0
        self.calls: Dict[str, int] = {}
        self.self_time: Dict[str, float] = {}
        self.generator_time: Dict[str, float] = {}
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.spans_dropped = 0
        self._stack: List[_Frame] = []
        self._owner = "sim"
        self._owner_fn: Optional[Tuple[str, str]] = None
        self._names: Dict[Any, Tuple[str, Optional[Tuple[str, str]]]] = {}

    # -- kernel hooks -------------------------------------------------------

    def on_schedule(self, when: float, now: float, qsize: int) -> None:
        if qsize > self.queue_max:
            self.queue_max = qsize

    def on_dispatch(self, item: Any, now: float, wall_seconds: float,
                    qsize: int) -> None:
        # The fire itself: the step wrapper's frame is on top, and any
        # wrapped call or reallocation inside the fire already added
        # its duration to that frame's child time.
        self.events += 1
        frame = self._stack[-1]
        self_s = wall_seconds - frame.child
        self._add_self(f"dispatch:{self._owner}", self_s)
        metric = GENERATOR_METRICS.get(self._owner_fn)
        if metric is not None:
            self.generator_time[metric] = (
                self.generator_time.get(metric, 0.0) + self_s)
        # What remains of the step (heap pop, this hook) is kernel time.
        frame.child += self_s

    def on_reallocate(self, component_flows: int, links: int,
                      wall_seconds: float) -> None:
        self.reallocations += 1
        self.realloc_busy_s += wall_seconds
        self.flows_touched += component_flows
        if component_flows > self.component_max:
            self.component_max = component_flows
        if self._stack:
            self._stack[-1].child += wall_seconds

    # -- owner resolution --------------------------------------------------

    def _resolve(self, item: Any) -> Tuple[str, Optional[Tuple[str, str]]]:
        """Layer (and generator function) that firing ``item`` runs."""
        target = getattr(item, "fn", None)  # a bare scheduled callback
        if target is None:
            callbacks = getattr(item, "callbacks", None)
            if callbacks:
                target = callbacks[0]
            else:
                generator = getattr(item, "generator", None)
                if generator is None:
                    return "sim", None
                return self._generator_owner(generator)
        owner = getattr(target, "__self__", None)
        generator = getattr(owner, "generator", None)
        if generator is not None:  # Process._resume of a process
            return self._generator_owner(generator)
        if owner is not None:
            return _module_layer(type(owner).__module__), None
        return _module_layer(getattr(target, "__module__", None)), None

    def _generator_owner(self, generator
                         ) -> Tuple[str, Optional[Tuple[str, str]]]:
        code = getattr(generator, "gi_code", None)
        cached = self._names.get(code)
        if cached is None:
            frame = getattr(generator, "gi_frame", None)
            module = (frame.f_globals.get("__name__")
                      if frame is not None else None)
            function = code.co_name if code is not None else ""
            cached = (_module_layer(module), (module or "", function))
            if code is not None and frame is not None:
                self._names[code] = cached
        return cached

    def attach(self, env) -> None:
        """Attach as ``env.hooks`` and wrap ``env.step`` on the instance."""
        env.hooks = self
        step = env.step
        queue = env._queue  # read-only peek at the next item to fire

        def traced_step() -> None:
            if queue:
                self._owner, self._owner_fn = self._resolve(queue[0][2])
            else:
                self._owner, self._owner_fn = "sim", None
            self._enter("dispatch")
            try:
                step()
            finally:
                self._leave(rename=f"dispatch:{self._owner}",
                            count_self=False)

        env.step = traced_step

    # -- spans --------------------------------------------------------------

    def _add_self(self, name: str, seconds: float) -> None:
        self.self_time[name] = self.self_time.get(name, 0.0) + seconds

    def _enter(self, name: str) -> _Frame:
        # The span's slot is taken on entry, so a parent's index is
        # known to the children that close before it does.
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.spans_dropped += 1
        frame = _Frame(name, perf_counter(), index)
        self._stack.append(frame)
        return frame

    def _leave(self, rename: Optional[str] = None,
               count_self: bool = True) -> float:
        end = perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        name = rename or frame.name
        if count_self:
            self._add_self(name, duration - frame.child)
        else:
            # Dispatch frames: the fire's self time was booked by
            # on_dispatch; the rest of the step is kernel overhead.
            self._add_self("sim.kernel", duration - frame.child)
        parent = -1
        if self._stack:
            self._stack[-1].child += duration
            parent = self._stack[-1].index
        if frame.index >= 0:
            self.spans[frame.index] = (name, frame.start, end, parent)
        return duration

    def span(self, name: str) -> "_Span":
        """Context manager for one span: a run's root, or a section
        (one lock hold, one stepping chunk) that others nest under."""
        return _Span(self, name)

    def wrap(self, obj: Any, method: str, name: str,
             observe: Optional[Callable[[tuple, dict, Any], None]] = None,
             ) -> None:
        """Time every call of ``obj.method`` as a span called ``name``.

        ``observe(args, kwargs, result)`` runs after each call, outside
        the span, for counters that need the arguments or the result.
        """
        original: Callable = getattr(obj, method)
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(obj, method, wrapper)

    def busy(self, name: str) -> float:
        """Self time of every span named ``name``."""
        return self.self_time.get(name, 0.0)

    def layer_busy(self) -> Dict[str, float]:
        """Dispatch self time by owning layer (``<layer>.busy_s``)."""
        busy = {layer: 0.0 for layer in LAYERS + ("bench", "other")}
        for name, seconds in self.self_time.items():
            if name.startswith("dispatch:"):
                busy[name[len("dispatch:"):]] += seconds
        return busy

    def write_spans(self, path) -> None:
        """Write the kept spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is None:  # still open when the run ended
                    continue
                name, start, end, parent = span
                out.write(json.dumps({"id": index, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent}) + "\n")


class _Span:
    def __init__(self, recorder: LayerRecorder, name: str):
        self.recorder = recorder
        self.name = name
        self.duration = 0.0

    def __enter__(self) -> "_Span":
        self.recorder._enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.duration = self.recorder._leave()
