"""Per-layer host-time attribution, measured from outside the program.

A :class:`Tracer` replaces the public methods that form each layer's
boundary (``MemorySystem.access_fast``, ``ResultCache.get``, ...) with
timing wrappers for the duration of a ``with`` block, and puts every
original back on exit, exceptions included.  Nothing under ``src/`` knows
it is being traced.

Each wrapped call adds its duration to its parent's child time, so a
layer's *self time* is its wrapped time minus the time of the wrapped
calls it made.  The wrappers themselves cost time: :func:`calibrate`
measures the per-call cost of a wrapper, split into the part that lands
inside the callee's own interval (``c_in``) and the part that lands in the
caller's self time (``c_out``), and :meth:`Tracer.layer_totals` subtracts
``calls * c_in + child_calls * c_out`` from each layer.

Simulator layers see millions of calls per pass, so they are aggregated in
memory only.  Sweep layers see a few hundred, so with ``keep_spans`` every
call is also kept as a span (name, start, end, parent, spec digest).
"""

from __future__ import annotations

import gc
import importlib
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class LayerSpec(NamedTuple):
    """The boundary of one layer: methods of ``owner`` in ``module``
    (``owner`` None means module-level functions).  Every method must be
    defined on the owner itself, so a rename fails loudly instead of
    silently measuring nothing, and inherited defaults that the program
    compares by identity (``PrefetcherBase.on_fill``) are never touched."""

    layer: str
    module: str
    owner: Optional[str]
    methods: Tuple[str, ...]


SIM_LAYERS = (
    LayerSpec("core", "repro.sim.system", "System", ("run",)),
    LayerSpec("hierarchy", "repro.memory.hierarchy", "MemorySystem",
              ("access_fast", "issue_prefetch")),
    LayerSpec("cache", "repro.memory.cache", "Cache",
              ("access_fast", "access_hit", "fill_fast", "invalidate_fast")),
    LayerSpec("directory", "repro.memory.coherence", "Directory",
              ("read_fast", "write", "evict")),
    LayerSpec("noc", "repro.noc.mesh", "MeshNoC", ("send_fast",)),
    LayerSpec("dram", "repro.memory.dram", "SimpleDram", ("access",)),
    LayerSpec("dram", "repro.memory.dram", "BankedDram", ("access",)),
    LayerSpec("prefetchers", "repro.core.imp", "IMP",
              ("on_access", "on_eviction")),
    LayerSpec("prefetchers", "repro.prefetchers.stream", "StreamPrefetcher",
              ("on_access",)),
    LayerSpec("prefetchers", "repro.prefetchers.ghb", "GHBPrefetcher",
              ("on_access",)),
    LayerSpec("mem_image", "repro.mem_image", "MemoryImage", ("read_value",)),
)

SWEEP_LAYERS = (
    LayerSpec("dedupe", "repro.experiments.sweep", "RunSpec",
              ("for_run", "digest")),
    LayerSpec("cache_lookup", "repro.experiments.sweep", "ResultCache",
              ("get",)),
    LayerSpec("publish", "repro.experiments.sweep", "ResultCache", ("put",)),
    LayerSpec("ingest", "repro.experiments.sweep", None, ("record_result",)),
    LayerSpec("dispatch", "repro.experiments.backends", "SerialBackend",
              ("execute",)),
    LayerSpec("dispatch", "repro.experiments.backends", "ProcessBackend",
              ("execute",)),
    LayerSpec("dispatch", "repro.experiments.backends", "ServiceBackend",
              ("execute",)),
    LayerSpec("service", "repro.service.client", "ServiceClient",
              ("submit", "job", "result")),
)

#: Methods whose return value is inspected: a ``(status, envelope,
#: headers)`` answer of 429 (shard queue full) is counted.
STATUS_429_METHODS = frozenset({"ServiceClient.submit"})


def _timed(fn, agg: list, stack: list) -> Callable:
    """Aggregate-only wrapper: ``agg`` is ``[calls, raw self seconds,
    direct wrapped child calls, flagged results]``."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        frame = [0.0, 0, -1]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            agg[0] += 1
            agg[1] += elapsed - frame[0]
            agg[2] += frame[1]
            parent = stack[-1]
            parent[0] += elapsed
            parent[1] += 1
    return wrapper


def _spanned(fn, agg: list, stack: list, spans: list, name: str,
             count_429: bool) -> Callable:
    """Like :func:`_timed`, and also appends one span per call:
    ``[name, start, end, parent span index, (args, result)]``."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, stack[-1][2], None]
        frame = [0.0, 0, len(spans)]
        spans.append(span)
        stack.append(frame)
        result = None
        start = span[1] = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = span[2] = clock()
            elapsed = end - start
            span[4] = (args, result)
            stack.pop()
            agg[0] += 1
            agg[1] += elapsed - frame[0]
            agg[2] += frame[1]
            if count_429 and result is not None and result[0] == 429:
                agg[3] += 1
            parent = stack[-1]
            parent[0] += elapsed
            parent[1] += 1
    return wrapper


class Tracer:
    """Context manager that wraps every method named by ``specs``."""

    def __init__(self, specs, keep_spans: bool = False) -> None:
        self.specs = tuple(specs)
        self.keep_spans = keep_spans
        self.stack: List[list] = [[0.0, 0, -1]]
        self.spans: List[list] = []
        #: ``"Owner.method"`` -> (layer, aggregate list).
        self.methods: Dict[str, Tuple[str, list]] = {}
        #: (owner, attribute, original) per wrapped method.
        self._patches: List[Tuple[object, str, object]] = []
        self._active = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self._active = True
        try:
            for spec in self.specs:
                module = importlib.import_module(spec.module)
                owner = (getattr(module, spec.owner) if spec.owner
                         else module)
                for method in spec.methods:
                    self._install(spec.layer, owner, spec.owner or
                                  spec.module.rsplit(".", 1)[-1], method)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _install(self, layer: str, owner, owner_name: str,
                 method: str) -> None:
        try:
            original = vars(owner)[method]
        except KeyError:
            raise LookupError(f"layer {layer!r}: {owner_name} defines no "
                              f"{method!r} of its own") from None
        name = f"{owner_name}.{method}"
        agg = [0, 0.0, 0, 0]
        self.methods[name] = (layer, agg)
        kind = type(original) if isinstance(
            original, (classmethod, staticmethod)) else None
        fn = original.__func__ if kind else original
        if self.keep_spans:
            wrapped = _spanned(fn, agg, self.stack, self.spans, name,
                               name in STATUS_429_METHODS)
        else:
            wrapped = _timed(fn, agg, self.stack)
        setattr(owner, method, kind(wrapped) if kind else wrapped)
        self._patches.append((owner, method, original))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        if self._active:
            for owner, method, original in reversed(self._patches):
                setattr(owner, method, original)
            self._active = False

    def unrestored(self) -> List[str]:
        """Names of wrapped attributes that do not hold their original."""
        return [f"{getattr(owner, '__name__', owner)}.{method}"
                for owner, method, original in self._patches
                if vars(owner).get(method) is not original]

    # ------------------------------------------------------------------
    def layer_totals(self, c_in: float = 0.0, c_out: float = 0.0
                     ) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, corrected ``self_s`` and ``status_429``."""
        totals: Dict[str, Dict[str, float]] = {}
        for layer, agg in self.methods.values():
            entry = totals.setdefault(
                layer, {"calls": 0, "self_s": 0.0, "status_429": 0})
            entry["calls"] += agg[0]
            entry["self_s"] += agg[1] - agg[0] * c_in - agg[2] * c_out
            entry["status_429"] += agg[3]
        for entry in totals.values():
            entry["self_s"] = max(0.0, entry["self_s"])
        return totals

    def method_calls(self, name: str) -> int:
        entry = self.methods.get(name)
        return entry[1][0] if entry else 0

    def span_records(self, origin: float) -> List[Dict]:
        """Spans as JSON-ready dicts, times relative to ``origin``.  Spec
        digests are resolved here, after the wrappers are gone, so
        resolving them is not itself traced."""
        if self._active:
            raise RuntimeError("resolve spans only after the tracer exits")
        return [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "spec": _spec_digest(ref)}
                for name, start, end, parent, ref in self.spans]


def _spec_digest(ref) -> Optional[str]:
    """The RunSpec digest a sweep-layer call worked on, if any."""
    from repro.experiments.sweep import RunSpec

    if ref is None:
        return None
    args, result = ref
    for value in (*args, result):
        if isinstance(value, RunSpec):
            return value.digest()
        if isinstance(value, dict):
            doc = value.get("runspec") or value.get("spec")
            if isinstance(doc, dict):
                return RunSpec.from_dict(doc).digest()
        if isinstance(value, str) and len(value) == 64:
            return value
    return None


def calibrate(specs=(), probe: Optional[Callable[[], object]] = None,
              repeats: int = 3) -> Tuple[float, float]:
    """Per-call cost of a wrapper, as ``(c_in, c_out)`` seconds.

    The split between the callee's interval (``c_in``) and the caller
    (``c_out``) comes from an empty function (:func:`empty_wrapper_cost`).
    An empty function in a tight loop understates the cost inside a
    simulation by a third or more, so when a ``probe`` is given
    — a small run of real work — it is run ``repeats`` times plain and
    with ``specs`` wrapped, alternating, and both parts are scaled so
    their sum is the probe's minimum added time per wrapped call.
    """
    clock = time.perf_counter
    c_in, c_out = empty_wrapper_cost()
    if probe is None:
        return c_in, c_out
    plain = traced = float("inf")
    calls = 0
    for _ in range(repeats):
        gc.collect()
        start = clock()
        probe()
        plain = min(plain, clock() - start)
        tracer = Tracer(specs)
        gc.collect()
        with tracer:
            start = clock()
            probe()
            traced = min(traced, clock() - start)
        calls = sum(agg[0] for _, agg in tracer.methods.values())
    if not calls:
        return c_in, c_out
    scale = max(1.0, (traced - plain) / calls / (c_in + c_out))
    return c_in * scale, c_out * scale


def empty_wrapper_cost(calls: int = 100_000, repeats: int = 5
                       ) -> Tuple[float, float]:
    """Per-call cost of an empty wrapper, as ``(c_in, c_out)`` seconds.

    Times a bare loop, direct calls of an empty four-argument function,
    and the same calls through :func:`_timed`; each is the minimum over
    ``repeats``, which filters scheduler noise out of a constant cost.
    ``c_in`` is the wrapper's own recorded self time beyond a direct
    call; ``c_out`` is the rest of the added cost, which lands in the
    caller.
    """
    def empty(a, b, c, d):
        return None

    clock = time.perf_counter
    best = {"loop": float("inf"), "direct": float("inf"),
            "wrapped": float("inf"), "recorded": float("inf")}
    for _ in range(repeats):
        indices = range(calls)
        start = clock()
        for _ in indices:
            pass
        best["loop"] = min(best["loop"], clock() - start)
        start = clock()
        for _ in indices:
            empty(1, 2, 3, 4)
        best["direct"] = min(best["direct"], clock() - start)
        agg = [0, 0.0, 0, 0]
        wrapped = _timed(empty, agg, [[0.0, 0, -1]])
        start = clock()
        for _ in indices:
            wrapped(1, 2, 3, 4)
        best["wrapped"] = min(best["wrapped"], clock() - start)
        best["recorded"] = min(best["recorded"], agg[1])
    direct_call = (best["direct"] - best["loop"]) / calls
    c_in = max(0.0, best["recorded"] / calls - direct_call)
    c_out = max(0.0, (best["wrapped"] - best["direct"]) / calls - c_in)
    return c_in, c_out
