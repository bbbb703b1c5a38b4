"""Span tracing for the benchmark's traced run.

The tracer wraps the program's public entry points from the outside --
nothing under ``src/`` changes -- and only while a traced run is in
progress.  Every wrapped call becomes a span (name, start, end, parent);
a span's *self time* is its duration minus the time covered by its child
spans, and summing self time per layer splits the traced wall time
across the program's modules.

Three kinds of wrapper are installed:

* **entry points** (:data:`ENTRY_POINTS`): named methods and functions
  of each layer.  Functions that other modules bind by name
  (``from repro.crypto.hashing import sha256``) are replaced in every
  loaded ``repro`` module that holds the original object; the bindings
  replaced are listed in :attr:`Tracer.covered`.
* **event callbacks**: every callback scheduled through the simulator's
  ``post``/``post_at``/``post_many``/``schedule`` API runs inside a span
  named ``<layer>.event``, where the layer is the module that defined
  the callback.  ``Network.broadcast`` pushes its deliveries straight
  onto the heap; their time stays in ``sim.run``'s self time until the
  receiving endpoint's ``deliver`` span opens.
* **a byte counter** on the ``hashlib`` binding of
  ``repro.crypto.hashing`` (bytes hashed by the canonical ``sha256``).

Spans are kept in memory in compact arrays (the first
``span_cap`` of them; self times and call counts cover every span) and
written out by :meth:`Tracer.write` when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import sys
import time
import types
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) of every wrapped entry point
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.core", "Simulator.run"),
    ("sim.net", "repro.sim.network", "Network.send"),
    ("sim.net", "repro.sim.network", "Network.broadcast"),
    ("sim.cpu", "repro.sim.cpu", "CPU.submit"),
    ("smart.deliver", "repro.smart.replica", "ServiceReplica.deliver"),
    ("smart.proxy.invoke", "repro.smart.proxy", "ServiceProxy.invoke_async"),
    ("smart.proxy.invoke", "repro.smart.proxy", "ServiceProxy.invoke"),
    ("smart.proxy.transmit", "repro.smart.proxy", "ServiceProxy._transmit"),
    ("smart.proxy.deliver", "repro.smart.proxy", "ServiceProxy.deliver"),
    ("smart2.deliver", "repro.smart2.node", "SmartBFTNode.deliver"),
    ("smart2.frontend.deliver", "repro.smart2.frontend", "QuorumFrontend.deliver"),
    ("smart2.frontend.submit", "repro.smart2.frontend", "QuorumFrontend.submit"),
    ("ordering.submit", "repro.ordering.frontend", "Frontend.submit"),
    ("ordering.deliver", "repro.ordering.frontend", "Frontend.deliver"),
    ("ordering.execute", "repro.ordering.node", "BFTOrderingNode.execute_batch"),
    ("ordering.cut", "repro.ordering.blockcutter", "BlockCutter.ordered"),
    ("crypto.hash", "repro.crypto.hashing", "sha256"),
    ("crypto.encode", "repro.crypto.hashing", "canonical_encode"),
    ("crypto.sign", "repro.crypto.signatures", "Signer.sign"),
    ("crypto.verify", "repro.crypto.signatures", "Verifier.verify"),
    ("fabric.endorse", "repro.fabric.endorser", "EndorsingPeer.endorse"),
    ("fabric.endorser.deliver", "repro.fabric.endorser", "EndorsingPeer.deliver"),
    ("fabric.validate", "repro.fabric.committer", "validate_block"),
    ("fabric.commit", "repro.fabric.committer", "CommittingPeer.receive_block"),
    ("fabric.commit.deliver", "repro.fabric.committer", "CommittingPeer.deliver"),
    ("fabric.client", "repro.fabric.client", "FabricClient.submit_transaction"),
    ("fabric.client", "repro.fabric.client", "FabricClient.deliver"),
)

#: module prefix -> layer name (longest prefix wins)
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.smart2", "smart2"),
    ("repro.smart", "smart"),
    ("repro.sim", "sim"),
    ("repro.ordering", "ordering"),
    ("repro.crypto", "crypto"),
    ("repro.fabric", "fabric"),
)

LAYER_NAMES = ("sim", "smart", "smart2", "ordering", "crypto", "fabric")

#: simulator methods whose callback argument gets an event span
#: (``schedule_at`` and ``call_soon`` delegate to ``schedule``)
_SCHEDULERS = ("post", "post_at", "schedule")

ROOT = "root"


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def layer_of_span(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYER_NAMES else "other"


def _callback_module(fn: Any) -> str:
    if isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__module__", None) or ""


class Tracer:
    """Records spans around the program's entry points while installed."""

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        # retained spans: name id, start, end, parent index (-1 = none)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # open spans: [span index, start, child time]
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self.covered: List[str] = []
        self.hashed_bytes = 0
        #: block copies received by frontends (BFT-SMaRt or SmartBFT)
        self.block_copies = 0
        #: messages sent by ordering replicas/nodes (network ids below
        #: the frontends' id base)
        self.replica_messages = 0
        self.t0 = 0.0

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def span(
        self, name: str, fn: Callable, count: Optional[Callable[..., None]] = None
    ) -> Callable:
        """``fn`` wrapped so that every call records a span ``name``;
        ``count``, if given, sees each call's arguments first."""
        nid = self.name_id(name)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        cap = self.span_cap
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(*args)
            index = len(starts)
            if index < cap:
                names.append(nid)
                starts.append(0.0)
                ends.append(0.0)
                parents.append(stack[-1][0] if stack else -1)
            else:
                index = -1
            frame = [index, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_s[nid] += duration - frame[2]
                calls[nid] += 1
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    starts[index] = start
                    ends[index] = end

        traced.__perfbench_span__ = name
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point, scheduler and name binding."""
        originals: Dict[int, Tuple[Any, Callable]] = {}
        for name, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner: Any = module
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.span(name, original, self._counter_for(path))
            self._patch(owner, attr, wrapped)
            self.covered.append(f"{module_name}.{path}")
            if isinstance(owner, types.ModuleType):
                originals[id(original)] = (original, wrapped)
        # rebind every name-bound copy of a wrapped module function
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
                    binding = f"{module_name}.{attr}"
                    if binding not in self.covered:
                        self.covered.append(binding)
        self._install_schedulers()
        self._install_byte_counter()

    def _counter_for(self, path: str) -> Optional[Callable[..., None]]:
        """Argument-inspecting counters for the ratios the spans alone
        cannot give (block copies per block, replica messages)."""
        from repro.fabric.api import BlockDelivery
        from repro.ordering.service import FRONTEND_ID_BASE

        tracer = self
        if path in ("Frontend.deliver", "QuorumFrontend.deliver"):

            def count_copies(_endpoint, _src, message):
                if type(message) is BlockDelivery:
                    tracer.block_copies += 1

            return count_copies
        if path == "Network.send":

            def count_send(_network, src, *_rest):
                if type(src) is int and src < FRONTEND_ID_BASE:
                    tracer.replica_messages += 1

            return count_send
        if path == "Network.broadcast":

            def count_broadcast(_network, src, dsts, *_rest):
                if type(src) is int and src < FRONTEND_ID_BASE:
                    tracer.replica_messages += len(dsts)

            return count_broadcast
        return None

    def _install_schedulers(self) -> None:
        from repro.sim.core import Simulator

        span_for: Dict[Any, Callable] = {}
        tracer = self

        def event_span(fn: Callable) -> Callable:
            if hasattr(getattr(fn, "__func__", fn), "__perfbench_span__"):
                return fn  # already an entry-point span
            name = f"{layer_of_module(_callback_module(fn))}.event"
            runner = span_for.get(name)
            if runner is None:
                runner = span_for[name] = tracer.span(name, lambda f, *a: f(*a))
            return functools.partial(runner, fn)

        for method in _SCHEDULERS:
            original = Simulator.__dict__[method]

            def wrapped(sim, when, fn, *args, _original=original):
                return _original(sim, when, event_span(fn), *args)

            self._patch(Simulator, method, wrapped)
        original_many = Simulator.__dict__["post_many"]

        def post_many(sim, delay, fns, *args):
            return original_many(sim, delay, [event_span(f) for f in fns], *args)

        self._patch(Simulator, "post_many", post_many)

    def _install_byte_counter(self) -> None:
        from repro.crypto import hashing

        tracer = self

        def counted_sha256(data=b""):
            tracer.hashed_bytes += len(data)
            return hashlib.sha256(data)

        self._patch(hashing, "hashlib", types.SimpleNamespace(sha256=counted_sha256))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def region(self, fn: Callable, *args) -> float:
        """Run ``fn(*args)`` as the root span; return its wall time."""
        self.t0 = time.perf_counter()
        root = self.span(ROOT, fn)
        root(*args)
        return time.perf_counter() - self.t0

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_s[nid] if nid is not None else 0.0

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer; the root's own self time counts as other."""
        totals = {layer: 0.0 for layer in LAYER_NAMES + ("other",)}
        for name, value in zip(self.names, self.self_s):
            totals[layer_of_span(name)] += value
        return totals

    def write(self, path: str) -> int:
        """Write the retained spans as gzip'd tab-separated lines:
        index, name, start, end, parent (seconds from the root's start)."""
        count = len(self.span_start)
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(count):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - self.t0:.9f}\t"
                    f"{self.span_end[i] - self.t0:.9f}\t{self.span_parent[i]}\n"
                )
        return count
