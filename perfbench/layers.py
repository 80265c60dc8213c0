"""Outside-in layer tracing for the benchmark.

The traced run times calls into each layer's public entry points by
temporarily replacing them with recording wrappers.  Wrappers live only
here: the program under test is never edited.  Each wrapped call becomes
one span ``[name, start, end, parent, trial]`` held in memory; ``parent``
is the index of the enclosing span (``-1`` for a trial root) and
``trial`` the id shared by every span of one trial.

Attributes are patched on the class or module that defines them, because
importers copy module-level names but look methods up on the class.  A
subclass override is a different function, so it is wrapped under its
own name (``core.columnar.advance_time`` next to
``core.protocol.advance_time``).  Only coarse API calls are wrapped;
per-byte helpers such as ``hash_concat`` or ``GF256.mul`` are not.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: The root span of every trial; its self time is the unattributed time.
TRIAL_SPAN = "runner.trial"

def _entry_points() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(span name, owner, attribute, count hook)`` for every wrapped call.

    A count hook is called as ``hook(counts, args, result)`` after the
    wrapped call returns.
    """
    from repro.chain.ledger import Ledger
    from repro.core.columnar import ColumnarProtocol
    from repro.core.protocol import FileInsurerProtocol
    from repro.crypto.erasure import ReedSolomonCode
    from repro.crypto.merkle import MerkleTree
    from repro.crypto.porep import PoRepProver
    from repro.crypto.prng import DeterministicPRNG
    from repro.kernels import _BACKENDS
    from repro.runner import executor
    from repro.sim.adversary import GreedyCapacityAdversary
    from repro.sim.engine import SimulationEngine
    from repro.sim.scenario import DSNScenario
    from repro.storage.bitswap import BitSwapNode
    from repro.storage.dht import DHTNode

    def prng_bytes(counts, args, result):
        counts["crypto.prng.bytes"] += len(result)

    def sealed(counts, args, result):
        counts["crypto.porep.sealed_bytes"] += result.size

    def encoded(counts, args, result):
        counts["crypto.erasure.bytes"] += len(args[1])

    def decoded(counts, args, result):
        counts["crypto.erasure.bytes"] += len(result)

    def fetched(counts, args, result):
        counts["storage.bitswap.bytes"] += len(result)

    def drawn(counts, args, result):
        counts["kernels.batch_weighted_draw.draws"] += len(result.keys)
        counts["kernels.batch_weighted_draw.attempts"] += result.attempts
        counts["kernels.batch_weighted_draw.collisions"] += result.collisions

    def events(counts, args, result):
        counts["sim.engine.events"] += result

    vectorized = type(_BACKENDS["vectorized"])
    points: List[Tuple[str, object, str, Optional[Callable]]] = [
        (TRIAL_SPAN, executor, "_execute_trial", None),
        ("crypto.porep.setup", PoRepProver, "setup", sealed),
        ("crypto.porep.capacity_replica", PoRepProver, "capacity_replica", None),
        ("crypto.porep.unseal", PoRepProver, "unseal", None),
        ("crypto.prng.random_bytes", DeterministicPRNG, "random_bytes", prng_bytes),
        ("crypto.merkle.from_data", MerkleTree, "from_data", None),
        ("crypto.erasure.encode", ReedSolomonCode, "encode", encoded),
        ("crypto.erasure.decode", ReedSolomonCode, "decode", decoded),
        ("storage.dht.provide", DHTNode, "provide", None),
        ("storage.dht.find_providers", DHTNode, "find_providers", None),
        ("storage.dht.iterative_find_node", DHTNode, "iterative_find_node", None),
        ("storage.bitswap.fetch_block", BitSwapNode, "fetch_block", fetched),
    ]
    points += [
        ("chain.ledger", Ledger, attr, None)
        for attr in ("transfer", "lock", "release", "confiscate")
    ]
    for attr in ("file_add", "file_add_batch", "file_confirm", "advance_time", "crash_sector"):
        points.append((f"core.protocol.{attr}", FileInsurerProtocol, attr, None))
        if attr in vars(ColumnarProtocol):
            points.append((f"core.columnar.{attr}", ColumnarProtocol, attr, None))
    points += [
        ("kernels.batch_weighted_draw", vectorized, "batch_weighted_draw", drawn),
        ("kernels.greedy_select", vectorized, "greedy_select", None),
        ("sim.scenario.store_file", DSNScenario, "store_file", None),
        ("sim.scenario.run_cycles", DSNScenario, "run_cycles", None),
        ("sim.scenario.retrieve_file", DSNScenario, "retrieve_file", None),
        ("sim.engine.run", SimulationEngine, "run", events),
        ("sim.adversary.attack", GreedyCapacityAdversary, "attack", None),
    ]
    return points


def entry_point_names() -> List[str]:
    """Every span name, in table order (``chain.ledger`` listed once)."""
    names: List[str] = []
    for name, _, _, _ in _entry_points():
        if name not in names:
            names.append(name)
    return names


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Patch entry points with span-recording wrappers; restore on exit.

    Use as a context manager.  ``spans`` holds ``[name, start, end,
    parent, trial]`` lists; ``counts`` the exact counters.  The extra
    count-only hook on ``DHTNode.rpc_find_node`` records no span: it is
    a per-node RPC, too fine to time, but its call count divided by the
    lookups gives ``storage.dht.rpcs_per_lookup``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._trials = 0
        self._originals: List[Tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        from repro.storage.dht import DHTNode

        try:
            for name, owner, attr, hook in _entry_points():
                self._patch(owner, attr, self._span_wrapper(name, hook))
            self._patch(DHTNode, "rpc_find_node", self._count_wrapper("storage.dht.rpc_find_node"))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner: object, attr: str, make: Callable) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement: object = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def restored(self) -> bool:
        """True when no wrapper is left installed on any entry point."""
        from repro.storage.dht import DHTNode

        owners = [(owner, attr) for _, owner, attr, _ in _entry_points()]
        owners.append((DHTNode, "rpc_find_node"))
        return not self._originals and all(
            not getattr(_raw_function(vars(owner)[attr]), "_perfbench_wrapper", False)
            for owner, attr in owners
        )

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, name: str, hook: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        is_root = name == TRIAL_SPAN
        tracer = self

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if is_root:
                    tracer._trials += 1
                elif not stack:
                    # Outside a trial (the runner deriving seeds): not traced.
                    return fn(*args, **kwargs)
                index = len(spans)
                span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer._trials]
                spans.append(span)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span[2] = clock()
                if hook is not None:
                    hook(counts, args, result)
                return result

            wrapper._perfbench_wrapper = True  # type: ignore[attr-defined]
            return wrapper

        return make

    def _count_wrapper(self, name: str) -> Callable:
        counts, stack = self.counts, self._stack

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if stack:
                    counts[name] += 1
                return fn(*args, **kwargs)

            wrapper._perfbench_wrapper = True  # type: ignore[attr-defined]
            return wrapper

        return make


def _raw_function(raw: object) -> object:
    return raw.__func__ if isinstance(raw, classmethod) else raw


def check_spans(spans: List[list]) -> List[str]:
    """Structural problems in a span list (empty when well formed).

    Every span has a name, ``start <= end`` and a parent that is an
    earlier span of the same trial enclosing it in time; every trial has
    exactly one root, the ``runner.trial`` span.
    """
    problems: List[str] = []
    roots: Dict[int, int] = {}
    for index, (name, start, end, parent, trial) in enumerate(spans):
        if not name or not start <= end:
            problems.append(f"span {index} ({name}) has no name or ends before it starts")
        if parent == -1:
            if name != TRIAL_SPAN:
                problems.append(f"span {index} ({name}) has no parent")
            roots[trial] = roots.get(trial, 0) + 1
            continue
        if not 0 <= parent < index:
            problems.append(f"span {index} ({name}) points at a later parent")
            continue
        _, p_start, p_end, _, p_trial = spans[parent]
        if p_trial != trial:
            problems.append(f"span {index} ({name}) is in trial {trial}, its parent in {p_trial}")
        if start < p_start or end > p_end:
            problems.append(f"span {index} ({name}) lies outside its parent")
    problems += [f"trial {t} has {n} roots" for t, n in roots.items() if n != 1]
    return problems


def span_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls``, ``total_s`` and ``self_s`` from a span list.

    Self time is a span's duration minus the durations of its direct
    children; the trial root's self time is the trial time outside every
    layer span, reported as ``(unattributed)``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return table
