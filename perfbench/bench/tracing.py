"""Per-layer timing from outside the program, for the traced run only.

:func:`install` wraps the public entry points of each layer and rebinds
every name a caller looks up: the attribute on the class for methods, and
every ``repro.*`` module global bound to the original function (so
``from x import f`` call sites are covered too).  Nothing is patched unless
a traced run asks for it, and :meth:`Tracer.uninstall` restores the
originals.

Spans nest per thread.  A span's *self* time is its duration minus the
wrapped spans directly inside it; a span of a metric already open on the
same thread (recursion, or ``natural_join_all`` calling
``Relation.natural_join``) is not counted twice.  Generators are timed per
``next()``, so time spent by the consumer between answers is not charged to
the engine.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Accumulates call counts, inclusive and self time per metric."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.items: dict[str, int] = defaultdict(int)
            self.total_ns: dict[str, int] = defaultdict(int)
            self.self_ns: dict[str, int] = defaultdict(int)
            self.top_ns = 0

    # ------------------------------------------------------------------
    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, metric: str) -> list | None:
        stack = self._stack()
        if any(frame[0] == metric for frame in stack):
            return None
        frame = [metric, 0, time.perf_counter_ns()]
        stack.append(frame)
        return frame

    def _exit(self, frame: list | None) -> None:
        if frame is None:
            return
        elapsed = time.perf_counter_ns() - frame[2]
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.total_ns[frame[0]] += elapsed
            self.self_ns[frame[0]] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            else:
                self.top_ns += elapsed

    def _count(self, metric: str, frame: list | None, items: int = 0) -> None:
        if frame is not None:
            with self._lock:
                self.calls[metric] += 1
                self.items[metric] += items

    # ------------------------------------------------------------------
    def function(self, metric: str, fn: Callable, count_result: bool = False) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self._enter(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            self._count(metric, frame, len(result) if count_result else 0)
            return result
        return wrapper

    def generator(self, metric: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            outermost = not self._open(metric)
            produced = 0
            try:
                while True:
                    frame = self._enter(metric) if outermost else None
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame)
                    produced += 1
                    yield item
            finally:
                inner.close()
                if outermost:
                    with self._lock:
                        self.calls[metric] += 1
                        self.items[metric] += produced
        return wrapper

    def _open(self, metric: str) -> bool:
        return any(frame[0] == metric for frame in self._stack())

    # ------------------------------------------------------------------
    def patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        """Rebind ``owner.name`` and every ``repro.*`` global bound to it."""
        original = owner.__dict__[name]
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module for mod_name, module in sorted(sys.modules.items())
                if mod_name.startswith("repro") and module is not owner
                and module is not None and module.__dict__.get(name) is original
            ]
        for target in targets:
            self._restore.append((target, name, original))
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points named in the per-layer table."""
    import repro.core.engine  # noqa: F401 - load every module whose globals get rebound
    import repro.server.service as service
    from repro.core import findrules, instantiation, naive, requests
    from repro.datalog import evaluation
    from repro.datalog.batching import BatchEvaluator
    from repro.hypergraph import decomposition, semijoin
    from repro.relational import algebra, indexes, io
    from repro.relational.relation import Relation
    from repro.core.engine import MetaqueryEngine

    fn, gen = tracer.function, tracer.generator
    tracer.patch(io, "load_database", fn("relational.load", io.load_database))
    tracer.patch(indexes, "build_index", fn("relational.index", indexes.build_index))

    rows = Relation._rows
    timed_rows = fn("relational.decode", rows)

    def decode_rows(self: Relation) -> Any:
        # Only a call that has to decode the columns opens a span; the
        # decoded frozenset is cached on the relation after the first call.
        if self._tuples is not None:
            return self._tuples
        return timed_rows(self)

    tracer.patch(Relation, "_rows", decode_rows)
    tracer.patch(Relation, "natural_join", fn("relational.join", Relation.natural_join))
    tracer.patch(algebra, "natural_join_all", fn("relational.join", algebra.natural_join_all))
    tracer.patch(Relation, "semijoin", fn("relational.semijoin", Relation.semijoin))
    tracer.patch(decomposition, "decompose", fn("hypergraph.decompose", decomposition.decompose))
    tracer.patch(semijoin, "yannakakis_join", fn("hypergraph.yannakakis", semijoin.yannakakis_join))
    tracer.patch(evaluation, "atom_relation", fn("datalog.atom_relation", evaluation.atom_relation))
    tracer.patch(evaluation, "join_atoms", fn("datalog.join_atoms", evaluation.join_atoms))
    tracer.patch(BatchEvaluator, "body_group", fn("datalog.body_group", BatchEvaluator.body_group))
    tracer.patch(BatchEvaluator, "head_indices",
                 fn("datalog.head_indices", BatchEvaluator.head_indices))
    tracer.patch(requests, "prepare_request", fn("core.prepare", requests.prepare_request))
    tracer.patch(instantiation, "enumerate_instantiations",
                 gen("core.enumerate", instantiation.enumerate_instantiations))
    tracer.patch(instantiation, "enumerate_scheme_instantiations",
                 gen("core.enumerate", instantiation.enumerate_scheme_instantiations))
    tracer.patch(naive, "iter_answers", gen("core.engine", naive.iter_answers))
    tracer.patch(findrules, "iter_find_rules", gen("core.engine", findrules.iter_find_rules))
    tracer.patch(requests.PreparedMetaquery, "stream",
                 gen("core.pipeline", requests.PreparedMetaquery.stream))
    tracer.patch(requests.PreparedMetaquery, "collect",
                 fn("core.pipeline", requests.PreparedMetaquery.collect, count_result=True))
    tracer.patch(MetaqueryEngine, "decide", fn("core.pipeline", MetaqueryEngine.decide))
    tracer.patch(service, "parse_mine_payload", fn("server.parse", service.parse_mine_payload))
    tracer.patch(service, "encode_answer", fn("server.encode", service.encode_answer))
    tracer.patch(service, "answer_payload", fn("server.encode", service.answer_payload))


#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("relational.load_ms", "ms"),
    ("relational.dictionary_values", "count"),
    ("relational.index_builds", "count"),
    ("relational.index_ms", "ms"),
    ("relational.decode_ms", "ms"),
    ("relational.join_calls", "count"),
    ("relational.join_ms", "ms"),
    ("relational.semijoin_ms", "ms"),
    ("hypergraph.decompose_ms", "ms"),
    ("hypergraph.yannakakis_ms", "ms"),
    ("datalog.atom_relation_calls", "count"),
    ("datalog.atom_relation_ms", "ms"),
    ("datalog.join_atoms_calls", "count"),
    ("datalog.join_atoms_ms", "ms"),
    ("datalog.body_group_ms", "ms"),
    ("datalog.groups_built", "count"),
    ("datalog.group_hits", "count"),
    ("datalog.head_indices_calls", "count"),
    ("datalog.head_indices_ms", "ms"),
    ("datalog.cache_hit_ratio", "ratio"),
    ("datalog.invalidations", "count"),
    ("datalog.cached_tuples", "count"),
    ("core.prepare_ms", "ms"),
    ("core.instantiations", "count"),
    ("core.enumerate_ms", "ms"),
    ("core.engine_self_ms", "ms"),
    ("core.answers", "count"),
    ("core.request_cache_hits", "count"),
    ("core.request_cache_misses", "count"),
    ("server.parse_ms", "ms"),
    ("server.encode_ms", "ms"),
    ("server.wire_bytes", "B"),
    ("server.overhead_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
]


def merge_stats(total: dict[str, float], stats: dict[str, dict[str, int]]) -> None:
    """Add one engine's ``stats()`` counters into ``total``."""
    cache = stats.get("cache", {})
    batch = stats.get("batch", {})
    lifecycle = stats.get("lifecycle", {})
    request = stats.get("request", {})
    hits = sum(cache.get(k, 0) for k in ("atom_hits", "join_hits", "fraction_hits"))
    misses = sum(cache.get(k, 0) for k in ("atom_misses", "join_misses", "fraction_misses"))
    for key, value in (
        ("cache_hits", hits), ("cache_lookups", hits + misses),
        ("groups", batch.get("groups", 0)), ("group_hits", batch.get("group_hits", 0)),
        ("invalidations", lifecycle.get("invalidated_entries", 0)),
        ("request_hits", request.get("hits", 0)), ("request_misses", request.get("misses", 0)),
    ):
        total[key] = total.get(key, 0) + value
    total["cached_tuples"] = max(total.get("cached_tuples", 0), lifecycle.get("tuples", 0))


def layer_metrics(tracer: Tracer, stats: dict[str, float], requests: int,
                  latency_s: float, wire_bytes: int, load_ms: float,
                  dictionary_values: int) -> dict[str, float]:
    """The per-layer metrics of one traced timed phase.

    Times and counts are per timed request; ``load_ms`` is per load,
    ``dictionary_values`` and ``cached_tuples`` are end-of-run sizes.
    """
    def ms(metric: str, kind: str = "total") -> float:
        table = tracer.total_ns if kind == "total" else tracer.self_ns
        return table.get(metric, 0) / 1e6 / requests

    def per(value: float) -> float:
        return value / requests

    pipeline_ms = tracer.total_ns.get("core.pipeline", 0) / 1e6
    lookups = stats.get("cache_lookups", 0)
    return {
        "relational.load_ms": load_ms,
        "relational.dictionary_values": dictionary_values,
        "relational.index_builds": per(tracer.calls.get("relational.index", 0)),
        "relational.index_ms": ms("relational.index"),
        "relational.decode_ms": ms("relational.decode"),
        "relational.join_calls": per(tracer.calls.get("relational.join", 0)),
        "relational.join_ms": ms("relational.join"),
        "relational.semijoin_ms": ms("relational.semijoin"),
        "hypergraph.decompose_ms": ms("hypergraph.decompose"),
        "hypergraph.yannakakis_ms": ms("hypergraph.yannakakis"),
        "datalog.atom_relation_calls": per(tracer.calls.get("datalog.atom_relation", 0)),
        "datalog.atom_relation_ms": ms("datalog.atom_relation"),
        "datalog.join_atoms_calls": per(tracer.calls.get("datalog.join_atoms", 0)),
        "datalog.join_atoms_ms": ms("datalog.join_atoms"),
        "datalog.body_group_ms": ms("datalog.body_group"),
        "datalog.groups_built": per(stats.get("groups", 0)),
        "datalog.group_hits": per(stats.get("group_hits", 0)),
        "datalog.head_indices_calls": per(tracer.calls.get("datalog.head_indices", 0)),
        "datalog.head_indices_ms": ms("datalog.head_indices"),
        "datalog.cache_hit_ratio": stats.get("cache_hits", 0) / lookups if lookups else 0.0,
        "datalog.invalidations": per(stats.get("invalidations", 0)),
        "datalog.cached_tuples": stats.get("cached_tuples", 0),
        "core.prepare_ms": ms("core.prepare"),
        "core.instantiations": per(tracer.items.get("core.enumerate", 0)),
        "core.enumerate_ms": ms("core.enumerate"),
        "core.engine_self_ms": ms("core.engine", "self"),
        "core.answers": per(tracer.items.get("core.pipeline", 0)),
        "core.request_cache_hits": per(stats.get("request_hits", 0)),
        "core.request_cache_misses": per(stats.get("request_misses", 0)),
        "server.parse_ms": ms("server.parse"),
        "server.encode_ms": ms("server.encode"),
        "server.wire_bytes": per(wire_bytes),
        "server.overhead_ms": (latency_s * 1e3 - pipeline_ms) / requests if wire_bytes else 0.0,
        "trace.coverage": tracer.top_ns / 1e9 / latency_s if latency_s else 0.0,
    }
