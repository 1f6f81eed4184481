"""Span recorder and the per-layer split of the traced run.

The traced run wraps public entry points of each layer from outside the
program.  Each wrapper is installed where the calling layer looks the
name up: a module-level function is replaced in its defining module *and*
in every loaded ``repro`` module that imported it by name (``session.py``
imports ``build_shard_spec``, for instance); a method is replaced on its
class.  Private helpers (``_sync``, ``_boundary_pass``, ...) are never
wrapped: their time is the self time of the span that calls them, which
keeps the split valid when those helpers are rewritten.

Each span records its name, start, end and parent and is kept in memory
(flat typed arrays) until :func:`layer_metrics` reduces them at the end.
Self time is a span's duration minus the durations of its direct
children; calls are synchronous, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
from array import array
from time import perf_counter

import numpy as np


class SpanRecorder:
    """In-memory spans plus counters, recorded by installed wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: per-span work size (users in a sweep), 0 where not measured.
        self.size = array("d")
        self.counters: dict[str, float] = {}
        #: objects whose own totals are read at the end (pools, stores).
        self.seen: dict[str, dict[int, object]] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.active = False
        # Forked pool workers inherit the patched classes; their spans
        # would never reach this process, so recording stops there.
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def remember(self, kind: str, obj: object) -> None:
        self.seen.setdefault(kind, {})[id(obj)] = obj

    # ------------------------------------------------------------ wrapping
    def wrap(self, span: str, fn, after=None, size=None):
        """``fn`` recording one span per call; ``after(rec, args, out)``
        runs after the span closes (for counts read off the result) and
        ``size(args)`` gives the span's work size."""
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.size.append(0.0 if size is None else size(args))
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()
            if after is not None:
                after(rec, args, out)
            return out

        return traced

    def patch_function(self, module: str, attr: str, span: str, after=None,
                       size=None) -> None:
        """Replace a module-level function wherever ``repro`` bound it."""
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(span, original, after, size)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, span: str, after=None) -> None:
        """Replace a method (plain or static) on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(span, raw.__func__, after))
        else:
            new = self.wrap(span, raw, after)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ----------------------------------------------------------- reduction
    def arrays(self):
        """``(name_id, parent, duration, self_time)`` as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, parent, dur, dur - child


# ------------------------------------------------------------------ hooks
def _puu(rec, args, out):
    rec.count("algorithms.puu.offered", len(args[0]))
    rec.count("algorithms.puu.granted", len(out))


def _corn(rec, args, out):
    rec.count("algorithms.corn.nodes", args[0].nodes_expanded)


def _round(rec, args, out):
    rec.count("serve.rounds")
    rec.count("serve.slots", out.slots)
    rec.count("serve.epoch_moves", out.epoch_moves)
    rec.count("serve.boundary_moves", out.boundary_moves)


def _submit(rec, args, out):
    rec.remember("pool", args[0])


def _harvest(rec, args, out):
    rec.count("transport.worker_epoch.s", out[0].seconds)


def _publish(rec, args, out):
    rec.remember("store", args[0])


def _protocol(rec, args, out):
    rec.count("distributed.slots", out.decision_slots)
    rec.count("distributed.messages", out.total_messages)


def install(rec: SpanRecorder) -> None:
    """Install every layer wrapper the per-layer metrics read."""
    from repro.algorithms.corn import CORN
    from repro.core.game import RouteNavigationGame
    from repro.distributed.bus import MessageBus
    from repro.distributed.platform_agent import PlatformAgent
    from repro.distributed.simulator import DistributedSimulation
    from repro.distributed.user_agent import UserAgent
    from repro.network.routing import RoutePlanner
    from repro.serve.session import ServeSession
    from repro.serve.shard import ShardEngine
    from repro.serve.specstore import SpecStore
    from repro.serve.workers import ShardPool

    rec.patch_function("repro.core.responses", "batch_best_updates", "core.sweep",
                      size=lambda args: len(args[1]))
    rec.patch_function("repro.core.responses", "single_best_update", "core.best_update")
    rec.patch_method(RouteNavigationGame, "build", "core.game_build")
    rec.patch_function("repro.algorithms.muun", "puu_select_batch", "algorithms.puu", _puu)
    rec.patch_method(CORN, "run", "algorithms.corn", _corn)
    rec.patch_method(ServeSession, "run_round", "serve.round", _round)
    rec.patch_method(ServeSession, "join", "serve.join")
    rec.patch_method(ServeSession, "leave", "serve.leave")
    rec.patch_method(ShardEngine, "run_epoch", "serve.epoch")
    rec.patch_method(ShardEngine, "best_move", "serve.best_move")
    rec.patch_method(ShardEngine, "apply_move", "serve.apply_move")
    rec.patch_function("repro.serve.shard", "build_shard_spec", "serve.rebuild")
    rec.patch_method(ShardPool, "submit_epoch", "transport.submit", _submit)
    rec.patch_method(ShardPool, "harvest", "transport.harvest", _harvest)
    rec.patch_method(SpecStore, "ticket_for", "transport.publish", _publish)
    rec.patch_method(DistributedSimulation, "run", "distributed.run", _protocol)
    rec.patch_method(UserAgent, "begin_slot", "distributed.user")
    rec.patch_method(UserAgent, "process_inbox", "distributed.user")
    for attr in ("process_inbox", "apply_reports", "grant", "broadcast_counts"):
        rec.patch_method(PlatformAgent, attr, "distributed.platform")
    rec.patch_method(MessageBus, "post", "distributed.bus")
    rec.patch_method(MessageBus, "drain", "distributed.bus")
    rec.patch_method(RoutePlanner, "recommend", "network.recommend")
    rec.patch_function("repro.tasks.assignment", "assign_tasks_to_routes", "tasks.assign")
    rec.patch_function("repro.scenario.builder", "build_scenario", "scenario.build")


#: Per-layer metrics, in BENCHMARK.json order: name -> unit.
LAYER_METRICS = {
    "core.sweep.calls": "count",
    "core.sweep.s": "s",
    "core.sweep.users": "count",
    "core.best_update.calls": "count",
    "core.best_update.s": "s",
    "core.game_build.calls": "count",
    "core.game_build.s": "s",
    "algorithms.puu.calls": "count",
    "algorithms.puu.s": "s",
    "algorithms.puu.offered": "count",
    "algorithms.puu.granted": "count",
    "algorithms.corn.s": "s",
    "algorithms.corn.nodes": "count",
    "serve.rounds": "count",
    "serve.slots": "count",
    "serve.epoch_moves": "count",
    "serve.boundary_moves": "count",
    "serve.epoch.calls": "count",
    "serve.epoch.s": "s",
    "serve.boundary.s": "s",
    "serve.round.self_s": "s",
    "serve.rebuild.calls": "count",
    "serve.rebuild.s": "s",
    "serve.join.s": "s",
    "serve.leave.s": "s",
    "transport.submit.calls": "count",
    "transport.submit.s": "s",
    "transport.harvest_wait.s": "s",
    "transport.worker_epoch.s": "s",
    "transport.publish.calls": "count",
    "transport.publish.s": "s",
    "transport.spec.bytes": "B",
    "transport.payload.bytes": "B",
    "transport.cache.hits": "count",
    "transport.cache.misses": "count",
    "transport.worker_peak_rss_mb": "MB",
    "distributed.slots": "count",
    "distributed.messages": "count",
    "distributed.user.s": "s",
    "distributed.platform.s": "s",
    "distributed.bus.s": "s",
    "network.recommend.calls": "count",
    "network.recommend.s": "s",
    "tasks.assign.s": "s",
    "scenario.build.s": "s",
    "trace.converge_overhead": "%",
}

#: span -> (calls metric, inclusive-seconds metric); None = not reported.
_INCLUSIVE = {
    "core.sweep": ("core.sweep.calls", "core.sweep.s"),
    "core.best_update": ("core.best_update.calls", "core.best_update.s"),
    "core.game_build": ("core.game_build.calls", "core.game_build.s"),
    "algorithms.puu": ("algorithms.puu.calls", "algorithms.puu.s"),
    "algorithms.corn": (None, "algorithms.corn.s"),
    "serve.epoch": ("serve.epoch.calls", "serve.epoch.s"),
    "serve.rebuild": ("serve.rebuild.calls", "serve.rebuild.s"),
    "serve.join": (None, "serve.join.s"),
    "serve.leave": (None, "serve.leave.s"),
    "transport.submit": ("transport.submit.calls", "transport.submit.s"),
    "transport.harvest": (None, "transport.harvest_wait.s"),
    "transport.publish": (None, "transport.publish.s"),
    "distributed.bus": (None, "distributed.bus.s"),
    "network.recommend": ("network.recommend.calls", "network.recommend.s"),
    "tasks.assign": (None, "tasks.assign.s"),
    "scenario.build": (None, "scenario.build.s"),
}

#: span -> self-seconds metric (agent time net of the bus calls it makes).
_SELF = {
    "serve.round": "serve.round.self_s",
    "distributed.user": "distributed.user.s",
    "distributed.platform": "distributed.platform.s",
}


def layer_metrics(rec: SpanRecorder, overhead_pct: float) -> dict[str, float]:
    """Reduce the recorded spans and counters to :data:`LAYER_METRICS`."""
    out = {name: 0.0 for name in LAYER_METRICS}
    name, parent, dur, self_t = rec.arrays()
    known = {n: i for i, n in enumerate(rec.names)}
    spans = (*_INCLUSIVE, *_SELF, "serve.best_move", "serve.apply_move")
    ids = {span: known.get(span, -1) for span in spans}
    for span, (calls, secs) in _INCLUSIVE.items():
        sel = name == ids[span]
        if span == "core.sweep":
            # A single-user best update is a one-user sweep; it is
            # reported as core.best_update only, not again as core.sweep.
            inner = sel & (parent >= 0)
            sel[inner] = name[parent[inner]] != ids["core.best_update"]
            out["core.sweep.users"] = float(np.asarray(rec.size)[sel].sum())
        if calls is not None:
            out[calls] = float(sel.sum())
        out[secs] = float(dur[sel].sum())
    for span, secs in _SELF.items():
        out[secs] = float(self_t[name == ids[span]].sum())
    # Boundary pass: the best_move/apply_move calls a serving round makes
    # itself (a join's best response is part of serve.join.s instead).
    moves = np.isin(name, [ids["serve.best_move"], ids["serve.apply_move"]])
    under_round = np.zeros(name.size, dtype=bool)
    has = parent >= 0
    under_round[has] = name[parent[has]] == ids["serve.round"]
    out["serve.boundary.s"] = float(dur[moves & under_round].sum())
    for key, value in rec.counters.items():
        out[key] = float(value)
    for pool in rec.seen.get("pool", {}).values():
        out["transport.payload.bytes"] += pool.payload_bytes
        out["transport.cache.hits"] += pool.cache_hits
        out["transport.cache.misses"] += pool.cache_misses
    for store in rec.seen.get("store", {}).values():
        out["transport.publish.calls"] += store.publishes
        out["transport.spec.bytes"] += store.bytes_published
    if rec.seen.get("pool"):
        # Pool workers have been joined by now (every session is closed),
        # so RUSAGE_CHILDREN holds the largest worker's peak resident set.
        # Without a pool it would read whatever the launching shell ran.
        out["transport.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
    out["trace.converge_overhead"] = float(overhead_pct)
    return out
