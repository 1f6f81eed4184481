"""The benchmark workloads: serve-inline, serve-pooled and paper.

Every workload is a closed loop driven from this process: the next event
is applied only after the previous one returns.  A run is ``passes``
identical passes, each on its own instance derived from the seed, and
every pass has every phase, so each metric's samples are spread over the
whole run:

1. set-up (``setup_s``), then the method runs to a verified Nash
   equilibrium (``converge_s``);
2. a churn segment: seeded Poisson join/leave batches, one serving round
   after each (``churn_users_per_s``, ``join_ms_*``, ``round_ms_p50``),
   then a final converge;
3. a slice of a fixed suite of small instances from the workload's own
   generator, solved exactly by CORN (``optimum_s``), which certifies
   that the method's Nash profit never exceeds the optimum (serve solves
   its slice item by item between the churn batches).

Every output is checked against :mod:`oracle` outside the timed sections.
No operation is expected to fail: one that raises aborts the run.
See README.md for the sizes, the seeds and the reasons behind them.
"""

from __future__ import annotations

import gc
import resource
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracle

#: Fixed seed of the CORN suites.  CORN time is heavy-tailed in the
#: instance (0.01 s to 15 s for 14 Shanghai users), so a suite drawn from
#: ``--seed`` would spread ``optimum_s`` far beyond any usable bound.
SUITE_SEED = 2024
#: Strategy spaces up to this many profiles are also solved by brute force.
BRUTE_FORCE_LIMIT = 200_000
MAX_ROUNDS = 1_000


@dataclass(frozen=True)
class ServeSize:
    users: int
    tasks: int
    shards: int
    locality: float
    churn_rate: float
    min_joins: int
    #: CORN suite: (users, tasks, instances), synthetic generator, K=1.
    suite: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class PaperSize:
    users: int
    tasks: int
    churn_rate: float
    min_joins: int
    #: CORN suite: (users, tasks, instances), Shanghai scenarios.
    suite: tuple[tuple[int, int, int], ...]


SERVE_SIZES = {
    "full": ServeSize(
        users=10_000, tasks=600, shards=8, locality=0.95, churn_rate=10.0,
        min_joins=200, suite=((10, 20, 8),),
    ),
    "tiny": ServeSize(
        users=400, tasks=60, shards=4, locality=0.95, churn_rate=12.0,
        min_joins=20, suite=((8, 12, 2),),
    ),
}

PAPER_SIZES = {
    "full": PaperSize(
        users=200, tasks=300, churn_rate=6.0, min_joins=240,
        suite=((10, 30, 6), (11, 30, 6), (12, 30, 6), (13, 30, 6), (14, 30, 2)),
    ),
    "tiny": PaperSize(
        users=30, tasks=40, churn_rate=6.0, min_joins=20, suite=((8, 20, 2),),
    ),
}

#: Seconds of ``--seconds`` that buy one pass (at least two passes).  With
#: the untimed warm-up and checks, a run takes about 1.6x ``--seconds``
#: of wall time on the reference VM.
PASS_SECONDS = {"serve-inline": 11.0, "serve-pooled": 11.0, "paper": 2.75}


def pass_count(workload: str, seconds: float) -> int:
    return max(2, int(seconds // PASS_SECONDS[workload]))


def derive(seed: int, *path: int) -> int:
    """A child seed of ``seed`` (stable across runs and platforms)."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Run:
    """Samples and operation counts of one workload run."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    churn_events: int = 0
    churn_seconds: float = 0.0
    #: (untraced, traced) converge seconds of the same instance.
    overhead_pair: tuple[float, float] | None = None

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def op(self, kind: str, n: int = 1) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + n

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        return {
            "setup_s": float(np.median(s["setup_s"])),
            "converge_s": float(np.median(s["converge_s"])),
            "churn_users_per_s": self.churn_events / self.churn_seconds,
            "join_ms_p50": 1e3 * float(np.percentile(s["join_s"], 50)),
            "join_ms_p95": 1e3 * float(np.percentile(s["join_s"], 95)),
            "round_ms_p50": 1e3 * float(np.median(s["round_s"])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "optimum_s": float(sum(s["optimum_s"])),
        }


def timed(fn, *args, **kwargs):
    """``(fn(...), seconds)`` after a full collection, so garbage left by
    earlier phases is not collected inside the timed call."""
    gc.collect()
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


# ------------------------------------------------------------ serving layer
class SessionView:
    """Oracle view of a :class:`ServeSession`: inputs in user-id order."""

    def __init__(self, sess) -> None:
        self.sess = sess
        self.refresh()

    def refresh(self) -> None:
        """Re-read membership (after joins/leaves)."""
        sess = self.sess
        #: oracle potential at the last check (None after a membership change).
        self.potential: float | None = None
        self.uids = np.asarray(sorted(sess.records), dtype=np.int64)
        self.inp = oracle.Inputs.from_records(
            sess.tasks, [sess.records[u] for u in self.uids.tolist()],
            sess.platform, sess.detour_unit_km,
        )

    def choices(self) -> np.ndarray:
        """Every member's current route, read from the shard engines."""
        out = np.full(self.uids.size, -1, dtype=np.int64)
        for engine in self.sess.engines:
            if engine is None:
                continue
            users = np.asarray(engine.spec.users)
            pos = np.minimum(np.searchsorted(self.uids, users), self.uids.size - 1)
            if np.any(self.uids[pos] != users):
                raise oracle.OracleError("a shard serves a user that is not a member")
            if np.any(out[pos] >= 0):
                raise oracle.OracleError("a user is served by two shards")
            out[pos] = engine.profile.choices
        if np.any(out < 0):
            raise oracle.OracleError("a member is served by no shard")
        return out

    def check(self, where: str, *, synced: bool = True) -> float:
        """Counts and potential against the program; returns the potential.

        ``sharded_potential()`` is compared only at sync points: a join
        moves the joiner to its best response after the session's last
        sync, which leaves the ledger correction stale until the next round.
        """
        choices = self.choices()
        oracle.check_counts(self.inp, choices, self.sess.counts, where=where)
        pot = oracle.potential(self.inp, choices)
        if synced:
            oracle.check_potential(pot, self.sess.sharded_potential(), where=where)
        self.potential = pot
        return pot

    def check_nash(self, where: str) -> None:
        oracle.check_nash(self.inp, self.choices(), where=where)


def serve_round(view: SessionView, run: Run, where: str):
    """One timed serving round, checked: the potential must not fall and a
    round claiming quiescence must be a Nash equilibrium."""
    before = view.potential if view.potential is not None else view.check(where)
    report, seconds = timed(view.sess.run_round)
    run.op("rounds")
    after = view.check(where)
    oracle.check_non_decreasing(before, after, where=where)
    if report.converged:
        view.check_nash(where)
    return report, seconds


def converge(view: SessionView, run: Run, where: str) -> float:
    """Rounds until one grants nothing; returns the summed round time."""
    total = 0.0
    for _ in range(MAX_ROUNDS):
        report, seconds = serve_round(view, run, where)
        total += seconds
        if report.converged:
            run.op("converges")
            return total
    raise oracle.OracleError(f"{where}: no quiescence within {MAX_ROUNDS} rounds")


def churn(view: SessionView, factory, run: Run, *, rate, min_joins, seed,
          between=None) -> None:
    """Seeded Poisson join/leave batches with one round after each, until
    ``min_joins`` joins; the phase time excludes the checks between batches
    and ``between(batch)``, called after batch 1, 2, ... has been checked.

    The join/leave mix is the program's own ``ChurnSchedule`` default (half
    the events are leaves), the one its capacity benchmark and serve CLI use.
    """
    from repro.serve.churn import ChurnSchedule

    sess = view.sess
    schedule = ChurnSchedule(rate=rate, seed=seed)
    members = len(sess.records)
    joins = leaves = batches = 0
    while joins < min_joins:
        n_join, leave_ids = schedule.next_round(sorted(sess.records))
        gc.collect()
        t0 = perf_counter()
        for uid in leave_ids:
            sess.leave(uid)
        for _ in range(n_join):
            j0 = perf_counter()
            sess.join(factory(sess.next_user_id()))
            run.sample("join_s", perf_counter() - j0)
        run.churn_seconds += perf_counter() - t0
        joins += n_join
        leaves += len(leave_ids)
        run.op("joins", n_join)
        run.op("leaves", len(leave_ids))
        run.churn_events += n_join + len(leave_ids)
        view.refresh()
        view.check("churn", synced=n_join == 0)
        _, seconds = serve_round(view, run, "churn")
        run.churn_seconds += seconds
        run.sample("round_s", seconds)
        batches += 1
        if between is not None:
            between(batches)
    if len(sess.records) != members - leaves + joins:
        raise oracle.OracleError(
            f"churn: {len(sess.records)} members, expected "
            f"{members} - {leaves} + {joins}"
        )


def _serve_instance(cfg: ServeSize, seed: int, processes):
    from repro.serve.churn import synthetic_serve_instance
    from repro.serve.session import ServeSession

    tasks, platform, records, partition, factory = synthetic_serve_instance(
        cfg.users, cfg.tasks, cfg.shards, locality=cfg.locality, seed=seed
    )
    sess = ServeSession(
        tasks=tasks, platform=platform, records=records, partition=partition,
        scheduler="puu", seed=seed, processes=processes,
    )
    return sess, factory


def _suite_slice(suite, p: int, passes: int):
    """Pass ``p``'s share of a fixed CORN suite: ``(users, tasks, seed)``."""
    items = [
        (users, n_tasks, derive(SUITE_SEED, users, n_tasks, i))
        for users, n_tasks, count in suite
        for i in range(count)
    ]
    return items[p::passes]


def serve_workload(run: Run, seed: int, *, processes, size: str, passes: int,
                   tracer=None) -> None:
    """serve-inline (``processes=None``) or serve-pooled (``processes=2``)."""
    from repro.core.shm import os_segments

    cfg = SERVE_SIZES[size]
    segments_before = set(os_segments())
    _warm_serve(processes)
    if tracer is not None:
        run.overhead_pair = (_untraced_converge(cfg, derive(seed, 0), processes), 0.0)
        _activate(tracer)
    for p in range(passes):
        _serve_pass(cfg, seed, p, passes, processes, run)
        leaked = set(os_segments()) - segments_before
        if leaked:
            raise oracle.OracleError(
                f"leaked shared-memory segments: {sorted(leaked)}"
            )


def _serve_pass(cfg: ServeSize, seed: int, p: int, passes: int, processes,
                run: Run) -> None:
    """Cold set-up and converge, a churn segment with the pass's CORN
    slice solved one item at a time between its batches, a final converge.

    Slowdowns of this VM last seconds; solved back to back, a pass's slice
    would time one such window, spread out it samples the whole segment.
    """
    (sess, factory), setup = timed(_serve_instance, cfg, derive(seed, p), processes)
    joins = -(-cfg.min_joins // passes)
    pending = _suite_slice(cfg.suite, p, passes)
    # Expected batches (half of the events are joins) per suite item.
    every = max(1, round(joins / (cfg.churn_rate / 2) / max(1, len(pending))))

    def between(batch: int) -> None:
        if pending and batch % every == 0:
            _serve_suite([pending.pop(0)], cfg, run)

    with sess:
        run.sample("setup_s", setup)
        view = SessionView(sess)
        seconds = converge(view, run, f"pass {p}")
        run.sample("converge_s", seconds)
        if p == 0 and run.overhead_pair is not None:
            run.overhead_pair = (run.overhead_pair[0], seconds)
        churn(view, factory, run, rate=cfg.churn_rate, min_joins=joins,
              seed=derive(seed, p, 1), between=between)
        converge(view, run, f"pass {p} final")
    _serve_suite(pending, cfg, run)


def _serve_suite(items, cfg: ServeSize, run: Run) -> None:
    """CORN on small K=1 sessions; their PUU Nash profit is the lower side."""
    from repro.core.game import RouteNavigationGame
    from repro.serve.churn import synthetic_serve_instance
    from repro.serve.session import ServeSession

    for users, n_tasks, s in items:
        tasks, platform, records, _, _ = synthetic_serve_instance(
            users, n_tasks, 1, locality=cfg.locality, seed=s
        )
        game = RouteNavigationGame.build(
            tasks, [r.routes for r in records], [r.weights for r in records],
            platform,
        )
        with ServeSession(tasks=tasks, platform=platform, records=records,
                          scheduler="puu", seed=s) as sess:
            view = SessionView(sess)
            converge(view, run, "suite")
            nash = oracle.total_profit(view.inp, view.choices())
        _optimum(game, s, [nash], run)


def _optimum(game, seed: int, nash_profits: list[float], run: Run) -> None:
    """Timed CORN solve, checked against Nash profits and brute force."""
    from repro.algorithms.corn import CORN

    inp = oracle.Inputs.from_raw(game.tasks, game.route_sets,
                                 game.user_weights, game.platform,
                                 game.detour_unit_km)
    result, seconds = timed(CORN(seed=seed).run, game)
    run.op("optimum_solves")
    run.sample("optimum_s", seconds)
    best = oracle.total_profit(inp, result.profile.choices)
    tol = oracle.POTENTIAL_RTOL * max(1.0, abs(best))
    for nash in nash_profits:
        if best < nash - tol:
            raise oracle.OracleError(
                f"CORN optimum {best!r} is below a Nash profit {nash!r}"
            )
    exact = oracle.brute_force_optimum(inp, limit=BRUTE_FORCE_LIMIT)
    if exact is not None and not np.isclose(best, exact, rtol=oracle.POTENTIAL_RTOL, atol=0.0):
        raise oracle.OracleError(
            f"CORN optimum {best!r} differs from brute force {exact!r}"
        )


def _warm_serve(processes) -> None:
    """Imports and first-call set-up of every serve path, untimed."""
    cfg = SERVE_SIZES["tiny"]
    sess, factory = _serve_instance(cfg, 1, processes)
    with sess:
        sess.run_to_convergence(max_rounds=MAX_ROUNDS)
        sess.leave(min(sess.records))
        sess.join(factory(sess.next_user_id()))
        sess.run_round()
    _serve_suite(_suite_slice(cfg.suite, 0, 1), cfg, Run())


def _untraced_converge(cfg: ServeSize, seed: int, processes) -> float:
    """Converge seconds of one instance before the wrappers go in."""
    sess, _ = _serve_instance(cfg, seed, processes)
    with sess:
        return converge(SessionView(sess), Run(), "untraced")


def _activate(tracer) -> None:
    import tracing

    tracing.install(tracer)
    tracer.active = True


# -------------------------------------------------------------------- paper
def _protocols(game, seed: int, run: Run, where: str) -> tuple[float, list[float]]:
    """SUU then PUU message-passing runs to Nash; returns the timed seconds
    and the Nash total profits."""
    from repro.core.potential import potential
    from repro.distributed import DistributedSimulation

    inp = oracle.Inputs.from_raw(game.tasks, game.route_sets,
                                 game.user_weights, game.platform,
                                 game.detour_unit_km)
    total = 0.0
    profits = []
    for k, scheduler in enumerate(("suu", "puu")):
        sim = DistributedSimulation(game, scheduler=scheduler,
                                    seed=derive(seed, k), record_history=False)
        delivered = _count_deliveries(sim.bus)
        outcome, seconds = timed(sim.run)
        total += seconds
        run.op("protocol_runs")
        label = f"{where} {scheduler}"
        if not outcome.converged:
            raise oracle.OracleError(f"{label}: protocol stopped without quiescence")
        if delivered[0] != outcome.total_messages or outcome.dropped_messages:
            raise oracle.OracleError(
                f"{label}: {delivered[0]} messages delivered, "
                f"{outcome.total_messages} sent"
            )
        choices = outcome.profile.choices
        oracle.check_nash(inp, choices, where=label)
        oracle.check_potential(oracle.potential(inp, choices),
                               potential(outcome.profile), where=label)
        profits.append(oracle.total_profit(inp, choices))
    return total, profits


def _count_deliveries(bus) -> list[int]:
    """Count every message a recipient takes out of its mailbox."""
    delivered = [0]
    drain = bus.drain

    def counting(recipient):
        out = drain(recipient)
        delivered[0] += len(out)
        return out

    bus.drain = counting
    return delivered


def _scenario(users: int, tasks: int, seed: int):
    from repro.scenario import ScenarioConfig
    from repro.scenario import builder

    return builder.build_scenario(
        ScenarioConfig(city="shanghai", n_users=users, n_tasks=tasks, seed=seed)
    )


def paper_workload(run: Run, seed: int, *, size: str, passes: int,
                   tracer=None) -> None:
    """Shanghai scenarios: protocol runs, road-network churn, CORN suite."""
    cfg = PAPER_SIZES[size]
    _warm_paper()
    if tracer is not None:
        game = _scenario(cfg.users, cfg.tasks, derive(seed, 0)).game
        run.overhead_pair = (_protocols(game, derive(seed, 0), Run(), "untraced")[0], 0.0)
        _activate(tracer)
    for p in range(passes):
        _paper_pass(cfg, seed, p, passes, run)
        _paper_suite(_suite_slice(cfg.suite, p, passes), run)


def _paper_pass(cfg: PaperSize, seed: int, p: int, passes: int, run: Run) -> None:
    """Scenario build, SUU and PUU protocol runs, then road-network churn
    on a serving session over the same scenario."""
    from repro.serve.churn import ScenarioUserFactory
    from repro.serve.session import ServeSession

    sc, setup = timed(_scenario, cfg.users, cfg.tasks, derive(seed, p))
    run.sample("setup_s", setup)
    seconds, _ = _protocols(sc.game, derive(seed, p), run, f"pass {p}")
    run.sample("converge_s", seconds)
    if p == 0 and run.overhead_pair is not None:
        run.overhead_pair = (run.overhead_pair[0], seconds)
    with ServeSession.from_scenario(sc, scheduler="puu",
                                    seed=derive(seed, p, 1)) as sess:
        view = SessionView(sess)
        converge(view, run, f"pass {p} road session")
        churn(view, ScenarioUserFactory(sc, seed=derive(seed, p, 2)), run,
              rate=cfg.churn_rate,
              min_joins=-(-cfg.min_joins // passes), seed=derive(seed, p, 3))
        converge(view, run, f"pass {p} final")


def _paper_suite(items, run: Run) -> None:
    """CORN on Fig. 7 / Table 4-size scenarios, against protocol Nash."""
    for users, n_tasks, s in items:
        game = _scenario(users, n_tasks, s).game
        _, nash = _protocols(game, s, run, "suite")
        _optimum(game, s, nash, run)


def _warm_paper() -> None:
    """Imports and first-call set-up of every paper path, untimed."""
    from repro.serve.churn import ScenarioUserFactory
    from repro.serve.session import ServeSession

    cfg = PAPER_SIZES["tiny"]
    sc = _scenario(cfg.users, cfg.tasks, 1)
    _protocols(sc.game, 1, Run(), "warm-up")
    with ServeSession.from_scenario(sc, scheduler="puu", seed=1) as sess:
        sess.run_to_convergence(max_rounds=MAX_ROUNDS)
        sess.join(ScenarioUserFactory(sc, seed=1)(sess.next_user_id()))
        sess.run_round()
    _paper_suite(_suite_slice(cfg.suite, 0, 1), Run())


WORKLOADS = {
    "serve-inline": lambda run, seed, **kw: serve_workload(run, seed, processes=None, **kw),
    "serve-pooled": lambda run, seed, **kw: serve_workload(run, seed, processes=2, **kw),
    "paper": paper_workload,
}
