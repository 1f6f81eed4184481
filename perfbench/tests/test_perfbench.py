"""Self-tests of the benchmark: oracle, tracing, smoke runs, transport identity.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402


def _nash_session(seed=3, users=60, tasks=20):
    from repro.serve.churn import synthetic_serve_instance
    from repro.serve.session import ServeSession

    tasks_, platform, records, partition, _ = synthetic_serve_instance(
        users, tasks, 1, seed=seed
    )
    sess = ServeSession(tasks=tasks_, platform=platform, records=records,
                        partition=partition, scheduler="puu", seed=seed)
    sess.run_to_convergence()
    return sess


def test_oracle_matches_program_on_a_random_profile():
    from repro.core.potential import potential
    from repro.core.profile import StrategyProfile
    from repro.core.profit import all_profits
    from repro.scenario import ScenarioConfig, build_scenario

    game = build_scenario(ScenarioConfig(n_users=25, n_tasks=40, seed=4)).game
    inp = oracle.Inputs.from_raw(game.tasks, game.route_sets,
                                 game.user_weights, game.platform,
                                 game.detour_unit_km)
    profile = StrategyProfile.random(game, np.random.default_rng(0))
    choices = profile.choices
    assert np.array_equal(oracle.counts(inp, choices), profile.counts)
    np.testing.assert_allclose(oracle.profits(inp, choices),
                               all_profits(profile), rtol=1e-12, atol=1e-12)
    oracle.check_potential(oracle.potential(inp, choices), potential(profile),
                           where="random profile")


def test_brute_force_matches_exhaustive_optimum():
    from repro.algorithms.corn import exhaustive_optimum
    from repro.scenario import ScenarioConfig, build_scenario

    game = build_scenario(ScenarioConfig(n_users=6, n_tasks=15, seed=9)).game
    inp = oracle.Inputs.from_raw(game.tasks, game.route_sets,
                                 game.user_weights, game.platform,
                                 game.detour_unit_km)
    _, best = exhaustive_optimum(game)
    exact = oracle.brute_force_optimum(inp, limit=10**6, chunk=7)
    assert np.isclose(exact, best, rtol=1e-12)
    assert oracle.brute_force_optimum(inp, limit=1) is None


def test_oracle_accepts_nash_and_rejects_a_user_moved_off_its_best_response():
    sess = _nash_session()
    view = workloads.SessionView(sess)
    choices = view.choices()
    view.check("converged")
    view.check_nash("converged")
    # Move the user with the largest loss from leaving its best response.
    route_profit, chosen = oracle.deviation_profits(view.inp, choices)
    losses = [
        (route_profit[chosen[i]] - route_profit[r], i, r - view.inp.route_ptr[i])
        for i in range(view.inp.num_users)
        for r in range(view.inp.route_ptr[i], view.inp.route_ptr[i + 1])
    ]
    loss, user, route = max(losses)
    assert loss > 1e-3
    broken = choices.copy()
    broken[user] = route
    with pytest.raises(oracle.OracleError, match="not a Nash equilibrium"):
        oracle.check_nash(view.inp, broken, where="broken")


def test_oracle_rejects_potential_off_by_one_millionth():
    sess = _nash_session()
    view = workloads.SessionView(sess)
    pot = view.check("converged")
    oracle.check_potential(pot, sess.sharded_potential(), where="exact")
    with pytest.raises(oracle.OracleError, match="potential"):
        oracle.check_potential(pot, pot * (1 + 1e-6), where="perturbed")
    with pytest.raises(oracle.OracleError, match="decreased"):
        oracle.check_non_decreasing(pot, pot * (1 - 1e-6), where="perturbed")


def test_oracle_rejects_wrong_counts():
    sess = _nash_session()
    view = workloads.SessionView(sess)
    counts = sess.counts.copy()
    counts[int(np.argmax(counts))] -= 1
    with pytest.raises(oracle.OracleError, match="task counts"):
        oracle.check_counts(view.inp, view.choices(), counts, where="broken")


def test_span_self_time_and_layer_metrics():
    rec = tracing.SpanRecorder()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        traced_child()

    traced_child = rec.wrap("distributed.bus", child)
    traced_parent = rec.wrap("distributed.user", parent)
    rec.active = True
    traced_parent()
    rec.active = False
    traced_parent()  # inactive: not recorded
    name, parent_idx, dur, self_t = rec.arrays()
    assert name.size == 2 and parent_idx.tolist() == [-1, 0]
    assert self_t[0] == pytest.approx(dur[0] - dur[1])
    out = tracing.layer_metrics(rec, 1.5)
    assert list(out) == list(tracing.LAYER_METRICS)
    assert out["distributed.bus.s"] == pytest.approx(dur[1])
    assert out["distributed.user.s"] == pytest.approx(self_t[0])
    assert out["trace.converge_overhead"] == 1.5


def test_install_and_uninstall_restore_the_program():
    from repro.core import responses
    from repro.core.game import RouteNavigationGame
    from repro.serve import session

    before = (responses.batch_best_updates, session.build_shard_spec,
              RouteNavigationGame.__dict__["build"])
    rec = tracing.SpanRecorder()
    tracing.install(rec)
    try:
        assert session.build_shard_spec is not before[1]
        assert isinstance(RouteNavigationGame.__dict__["build"], staticmethod)
    finally:
        rec.uninstall()
    after = (responses.batch_best_updates, session.build_shard_spec,
             RouteNavigationGame.__dict__["build"])
    assert after == before


def _final_state(processes):
    cfg = workloads.SERVE_SIZES["tiny"]
    sess, factory = workloads._serve_instance(cfg, 17, processes)
    run = workloads.Run()
    with sess:
        view = workloads.SessionView(sess)
        workloads.converge(view, run, "cold")
        workloads.churn(view, factory, run, rate=cfg.churn_rate,
                        min_joins=cfg.min_joins, seed=5)
        workloads.converge(view, run, "final")
        return (view.uids.copy(), view.choices(), sess.counts.copy(),
                oracle.total_profit(view.inp, view.choices()))


def test_inline_and_pooled_runs_end_identically():
    inline = _final_state(None)
    pooled = _final_state(2)
    assert np.array_equal(inline[0], pooled[0])
    assert np.array_equal(inline[1], pooled[1])
    assert np.array_equal(inline[2], pooled[2])
    assert inline[3] == pooled[3]


@pytest.mark.parametrize("workload", ["serve-inline", "serve-pooled", "paper"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = tracing.LAYER_METRICS if trace else END_TO_END
    assert list(result["metrics"]) == list(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == END_TO_END[m["name"]][0]
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.LAYER_METRICS[m["name"]]


def _session_members(sid: int) -> list[str]:
    """Processes of session ``sid``, read from /proc.  Zombies count: one
    left in the session ended after the run did, unwaited."""
    left = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid:
                left.append((entry / "cmdline").read_text().replace("\0", " "))
        except (OSError, IndexError):
            continue
    return left


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pooled_run_leaves_no_process_behind():
    """Pool workers and the shared-memory resource tracker end with the run."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve-pooled",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0
    assert _session_members(proc.pid) == []
