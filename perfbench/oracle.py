"""Plain-numpy oracle for the route-navigation game.

Recomputes everything the benchmark checks from the raw inputs — task
rewards ``a_k``/``mu_k``, each route's covered ``task_ids``, detour
``detour_km / detour_unit_km`` and congestion, the user weights
``alpha/beta/gamma`` and the platform weights ``phi/theta`` — without
importing ``repro.core``:

- task counts ``n_k`` from every user's chosen route;
- Eq. 2 profits ``P_i = alpha_i sum_{k in L} w_k(n_k)/n_k - beta_i phi h
  - gamma_i theta c`` with ``w_k(n) = a_k + mu_k ln n``;
- every unilateral deviation (Nash iff no user gains by moving);
- the Eq. 8 potential;
- the exact optimum of Eq. 5 by enumeration, for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: A deviation gain above this is an improving move.  The program's own
#: strict-improvement tolerance is 1e-9; the extra slack absorbs the
#: different float summation order of this implementation.
NASH_ATOL = 1e-8
#: Potential identity tolerance (the serving layer's ledger tolerance).
POTENTIAL_RTOL = 1e-9
#: (route, task) entries per block of the deviation check.
ENTRY_BLOCK = 16_384


class OracleError(AssertionError):
    """A program output disagrees with the oracle."""


@dataclass(frozen=True)
class Inputs:
    """One game instance as flat arrays (users in the caller's order)."""

    a: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    phi: float
    theta: float
    #: routes of user ``i`` are ``route_ptr[i]:route_ptr[i+1]``.
    route_ptr: np.ndarray
    #: tasks of route ``r`` are ``task_ids[task_ptr[r]:task_ptr[r+1]]``.
    task_ptr: np.ndarray
    task_ids: np.ndarray
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def from_raw(cls, tasks, route_sets, weights, platform, detour_unit_km):
        """Build from tasks, per-user route tuples and per-user weights."""
        routes = [r for rs in route_sets for r in rs]
        lens = [len(r.task_ids) for r in routes]
        return cls(
            a=np.array([t.base_reward for t in tasks], dtype=float),
            mu=np.array([t.reward_increment for t in tasks], dtype=float),
            alpha=np.array([w.alpha for w in weights], dtype=float),
            beta=np.array([w.beta for w in weights], dtype=float),
            gamma=np.array([w.gamma for w in weights], dtype=float),
            phi=float(platform.phi),
            theta=float(platform.theta),
            route_ptr=np.concatenate(
                [[0], np.cumsum([len(rs) for rs in route_sets])]
            ).astype(np.int64),
            task_ptr=np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
            task_ids=np.array(
                [k for r in routes for k in r.task_ids], dtype=np.int64
            ),
            h=np.array([r.detour_km for r in routes], dtype=float)
            / float(detour_unit_km),
            c=np.array([r.congestion for r in routes], dtype=float),
        )

    @classmethod
    def from_records(cls, tasks, records, platform, detour_unit_km):
        """Build from serving-layer user records (users in list order)."""
        return cls.from_raw(
            tasks, [r.routes for r in records], [r.weights for r in records],
            platform, detour_unit_km,
        )

    # ----------------------------------------------------------- derived
    @property
    def num_users(self) -> int:
        return self.alpha.size

    @property
    def num_tasks(self) -> int:
        return self.a.size

    def route_user(self) -> np.ndarray:
        return np.repeat(
            np.arange(self.num_users), np.diff(self.route_ptr)
        )

    def route_cost(self) -> np.ndarray:
        """``beta_i phi h(r) + gamma_i theta c(r)`` per route (Eqs. 3-4)."""
        u = self.route_user()
        return self.beta[u] * self.phi * self.h + self.gamma[u] * self.theta * self.c

    def entry_route(self) -> np.ndarray:
        return np.repeat(np.arange(self.h.size), np.diff(self.task_ptr))

    def chosen_routes(self, choices) -> np.ndarray:
        choices = np.asarray(choices, dtype=np.int64)
        if choices.shape != (self.num_users,):
            raise OracleError(
                f"profile has {choices.size} entries for {self.num_users} users"
            )
        n_routes = np.diff(self.route_ptr)
        if np.any(choices < 0) or np.any(choices >= n_routes):
            raise OracleError("profile picks a route the user does not have")
        return self.route_ptr[:-1] + choices

    def share(self, n: np.ndarray, tasks: np.ndarray | None = None) -> np.ndarray:
        """``w_k(n)/n`` (0 where ``n == 0``)."""
        a = self.a if tasks is None else self.a[tasks]
        mu = self.mu if tasks is None else self.mu[tasks]
        n = np.asarray(n, dtype=float)
        safe = np.maximum(n, 1.0)
        return np.where(n >= 1.0, (a + mu * np.log(safe)) / safe, 0.0)


def counts(inp: Inputs, choices) -> np.ndarray:
    """``n_k``: users whose chosen route covers task ``k``."""
    chosen = inp.chosen_routes(choices)
    mask = np.zeros(inp.h.size, dtype=bool)
    mask[chosen] = True
    covered = inp.task_ids[mask[inp.entry_route()]]
    return np.bincount(covered, minlength=inp.num_tasks)


def deviation_profits(inp: Inputs, choices) -> tuple[np.ndarray, np.ndarray]:
    """``P_i(r, s_-i)`` for every route ``r`` of every user ``i``.

    Returns ``(route_profit, chosen)``; ``route_profit[chosen[i]]`` is user
    ``i``'s actual Eq. 2 profit.  The (route, task) entries are walked in
    blocks of :data:`ENTRY_BLOCK`, so the check's own memory stays far
    below the program's on the 10k-user instances.
    """
    chosen = inp.chosen_routes(choices)
    n = counts(inp, choices)
    route_user = inp.route_user()
    entry_route = inp.entry_route()
    on_chosen = np.zeros(inp.h.size, dtype=bool)
    on_chosen[chosen] = True
    # Key (user, task) of every task on a user's current route: a
    # candidate route's task is counted without the user's own presence.
    mine = on_chosen[entry_route]
    cur = np.sort(route_user[entry_route[mine]] * inp.num_tasks + inp.task_ids[mine])
    del mine
    reward = np.zeros(inp.h.size)
    for lo in range(0, entry_route.size, ENTRY_BLOCK):
        er = entry_route[lo:lo + ENTRY_BLOCK]
        tasks = inp.task_ids[lo:lo + ENTRY_BLOCK]
        keys = route_user[er] * inp.num_tasks + tasks
        own = np.zeros(keys.size, dtype=bool)
        if cur.size:
            pos = np.minimum(np.searchsorted(cur, keys), cur.size - 1)
            own = cur[pos] == keys
        n_with = n[tasks] - own + 1
        reward += np.bincount(er, weights=inp.share(n_with, tasks),
                              minlength=inp.h.size)
    return inp.alpha[route_user] * reward - inp.route_cost(), chosen


def profits(inp: Inputs, choices) -> np.ndarray:
    """Eq. 2 profit of every user."""
    route_profit, chosen = deviation_profits(inp, choices)
    return route_profit[chosen]


def total_profit(inp: Inputs, choices) -> float:
    """Eq. 5 objective."""
    return float(profits(inp, choices).sum())


def max_gains(inp: Inputs, choices) -> np.ndarray:
    """Best unilateral deviation gain of every user (0 at a best response)."""
    route_profit, chosen = deviation_profits(inp, choices)
    best = np.maximum.reduceat(route_profit, inp.route_ptr[:-1])
    return best - route_profit[chosen]


def potential(inp: Inputs, choices) -> float:
    """Eq. 8: ``sum_k sum_{q<=n_k} w_k(q)/q - sum_i cost(s_i)/alpha_i``."""
    n = counts(inp, choices)
    top = int(n.max()) if n.size else 0
    q = np.arange(1, top + 1, dtype=float)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / q)])
    log_harmonic = np.concatenate([[0.0], np.cumsum(np.log(q) / q)])
    task_part = float(np.sum(inp.a * harmonic[n] + inp.mu * log_harmonic[n]))
    chosen = inp.chosen_routes(choices)
    cost_part = float(np.sum(inp.route_cost()[chosen] / inp.alpha))
    return task_part - cost_part


# ------------------------------------------------------------------ checks
def check_nash(inp: Inputs, choices, *, where: str) -> None:
    """Raise unless no user can gain more than :data:`NASH_ATOL` by moving."""
    gains = max_gains(inp, choices)
    worst = int(np.argmax(gains)) if gains.size else 0
    if gains.size and gains[worst] > NASH_ATOL:
        raise OracleError(
            f"{where}: not a Nash equilibrium — user #{worst} gains "
            f"{gains[worst]:.3e} by deviating"
        )


def check_counts(inp: Inputs, choices, program_counts, *, where: str) -> None:
    """Raise unless the program's task counts equal the recomputed ones."""
    mine = counts(inp, choices)
    theirs = np.asarray(program_counts)
    if mine.shape != theirs.shape or not np.array_equal(mine, theirs):
        bad = np.flatnonzero(mine != theirs)
        raise OracleError(
            f"{where}: task counts differ on {bad.size} task(s), "
            f"first {bad[:5].tolist()}"
        )


def check_potential(value: float, program_value: float, *, where: str) -> None:
    """Raise unless the program's potential equals the oracle's (rtol 1e-9)."""
    if not np.isclose(value, program_value, rtol=POTENTIAL_RTOL, atol=0.0):
        raise OracleError(
            f"{where}: potential {program_value!r} differs from the Eq. 8 "
            f"recomputation {value!r} beyond rtol {POTENTIAL_RTOL}"
        )


def check_non_decreasing(before: float, after: float, *, where: str) -> None:
    """Raise if the potential fell across a converge round (Eq. 11)."""
    if after < before - POTENTIAL_RTOL * max(1.0, abs(before)):
        raise OracleError(
            f"{where}: potential decreased {before!r} -> {after!r}"
        )


# ---------------------------------------------------------- brute force
def brute_force_optimum(inp: Inputs, *, limit: int, chunk: int = 1_000):
    """Exact Eq. 5 optimum by enumerating every profile.

    Returns ``None`` when the strategy space exceeds ``limit`` profiles.
    """
    n_routes = np.diff(inp.route_ptr)
    space = int(np.prod(n_routes.astype(object)))
    if space > limit:
        return None
    incidence = np.zeros((inp.h.size, inp.num_tasks))
    incidence[inp.entry_route(), inp.task_ids] = 1.0
    cost = inp.route_cost()
    best = -np.inf
    for lo in range(0, space, chunk):
        idx = np.arange(lo, min(space, lo + chunk), dtype=np.int64)
        cnt = np.zeros((idx.size, inp.num_tasks))
        mass = np.zeros((idx.size, inp.num_tasks))
        total_cost = np.zeros(idx.size)
        rest = idx
        for i in range(inp.num_users):
            r = inp.route_ptr[i] + rest % n_routes[i]
            rest = rest // n_routes[i]
            cnt += incidence[r]
            mass += inp.alpha[i] * incidence[r]
            total_cost += cost[r]
        safe = np.maximum(cnt, 1.0)
        shares = np.where(cnt >= 1.0, (inp.a + inp.mu * np.log(safe)) / safe, 0.0)
        values = (mass * shares).sum(axis=1) - total_cost
        best = max(best, float(values.max()))
    return best
