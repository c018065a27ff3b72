"""Discounted policy iteration, value iteration and policy evaluation.

:func:`policy_iterate` is the default solver: policy iteration that
evaluates each policy exactly by a sparse LU solve over its
post-decision states and improves it by a ``LOOKAHEAD``-step lookahead
(the next policy is greedy for ``T^(LOOKAHEAD-1) v``, not for ``v``),
stopping when no state improves.
:func:`value_iterate` is the oracle and the resume path.  Its sweeps are
synchronous (Jacobi): each new table is computed from the complete
previous table, which keeps results independent of state order and
bit-reproducible.  Iteration starts from the all-zero table, so the
iterates increase pointwise toward the fixed point.  Both solvers report
the sup-norm Bellman residual of the returned table, which certifies the
error bound ``alpha * residual / (1 - alpha)``.

Every sweep and evaluation gathers one vector, the post-decision values
``cost0 + alpha * E v`` plus a ``+inf`` sentinel, through a post-action
map; value iteration and iterative evaluation share one residual loop.

A solve is stored as one complete artifact, written by
:func:`save_checkpoint` and read back and validated by
:func:`load_checkpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .kernel import (
    DiscountSpec,
    StateSpace,
    TransitionKernel,
    build_state_space,
    check_action_codes,
)
from .model import Action, ModelParams, derive_rates

# preference order used to resolve near-ties in the greedy argmin: assign
# aggressively, idle only when strictly better
TIE_EPS = 1e-10
_TIE_ORDER = (Action.SM1_THEN_SM2, Action.SM1, Action.SM2, Action.IDLE)
# Bellman sweeps behind each policy-iteration improvement step; 25-200
# all take 2-4 steps at n_max 60, alpha 0.999, and 50 was fastest overall
LOOKAHEAD = 50
# default policy-iteration step budget; the reference solves take 2-4 steps
MAX_STEPS = 1_000

CHECKPOINT_FORMAT = 1
VALUE_ITERATION = "value_iteration"
POLICY_ITERATION = "policy_iteration"
POLICY_EVALUATION = "policy_evaluation"


@dataclass(frozen=True)
class ValueTable:
    """Dense cost-to-go table plus convergence metadata.

    ``method`` names what produced the table and so the unit of
    ``iterations``: Bellman sweeps for ``"value_iteration"``, evaluations
    for ``"policy_iteration"``, backup sweeps of one policy (0 for a
    direct solve) for ``"policy_evaluation"``; empty when unknown.
    """

    values: np.ndarray
    discount: DiscountSpec
    iterations: int = 0
    residual: float = float("inf")
    converged: bool = False
    tol: float = float("nan")
    method: str = ""

    @property
    def error_bound(self) -> float:
        """Sup-norm distance to the fixed point implied by the last residual."""
        a = self.discount.alpha
        return a * self.residual / (1.0 - a)


@dataclass(frozen=True)
class PolicyTable:
    """One action per state id, stored as the Action integer codes."""

    actions: np.ndarray

    def __post_init__(self) -> None:
        actions = np.asarray(self.actions)
        check_action_codes(actions)  # before the int8 cast, which would wrap
        object.__setattr__(self, "actions", np.asarray(actions, dtype=np.int8))

    def validate(self, kernel: TransitionKernel) -> None:
        ok = kernel.admissible[self.actions, np.arange(kernel.space.size)]
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise ValueError(
                f"policy prescribes inadmissible action {Action(int(self.actions[bad]))!r} "
                f"in state {kernel.space.state_of(bad)}"
            )


def _values_of(v) -> np.ndarray:
    return v.values if isinstance(v, ValueTable) else np.asarray(v, dtype=float)


def _sweeps_of(v) -> int:
    """Bellman sweeps behind ``v``; steps of other solvers are not sweeps."""
    return v.iterations if isinstance(v, ValueTable) and v.method == VALUE_ITERATION else 0


def _post_values(kernel: TransitionKernel, values: np.ndarray) -> np.ndarray:
    """``cost0 + alpha * E v``, the value of each post-decision state, then ``+inf``."""
    w = kernel.cost0 + kernel.discount.alpha * (kernel.events @ values)
    return np.concatenate((w, [np.inf]))


def _converge(step, values, tol, max_iters, discount, method, done=0) -> ValueTable:
    """Apply ``step`` until one application moves no entry by more than ``tol``.

    ``done`` counts earlier applications.
    """
    residual, k = float("inf"), 0
    while k < max_iters:
        k += 1
        v_new = step(values)
        residual = float(np.max(np.abs(v_new - values)))
        values = v_new
        if residual <= tol:
            return ValueTable(values, discount, done + k, residual, True, tol, method)
    return ValueTable(values, discount, done + k, residual, False, tol, method)


def q_table(kernel: TransitionKernel, values: np.ndarray) -> np.ndarray:
    """Action-value table of a value vector, one row per action; +inf on inadmissible pairs.

    The value of every post-action state, ``cost0 + alpha * E v``, is
    computed once and gathered through ``kernel.sentinel_post``.
    """
    n = kernel.space.size
    if values.shape != (n,):
        raise ValueError(f"value table has shape {values.shape}, kernel expects ({n},)")
    return _post_values(kernel, values)[kernel.sentinel_post]


def _greedy(kernel: TransitionKernel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Bellman sweep ``T v`` and the tie-ordered greedy actions of ``values``."""
    q = q_table(kernel, values)
    best = q.min(axis=0)
    greedy = np.zeros(q.shape[1], dtype=np.int8)
    unset = np.ones(q.shape[1], dtype=bool)
    for a in _TIE_ORDER:
        hit = unset & kernel.admissible[int(a)] & (q[int(a)] <= best + TIE_EPS)
        greedy[hit] = int(a)
        unset &= ~hit
    return best, greedy


def bellman_backup(kernel: TransitionKernel, v) -> tuple[ValueTable, PolicyTable]:
    """One synchronous sweep of the optimality operator with greedy extraction."""
    values = _values_of(v)
    v_new, greedy = _greedy(kernel, values)
    residual = float(np.max(np.abs(v_new - values)))
    table = ValueTable(
        values=v_new,
        discount=kernel.discount,
        iterations=_sweeps_of(v) + 1,
        residual=residual,
        converged=False,
        method=VALUE_ITERATION,
    )
    return table, PolicyTable(greedy)


def value_iterate(
    kernel: TransitionKernel,
    tol: float = 1e-9,
    max_iters: int = 2_000_000,
    v0: ValueTable | None = None,
) -> tuple[ValueTable, PolicyTable]:
    """Iterate Bellman sweeps to a sup-norm residual of ``tol``.

    ``v0`` resumes from an earlier table; the default start is the
    all-zero table.  The sweep count of a ``v0`` from this function (or a
    checkpoint of one) carries over; a table from another solver starts
    the count at 0, since its ``iterations`` are not sweeps.  Hitting
    ``max_iters`` returns the last table with ``converged=False`` rather
    than raising.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    n = kernel.space.size
    if v0 is not None and v0.values.shape != (n,):
        raise ValueError(f"resume table has shape {v0.values.shape}, kernel expects ({n},)")
    values = np.zeros(n) if v0 is None else v0.values.astype(float, copy=True)
    table = _converge(lambda v: q_table(kernel, v).min(axis=0), values, tol, max_iters,
                      kernel.discount, VALUE_ITERATION, _sweeps_of(v0))
    return table, PolicyTable(_greedy(kernel, table.values)[1])


def evaluate_policy(
    kernel: TransitionKernel,
    pi: PolicyTable,
    method: str = "iterative",
    tol: float = 1e-13,
    max_iters: int = 10_000_000,
    direct_size_limit: int | None = None,
) -> ValueTable:
    """Discounted cost-to-go of a fixed policy.

    ``direct`` solves a linear system (refused above ``direct_size_limit``
    states, when one is given); ``iterative`` applies the policy's own
    backup ``v <- c + alpha * P v``, the post-decision values gathered
    through ``post_pi`` below, until the residual drops below ``tol``.

    The direct solve works on post-decision states only.  With
    ``post_pi[s] = post[pi(s), s]``, ``v(s) = u(post_pi[s])``, where ``u``
    is the value of a post-decision state, before its event.  On the
    states ``X`` the policy can reach, ``X = unique(post_pi)``, ``u``
    solves ``(I - alpha * E[X] R_pi) u = cost0[X]``, with ``R_pi`` the
    0/1 matrix mapping each state to its post-decision state's index in
    ``X``.  In the reference solves at n_max 60, ``X`` holds 3,904-9,283
    of the 14,884 states, so the LU is that much smaller than one of
    ``(I - alpha * P_pi)``.
    """
    pi.validate(kernel)
    n = kernel.space.size
    post_pi = kernel.post[pi.actions, np.arange(n)]
    if method == "direct":
        if direct_size_limit is not None and n > direct_size_limit:
            raise ValueError(
                f"direct solve refused for {n} states (limit {direct_size_limit}); "
                "use method='iterative'"
            )
        x, col = np.unique(post_pi, return_inverse=True)
        e_x = kernel.events[x]
        e_r = sp.csr_matrix((e_x.data, col[e_x.indices], e_x.indptr), shape=(x.size, x.size))
        e_r.sum_duplicates()
        system = sp.eye(x.size, format="csr") - kernel.discount.alpha * e_r
        u = spla.spsolve(system.tocsc(), kernel.cost0[x])
        return ValueTable(
            u[col], kernel.discount, iterations=0, residual=0.0, converged=True,
            method=POLICY_EVALUATION,
        )
    if method == "iterative":
        return _converge(lambda v: _post_values(kernel, v)[post_pi], np.zeros(n), tol,
                         max_iters, kernel.discount, POLICY_EVALUATION)
    raise ValueError(f"unknown evaluation method {method!r}")


def policy_iterate(
    kernel: TransitionKernel,
    tol: float = 1e-9,
    max_iters: int = MAX_STEPS,
    pi0: PolicyTable | None = None,
) -> tuple[ValueTable, PolicyTable]:
    """Policy iteration: exact evaluation, then a lookahead improvement.

    Each step evaluates the current policy with
    ``evaluate_policy(method="direct")`` and stops if no state's action is
    worse than the best by more than ``TIE_EPS``.  Otherwise the next
    policy is the exact argmin of ``q_table(kernel, u)`` for
    ``u = T^(L-1) v``, with ``L = LOOKAHEAD`` Bellman sweeps ``T`` in all.
    Since ``v >= T v`` and ``T`` is monotone, ``u >= T u``, so the next
    policy's values satisfy ``v' <= T^L v <= T v``: they fall strictly
    wherever the stop test failed, and policies cannot cycle.  A one-step
    (Howard) improvement moves the switching front about one queue level
    per step; the lookahead cuts 28-46 steps to 3 at n_max 60,
    alpha 0.999.  The start is ``pi0`` (a warm start, e.g. the optimum of
    a neighbouring load) or the greedy policy of the all-zero table.
    ``iterations`` counts evaluations and ``max_iters`` caps them.
    ``converged`` means the last step improved no state and the Bellman
    residual of the returned values is within ``tol``; hitting the cap
    returns the last evaluation with ``converged=False``.  The returned
    policy is the tie-ordered greedy policy of the returned values, as for
    :func:`value_iterate`.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    n = kernel.space.size
    sids = np.arange(n)
    values = np.zeros(n)
    if pi0 is None:
        actions = _greedy(kernel, values)[1]
    else:
        pi0.validate(kernel)
        actions = pi0.actions.copy()
    done = 0
    stable = False
    while done < max_iters and not stable:
        values = evaluate_policy(kernel, PolicyTable(actions), method="direct").values
        done += 1
        q = q_table(kernel, values)
        best = q.min(axis=0)
        stable = not (q[actions, sids] > best + TIE_EPS).any()
        if not stable:
            u = best  # T v; L - 2 more sweeps make T^(L-1) v
            for _ in range(LOOKAHEAD - 2):
                u = q_table(kernel, u).min(axis=0)
            actions = q_table(kernel, u).argmin(axis=0).astype(np.int8)
    best, greedy = _greedy(kernel, values)
    residual = float(np.max(np.abs(best - values)))
    table = ValueTable(
        values=values,
        discount=kernel.discount,
        iterations=done,
        residual=residual,
        converged=stable and residual <= tol,
        tol=tol,
        method=POLICY_ITERATION,
    )
    return table, PolicyTable(greedy)


# every field save_checkpoint writes; load_checkpoint requires them all
_ARTIFACT_FIELDS = (
    "format_version", "values", "iterations", "residual", "converged", "tol", "method",
    "nu", "alpha", "beta", "policy", "lam", "mu0", "cloud_speedup", "local_fraction", "n_max",
)


def save_checkpoint(
    path: str, table: ValueTable, policy: PolicyTable, params: ModelParams, n_max: int
) -> None:
    """Write a solve artifact: values, greedy policy, model and queue cap.

    Layout (npz, format 1): ``format_version``; the value table under
    ``values`` with scalars ``iterations``, ``residual``, ``converged``,
    ``tol`` and the string ``method``; the discount under
    ``nu``/``alpha``/``beta``; the greedy policy under ``policy`` (Action
    codes); the model under ``lam``/``mu0``/``cloud_speedup``/
    ``local_fraction``; and the queue cap under ``n_max``.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT,
        "values": table.values,
        "iterations": table.iterations,
        "residual": table.residual,
        "converged": int(table.converged),
        "tol": table.tol,
        "method": table.method,
        "nu": table.discount.nu,
        "alpha": table.discount.alpha,
        "beta": table.discount.beta,
        "policy": policy.actions,
        "lam": params.lam,
        "mu0": params.mu0,
        "cloud_speedup": params.K,
        "local_fraction": params.f,
        "n_max": n_max,
    }
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


@dataclass(frozen=True)
class Checkpoint:
    table: ValueTable
    policy: PolicyTable
    params: ModelParams
    n_max: int

    def space(self) -> StateSpace:
        return build_state_space(self.n_max)


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate an artifact of :func:`save_checkpoint`.

    Raises ``ValueError`` when the file is not an npz archive, a field is
    missing, the format is unknown, or a field is inconsistent: bad rates
    or discount, an unknown action code, or tables whose length does not
    fit the queue cap.
    """
    data = np.load(path)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"artifact {path} is not an npz archive")
    with data:
        for name in _ARTIFACT_FIELDS:
            if name not in data:
                if name == "policy":
                    raise ValueError(f"artifact {path} lacks a stored policy table")
                raise ValueError(f"artifact {path} lacks the field {name!r}")
        version = int(data["format_version"])
        if version != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {version}")
        discount = DiscountSpec(
            nu=float(data["nu"]), alpha=float(data["alpha"]), beta=float(data["beta"])
        )
        table = ValueTable(
            values=data["values"],
            discount=discount,
            iterations=int(data["iterations"]),
            residual=float(data["residual"]),
            converged=bool(data["converged"]),
            tol=float(data["tol"]),
            method=str(data["method"]),
        )
        policy = PolicyTable(data["policy"])
        params = derive_rates(
            float(data["lam"]),
            float(data["mu0"]),
            float(data["cloud_speedup"]),
            float(data["local_fraction"]),
        )
        n_max = int(data["n_max"])
        size = 4 * (n_max + 1) ** 2
        for name in ("values", "policy"):
            if data[name].shape != (size,):
                raise ValueError(
                    f"checkpoint {name} has shape {data[name].shape}, but its queue cap "
                    f"{n_max} needs ({size},)"
                )
    return Checkpoint(table=table, policy=policy, params=params, n_max=n_max)
