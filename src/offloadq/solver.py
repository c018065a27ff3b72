"""Discounted policy iteration, value iteration and policy evaluation.

:func:`policy_iterate` is the default solver: policy iteration that
evaluates each policy exactly by a sparse LU solve over its
post-decision states and improves it by a ``LOOKAHEAD``-step lookahead
(the next policy is greedy for ``T^(LOOKAHEAD-1) v``, not for ``v``),
stopping when no state improves.
It is also the one way to continue or warm-start a solve: ``pi0`` takes
the policy of an unfinished solve or the optimum of a neighbouring load.
:func:`value_iterate` is the oracle.  Its sweeps are synchronous (Jacobi):
each new table is computed from the complete previous table, which keeps
results independent of state order and bit-reproducible.  Iteration
always starts from the all-zero table, so the iterates increase pointwise
toward the fixed point.  Both solvers report the sup-norm Bellman
residual of the returned table, which certifies the error bound
``alpha * residual / (1 - alpha)``.  Each returns its policy as a
``kernel.PolicyTable``, the object the simulator runs as it is.

Every sweep and evaluation gathers one vector, the post-decision values
``cost0 + alpha * E v`` plus a ``+inf`` sentinel, through a post-action
map; value iteration and iterative evaluation share one residual loop.

A solve is stored as one complete artifact, written by
:func:`save_checkpoint` and read back and validated by
:func:`load_checkpoint`.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .kernel import (
    DiscountSpec,
    PolicyTable,
    StateSpace,
    TransitionKernel,
    build_state_space,
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


def _post_values(kernel: TransitionKernel, values: np.ndarray) -> np.ndarray:
    """``cost0 + alpha * E v``, the value of each post-decision state, then ``+inf``."""
    w = kernel.cost0 + kernel.discount.alpha * (kernel.events @ values)
    return np.concatenate((w, [np.inf]))


def _converge(step, values, tol, max_iters, discount, method) -> ValueTable:
    """Apply ``step`` until one application moves no entry by more than ``tol``."""
    residual, k = float("inf"), 0
    while k < max_iters:
        k += 1
        v_new = step(values)
        residual = float(np.max(np.abs(v_new - values)))
        values = v_new
        if residual <= tol:
            return ValueTable(values, discount, k, residual, True, tol, method)
    return ValueTable(values, discount, k, residual, False, tol, method)


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


def bellman_backup(
    kernel: TransitionKernel, values: np.ndarray
) -> tuple[ValueTable, PolicyTable]:
    """One synchronous sweep of the optimality operator with greedy extraction."""
    v_new, greedy = _greedy(kernel, values)
    residual = float(np.max(np.abs(v_new - values)))
    table = ValueTable(
        values=v_new,
        discount=kernel.discount,
        iterations=1,
        residual=residual,
        converged=False,
        method=VALUE_ITERATION,
    )
    return table, PolicyTable(greedy)


def value_iterate(
    kernel: TransitionKernel, tol: float = 1e-9, max_iters: int = 2_000_000
) -> tuple[ValueTable, PolicyTable]:
    """Iterate Bellman sweeps from the all-zero table to a sup-norm residual of ``tol``.

    Hitting ``max_iters`` returns the last table with ``converged=False``
    rather than raising.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    table = _converge(lambda v: q_table(kernel, v).min(axis=0), np.zeros(kernel.space.size),
                      tol, max_iters, kernel.discount, VALUE_ITERATION)
    return table, PolicyTable(_greedy(kernel, table.values)[1])


def evaluate_policy(
    kernel: TransitionKernel,
    pi: PolicyTable,
    method: str = "iterative",
    tol: float = 1e-13,
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
    n = kernel.space.size
    if pi.n_max != kernel.space.n_max:
        raise ValueError(f"policy table has cap {pi.n_max}, kernel has cap {kernel.space.n_max}")
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
                         10_000_000, kernel.discount, POLICY_EVALUATION)
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
    alpha 0.999.  The start is ``pi0`` or the greedy policy of the all-zero
    table.  ``pi0`` warm-starts a solve from the optimum of a neighbouring
    load, or continues an unfinished one from its stored policy; resuming
    a one-step artifact of reference config a or b (n_max 60,
    alpha 0.999) takes 3 steps and returns the cold solve's values and
    policy bit for bit.
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
    actions = _greedy(kernel, values)[1] if pi0 is None else pi0.actions
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
    or discount, an unknown action code or one its state does not admit,
    or tables whose length does not fit the queue cap.
    """
    # np.load leaves a file it opened open when the archive is unreadable,
    # and reads members lazily: read them all while the file is open
    with open(path, "rb") as fh:
        try:
            data = np.load(fh)
            data = dict(data) if isinstance(data, np.lib.npyio.NpzFile) else None
        except (ValueError, EOFError, zipfile.BadZipFile):  # not numpy's, cut short or corrupt
            data = None
    if data is None:
        raise ValueError(f"artifact {path} is not an npz archive")
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
    n_max = int(data["n_max"])
    size = 4 * (n_max + 1) ** 2
    if table.values.shape != (size,):
        raise ValueError(
            f"checkpoint values has shape {table.values.shape}, but its queue cap "
            f"{n_max} needs ({size},)"
        )
    policy = PolicyTable(data["policy"], n_max)
    params = derive_rates(
        float(data["lam"]),
        float(data["mu0"]),
        float(data["cloud_speedup"]),
        float(data["local_fraction"]),
    )
    return Checkpoint(table=table, policy=policy, params=params, n_max=n_max)
