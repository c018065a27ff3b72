"""Discounted policy iteration, value iteration and policy evaluation.

:func:`policy_iterate` is the default solver: policy iteration that
evaluates each policy exactly by a sparse LU solve over its
post-decision states (a symmetric minimum-degree ordering with pivots on
the diagonal, stable because the system is strictly diagonally dominant
by rows) and improves it by a ``LOOKAHEAD``-step lookahead
(the next policy is greedy for ``T^(LOOKAHEAD-1) v``, not for ``v``),
stopping when no state improves.  The first improvement looks ahead
``max(LOOKAHEAD, COLD_SWEEPS_PER_LEVEL * n_max)`` steps instead: the
start dispatches every job, and the switching front has to cross the
whole grid at about one queue level per sweep.
:func:`value_iterate` is the oracle.  Its sweeps are synchronous (Jacobi):
each new table is computed from the complete previous table, which keeps
results independent of state order and bit-reproducible.  Iteration
always starts from the all-zero table, so the iterates increase pointwise
toward the fixed point.  Both solvers report the sup-norm Bellman
residual of the returned table, which certifies the error bound
``alpha * residual / (1 - alpha)``.  Each returns its policy as a
``kernel.PolicyTable``, the object the simulator runs as it is.

Sweeps read the post-decision values ``cost0 + alpha * E v`` through
strided views of the state grid (``kernel.MOVE_SLICES``), evaluations through
a policy's post-action map; value iteration and iterative evaluation share one loop.

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
    MOVE_SLICES,
    N_ACTIONS,
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
_TIE_ORDER = np.array([Action.SM1_THEN_SM2, Action.SM1, Action.SM2, Action.IDLE], dtype=np.int8)
# Bellman sweeps behind each policy-iteration improvement step after the
# first; at K 8, f 0.4, n_max 60, alpha 0.999, of rho 0.1-0.9 and 0.95
# only 0.6 and 0.9 take a later step, and 4 * n_max there still needs 3
# evaluations, at 476 sweeps against 286 and 20-29 ms more per solve
LOOKAHEAD = 50
# sweeps per queue level behind the first improvement: with
# max(LOOKAHEAD, 4 * n_max) sweeps, reference configs a-d (n_max 60,
# alpha 0.999) take 2 evaluations, not 3; with 3 * n_max, config b still
# takes 3, and 5 * n_max saves no evaluation on a-d
COLD_SWEEPS_PER_LEVEL = 4
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
    """``cost0 + alpha * E v``, the value of each post-decision state."""
    return kernel.cost0 + kernel.discount.alpha * (kernel.events @ values)


def _bellman(kernel: TransitionKernel, values: np.ndarray) -> np.ndarray:
    """One Bellman sweep ``T v``: the least post-decision value each state can reach."""
    w = _post_values(kernel, values).reshape(kernel.space.grid)
    best = w.copy()  # IDLE, code 0, moves nothing
    for dst, src in MOVE_SLICES[1:]:
        np.minimum(best[dst], w[src], out=best[dst])
    return best.ravel()


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
    computed once, and each action's row copies it through the action's
    strided view of the state grid (``kernel.MOVE_SLICES``).
    """
    n = kernel.space.size
    if values.shape != (n,):
        raise ValueError(f"value table has shape {values.shape}, kernel expects ({n},)")
    w = _post_values(kernel, values).reshape(kernel.space.grid)
    q = np.full((N_ACTIONS, *kernel.space.grid), np.inf)
    for q_a, (dst, src) in zip(q, MOVE_SLICES):
        q_a[dst] = w[src]
    return q.reshape(N_ACTIONS, n)


def near_optimal(q: np.ndarray, floor: float) -> np.ndarray:
    """The ``(N_ACTIONS, n)`` mask of actions within ``floor`` of each state's best.

    The one tie rule, read by the solver at ``TIE_EPS`` and by the structure
    screen at its decision floor; at a finite floor, +inf is never near.
    """
    return q - q.min(axis=0) <= floor


def _greedy(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``min_a q``, and each state's first action of ``_TIE_ORDER`` near-optimal at ``TIE_EPS``."""
    return q.min(axis=0), _TIE_ORDER[near_optimal(q, TIE_EPS)[_TIE_ORDER].argmax(axis=0)]


def bellman_backup(kernel: TransitionKernel, values: np.ndarray) -> tuple[ValueTable, PolicyTable]:
    """One synchronous sweep of the optimality operator with greedy extraction."""
    v_new, greedy = _greedy(q_table(kernel, values))
    residual = float(np.max(np.abs(v_new - values)))
    table = ValueTable(v_new, kernel.discount, 1, residual, method=VALUE_ITERATION)
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
    table = _converge(lambda v: _bellman(kernel, v), np.zeros(kernel.space.size),
                      tol, max_iters, kernel.discount, VALUE_ITERATION)
    return table, PolicyTable(_greedy(q_table(kernel, table.values))[1])


def _check_cap(kernel: TransitionKernel, pi: PolicyTable) -> None:
    if pi.n_max != kernel.space.n_max:
        raise ValueError(f"policy table has cap {pi.n_max}, kernel has cap {kernel.space.n_max}")


def _reached(post_pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(post_pi, return_inverse=True)``, read off a mask instead of a sort."""
    reached = np.zeros(post_pi.size, dtype=bool)
    reached[post_pi] = True
    return np.flatnonzero(reached), (np.cumsum(reached) - 1)[post_pi]


def _evaluate_direct(kernel: TransitionKernel, actions: np.ndarray) -> np.ndarray:
    """Values of admissible action codes by the LU that :func:`evaluate_policy` describes."""
    x, col = _reached(kernel.post[actions, np.arange(actions.size)])
    e_x = kernel.events[x]
    e_r = sp.csr_matrix((e_x.data, col[e_x.indices], e_x.indptr), shape=(x.size, x.size))
    e_r.sum_duplicates()
    system = sp.eye(x.size, format="csr") - kernel.discount.alpha * e_r
    u = spla.splu(system.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True}).solve(kernel.cost0[x])
    return u[col]


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
    ``X``.  In the reference solves at n_max 60, ``X`` holds 3,904-9,383
    of the 14,884 states, so the LU is that much smaller than one of
    ``(I - alpha * P_pi)``.

    The LU orders ``X`` by minimum degree on the pattern of the system
    plus its transpose, and pivots on the diagonal, with no row
    interchanges.  That is stable: each row of ``E[X] R_pi`` is a
    probability vector and ``alpha < 1``, so each row's diagonal exceeds
    its off-diagonal absolute sum by ``1 - alpha``, and elimination on a
    matrix strictly diagonally dominant by rows has growth factor at most
    2 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    Thm 9.9).  Row interchanges would break the symmetric fill-reducing
    order: on the 8,007-9,383-state systems of the reference solves'
    second evaluations, COLAMD with partial pivoting (``spsolve``'s
    default) fills the factors to 417k-461k nonzeros, and this LU to
    321k-354k.
    """
    n = kernel.space.size
    _check_cap(kernel, pi)
    if method == "direct":
        if direct_size_limit is not None and n > direct_size_limit:
            raise ValueError(
                f"direct solve refused for {n} states (limit {direct_size_limit}); "
                "use method='iterative'"
            )
        return ValueTable(_evaluate_direct(kernel, pi.actions), kernel.discount, iterations=0,
                          residual=0.0, converged=True, method=POLICY_EVALUATION)
    if method == "iterative":
        post_pi = kernel.post[pi.actions, np.arange(n)]
        return _converge(lambda v: _post_values(kernel, v)[post_pi], np.zeros(n), tol,
                         10_000_000, kernel.discount, POLICY_EVALUATION)
    raise ValueError(f"unknown evaluation method {method!r}")


def policy_iterate(
    kernel: TransitionKernel,
    tol: float = 1e-9,
    max_iters: int = MAX_STEPS,
) -> tuple[ValueTable, PolicyTable]:
    """Policy iteration: exact evaluation, then a lookahead improvement.

    Each step evaluates the current policy by the sparse LU of
    ``evaluate_policy(method="direct")`` and stops if every state's action
    is :func:`near_optimal` at ``TIE_EPS``.  Otherwise the next policy is
    the plain argmin of ``q_table(kernel, u)`` for ``u = T^(L-1) v``, with
    ``L = LOOKAHEAD`` Bellman sweeps ``T`` in all.  Not the tie-ordered
    one: that may pick an action up to ``TIE_EPS`` worse, and on configs
    a-d it left a residual of 7e-11-8e-11, not 2e-13-9e-13.
    Since ``v >= T v`` and ``T`` is monotone, ``u >= T u``, so the next
    policy's values satisfy ``v' <= T^L v <= T v``: they fall strictly
    wherever the stop test failed, and policies cannot cycle.  A one-step
    (Howard) improvement moves the switching front about one queue level
    per step; at n_max 60, alpha 0.999 the lookahead cuts 28-46 steps to
    2 on reference configs a-d.  The start is the greedy policy of the
    all-zero table.  It dispatches every job, so the first improvement
    runs ``max(LOOKAHEAD, COLD_SWEEPS_PER_LEVEL * n_max)`` sweeps, enough
    for the switching front to cross the grid; every later step runs
    ``LOOKAHEAD``.
    ``iterations`` counts evaluations and ``max_iters`` caps them; no
    lookahead runs after the last evaluation the budget allows.
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
    q = q_table(kernel, values)  # each step replaces it; the last gives the returned policy
    actions = _greedy(q)[1]
    lookahead = max(LOOKAHEAD, COLD_SWEEPS_PER_LEVEL * kernel.space.n_max)
    done, stable = 0, False
    while done < max_iters and not stable:
        # admissible: a minimizer is finite (inadmissible is +inf)
        values = _evaluate_direct(kernel, actions)
        done += 1
        q = q_table(kernel, values)
        stable = bool(near_optimal(q, TIE_EPS)[actions, sids].all())
        if not stable and done < max_iters:
            u = q.min(axis=0)  # T v; L - 2 more sweeps make T^(L-1) v
            for _ in range(lookahead - 2):
                u = _bellman(kernel, u)
            actions = q_table(kernel, u).argmin(axis=0).astype(np.int8)
            lookahead = LOOKAHEAD
    best, greedy = _greedy(q)
    residual = float(np.max(np.abs(best - values)))
    converged = stable and residual <= tol
    table = ValueTable(values, kernel.discount, done, residual, converged, tol, POLICY_ITERATION)
    return table, PolicyTable(greedy)


# every field save_checkpoint writes; load_checkpoint requires them all
_ARTIFACT_FIELDS = (
    "format_version", "values", "iterations", "residual", "converged", "tol", "method",
    "nu", "alpha", "beta", "policy", "lam", "mu0", "cloud_speedup", "local_fraction", "n_max",
)


def _check_fits(name: str, entries: np.ndarray, n_max: int) -> None:
    size = 4 * (n_max + 1) ** 2
    if entries.shape != (size,):
        raise ValueError(
            f"checkpoint {name} has shape {entries.shape}, but its queue cap "
            f"{n_max} needs ({size},)"
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
    ``local_fraction``; and the queue cap under ``n_max``.  A table that
    does not fit ``n_max`` raises ``ValueError``, and nothing is written.
    """
    _check_fits("values", table.values, n_max)
    _check_fits("policy", policy.actions, n_max)
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
    table = ValueTable(data["values"], discount, int(data["iterations"]), float(data["residual"]),
                       bool(data["converged"]), float(data["tol"]), str(data["method"]))
    n_max = int(data["n_max"])
    _check_fits("values", table.values, n_max)
    policy = PolicyTable(data["policy"], n_max)
    params = derive_rates(
        float(data["lam"]),
        float(data["mu0"]),
        float(data["cloud_speedup"]),
        float(data["local_fraction"]),
    )
    return Checkpoint(table=table, policy=policy, params=params, n_max=n_max)
