"""Truncated, uniformized transition kernel for the offloading MDP.

The continuous-time chain is uniformized at rate ``nu = lam + mu_l2 + mu_c2``,
the maximal total event rate in any state (the cloud serves one job at a
time and ``mu_c2 > mu_c1``).  Each decision epoch then sees one of three
potential events: an arrival, a local preprocessing completion, and a cloud
completion; events whose rate is not fully active in the current state
contribute self-loop mass.  Both queue counts are truncated at ``n_max``:
arrivals into a full base queue are lost, and a preprocessing completion
that would overflow the cloud's split-job queue re-samples (self-loop),
which is well defined by memorylessness.

The kernel is materialized as one sparse row per (state, action) pair,
stacked action-major, so a Bellman sweep is a single sparse mat-vec.
Rows for inadmissible (state, action) pairs reuse the state's idle
dynamics behind an infinite stage cost so a minimizer can never select
them; the ``admissible`` mask identifies the real rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import Action, ModelParams

N_ACTIONS = len(Action)


@dataclass(frozen=True)
class StateSpace:
    """Dense enumeration of all states with both queue counts capped at n_max.

    States are ordered lexicographically in (n0, i2, i1, n2), so
    ``id = ((n0 * 2 + i2) * 2 + i1) * (n_max + 1) + n2``.
    """

    n_max: int
    n0: np.ndarray = field(repr=False, compare=False)
    i2: np.ndarray = field(repr=False, compare=False)
    i1: np.ndarray = field(repr=False, compare=False)
    n2: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return 4 * (self.n_max + 1) ** 2

    def id_of(self, n0: int, i2: int, i1: int, n2: int) -> int:
        m = self.n_max
        if not (0 <= n0 <= m and 0 <= n2 <= m and i2 in (0, 1) and i1 in (0, 1)):
            raise ValueError(f"state ({n0},{i2},{i1},{n2}) outside the truncated space")
        return ((n0 * 2 + i2) * 2 + i1) * (m + 1) + n2

    def state_of(self, sid: int) -> tuple[int, int, int, int]:
        if not 0 <= sid < self.size:
            raise ValueError(f"state id {sid} out of range")
        m1 = self.n_max + 1
        n2 = sid % m1
        rest = sid // m1
        i1 = rest % 2
        rest //= 2
        i2 = rest % 2
        n0 = rest // 2
        return n0, i2, i1, n2

    def ids_of(self, n0, i2, i1, n2) -> np.ndarray:
        """Vectorized index of component arrays (assumed in range)."""
        return ((n0 * 2 + i2) * 2 + i1) * (self.n_max + 1) + n2


def build_state_space(n_max: int) -> StateSpace:
    if n_max < 1:
        raise ValueError(f"queue cap must be at least 1, got {n_max}")
    m1 = n_max + 1
    sids = np.arange(4 * m1 * m1)
    n2 = sids % m1
    rest = sids // m1
    i1 = rest % 2
    rest //= 2
    i2 = rest % 2
    n0 = rest // 2
    return StateSpace(n_max=n_max, n0=n0, i2=i2, i1=i1, n2=n2)


def uniformization_rate(p: ModelParams) -> float:
    """Maximal total event rate: arrival + local completion + fastest cloud rate."""
    return p.lam + p.mu_l2 + p.mu_c2


@dataclass(frozen=True)
class DiscountSpec:
    """Uniformization rate with the two equivalent discount parameters."""

    nu: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.nu > 0.0:
            raise ValueError(f"uniformization rate must be positive, got {self.nu}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"discrete discount must lie in (0, 1), got {self.alpha}")
        if not self.beta > 0.0:
            raise ValueError(f"continuous discount rate must be positive, got {self.beta}")
        if not math.isclose(self.alpha, self.nu / (self.nu + self.beta), rel_tol=1e-12):
            raise ValueError("alpha and beta are inconsistent for this uniformization rate")

    @staticmethod
    def from_alpha(nu: float, alpha: float) -> "DiscountSpec":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"discrete discount must lie in (0, 1), got {alpha}")
        return DiscountSpec(nu=nu, alpha=alpha, beta=nu * (1.0 - alpha) / alpha)

    @staticmethod
    def from_beta(nu: float, beta: float) -> "DiscountSpec":
        if not beta > 0.0:
            raise ValueError(f"continuous discount rate must be positive, got {beta}")
        return DiscountSpec(nu=nu, alpha=nu / (nu + beta), beta=beta)


@dataclass(frozen=True)
class TransitionKernel:
    """Stage costs and one-step distributions for every (state, action) pair.

    ``probs`` has one row per pair, stacked action-major: row ``a * N + s``
    holds the distribution of the next state id after taking action ``a``
    in state ``s``.  ``costs[a, s]`` is the expected discounted holding cost
    accrued until the next epoch, ``total_jobs(post-action state)/(beta+nu)``;
    it is ``+inf`` where the action is inadmissible.
    """

    params: ModelParams
    space: StateSpace
    discount: DiscountSpec
    probs: sp.csr_matrix = field(repr=False, compare=False)
    costs: np.ndarray = field(repr=False, compare=False)
    admissible: np.ndarray = field(repr=False, compare=False)

    def action_row(self, action: Action, sid: int) -> int:
        return int(action) * self.space.size + sid

    def distribution(self, sid: int, action: Action) -> dict[int, float]:
        """Sparse next-state distribution for one admissible pair."""
        if not self.admissible[int(action), sid]:
            raise ValueError(f"action {action!r} not admissible in state id {sid}")
        row = self.probs.getrow(self.action_row(action, sid))
        return {int(j): float(v) for j, v in zip(row.indices, row.data)}


def _post_action_components(space: StateSpace):
    """Post-action state components and admissibility for all four actions."""
    n0, i2, i1, n2 = space.n0, space.i2, space.i1, space.n2
    out = {}
    out[Action.IDLE] = (np.ones(space.size, dtype=bool), n0, i2, i1, n2)
    adm = (n0 >= 1) & (i1 == 0)
    out[Action.SM1] = (adm, np.where(adm, n0 - 1, n0), i2, np.where(adm, 1, i1), n2)
    adm = (n0 >= 1) & (i2 == 0)
    out[Action.SM2] = (adm, np.where(adm, n0 - 1, n0), np.where(adm, 1, i2), i1, n2)
    adm = (n0 >= 2) & (i1 == 0) & (i2 == 0)
    out[Action.SM1_THEN_SM2] = (
        adm,
        np.where(adm, n0 - 2, n0),
        np.where(adm, 1, i2),
        np.where(adm, 1, i1),
        n2,
    )
    return out


def build_kernel(p: ModelParams, space: StateSpace, d: DiscountSpec) -> TransitionKernel:
    nu = uniformization_rate(p)
    if not math.isclose(d.nu, nu, rel_tol=1e-9):
        raise ValueError(
            f"discount spec built for uniformization rate {d.nu}, parameters give {nu}"
        )
    n = space.size
    m = space.n_max
    p_arr = p.lam / nu
    p_loc = p.mu_l2 / nu
    p_c2 = p.mu_c2 / nu
    p_c1 = p.mu_c1 / nu

    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    costs = np.full((N_ACTIONS, n), np.inf)
    admissible = np.zeros((N_ACTIONS, n), dtype=bool)
    sids = np.arange(n)

    for action, (adm, n0, i2, i1, n2) in _post_action_components(space).items():
        a = int(action)
        admissible[a] = adm
        costs[a, adm] = (n0 + i2 + i1 + n2)[adm] / (d.beta + nu)
        base = a * n + sids
        post = space.ids_of(n0, i2, i1, n2)

        # arrival: one more job in the base queue, lost at the cap
        tgt = np.where(n0 < m, space.ids_of(np.minimum(n0 + 1, m), i2, i1, n2), post)
        rows_parts.append(base)
        cols_parts.append(tgt)
        data_parts.append(np.full(n, p_arr))

        # local completion: the preprocessing job moves to the cloud queue,
        # re-sampling (self-loop) if that queue is at the cap; idle local
        # slots burn the rate as a self-loop
        moves = (i2 == 1) & (n2 < m)
        tgt = np.where(moves, space.ids_of(n0, 0, i1, np.minimum(n2 + 1, m)), post)
        rows_parts.append(base)
        cols_parts.append(tgt)
        data_parts.append(np.full(n, p_loc))

        # cloud completion: split jobs are served first and at the faster
        # rate; a lone full-offload job is served at mu_c1 with the rate
        # difference self-looping; an empty cloud self-loops everything
        serve_sm2 = n2 >= 1
        serve_sm1 = (~serve_sm2) & (i1 == 1)
        tgt = np.where(
            serve_sm2,
            space.ids_of(n0, i2, i1, np.maximum(n2 - 1, 0)),
            np.where(serve_sm1, space.ids_of(n0, i2, 0, n2), post),
        )
        prob = np.where(serve_sm2, p_c2, np.where(serve_sm1, p_c1, p_c2))
        rows_parts.append(base)
        cols_parts.append(tgt)
        data_parts.append(prob)
        # residual self-loop mass while the slower full-offload job is served
        rows_parts.append(base[serve_sm1])
        cols_parts.append(post[serve_sm1])
        data_parts.append(np.full(int(serve_sm1.sum()), p_c2 - p_c1))

    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    data = np.concatenate(data_parts)
    probs = sp.coo_matrix((data, (rows, cols)), shape=(N_ACTIONS * n, n)).tocsr()
    probs.sum_duplicates()
    probs.eliminate_zeros()
    return TransitionKernel(
        params=p, space=space, discount=d, probs=probs, costs=costs, admissible=admissible
    )

