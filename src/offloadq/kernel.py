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

Every decision is an instantaneous assignment: action ``a`` moves state
``s`` to a post-action state ``post(s, a)``, and only then does an event
happen.  So the kernel factors as ``P_a = R_a E``: ``R_a`` is the 0/1
matrix of the post-action map and ``E`` the n x n kernel of the idle
(no-assignment) dynamics.  The kernel stores ``E`` once, as a sparse
matrix, beside the post-action map and the ``admissible`` mask of the
real (state, action) pairs.  The stacked form with one row per pair is
derived on demand.  What each action takes and fills is stated once, in
``MOVES``: ``admits`` reads the one admissibility rule from it, and
``MOVE_SLICES`` each action's post-action map as two basic slices of the
state grid, with no index array.  Only this module knows the layout: a
state's id is its index in the grid of axes (i2, i1, n0, n2), so each slot
occupancy owns one contiguous (n0, n2) plane, where the paper's thresholds
live, and each action's slice is at most two contiguous blocks of ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .model import Action, ModelParams

N_ACTIONS = len(Action)

# per Action code: (jobs taken from the base queue, fills slot i2, fills slot i1)
MOVES = ((0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 1, 1))
# per Action code: slices of the state grid, axes (i2, i1, n0, n2), over the
# states that admit it, and the slices, cell for cell, of the states it moves them to
MOVE_SLICES = tuple(((slice(None, 2 - fill2), slice(None, 2 - fill1), slice(take, None)),
                     (slice(fill2, None), slice(fill1, None), slice(None, -take or None)))
                    for take, fill2, fill1 in MOVES)


def state_grid(n_max: int) -> tuple[int, int, int, int]:
    """Shape of the state grid of cap ``n_max``, axes (i2, i1, n0, n2); an id is a flat index."""
    return (2, 2, n_max + 1, n_max + 1)


def state_ids(n_max: int, n0, i2, i1, n2):
    """Ids of the states ``(n0, i2, i1, n2)`` of cap ``n_max``, vectorized (assumed in range)."""
    return ((i2 * 2 + i1) * (n_max + 1) + n0) * (n_max + 1) + n2


def admits(move, n0, i2, i1):
    """Whether the base queue holds the jobs ``move`` takes and each slot it fills is free."""
    take, fill2, fill1 = move
    return (n0 >= take) & (i2 <= 1 - fill2) & (i1 <= 1 - fill1)


def check_action_codes(actions: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of a policy array is an Action code.

    A code must equal one of the integers ``0..N_ACTIONS-1``: 2.0 passes,
    while 1.5 and NaN fail rather than being truncated by an integer cast.
    """
    bad = np.flatnonzero(~np.isin(actions, np.arange(N_ACTIONS)))
    if bad.size:
        sid = int(bad[0])
        raise ValueError(
            f"policy table holds action code {actions[sid]} at state id {sid}; "
            f"the codes are 0-{N_ACTIONS - 1}"
        )


@dataclass(frozen=True, eq=False)  # == and hash by identity: an array field has neither
class PolicyTable:
    """One admissible action per state id of the space of cap ``n_max``, as Action codes.

    ``n_max`` is derived from the length of ``actions``, or checked against
    it when given, and every action must be admissible in its state by
    ``admits``.  ``rows`` holds the table as nested lists indexed
    ``[i2][i1][n0][n2]``, the axes of the state grid, built on first use.
    ``action`` reads one state, clamping n0 and n2 to the cap, so it answers
    for the untruncated system too; the simulator's event loop reads the
    rows inline the same way, without calling it.  A clamped answer stays
    admissible, since admissibility asks at most ``n0 >= 2``.
    ``exact_beyond_cap`` says the rows at the cap are the policy's own answer
    for any larger n0 and n2; without it, the simulator counts each read
    beyond the cap as saturation.
    """

    actions: np.ndarray
    n_max: int | None = None
    exact_beyond_cap: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.exact_beyond_cap, bool):
            raise ValueError(f"exact_beyond_cap must be a bool, got {self.exact_beyond_cap!r}")
        actions = np.asarray(self.actions)
        check_action_codes(actions)  # before the int8 cast, which would wrap
        m1 = math.isqrt(actions.size // 4) if self.n_max is None else self.n_max + 1
        if m1 < 1 or actions.shape != (4 * m1 * m1,):
            why = ("which fits no queue cap" if self.n_max is None
                   else f"but cap {self.n_max} needs ({4 * m1 * m1},)")
            raise ValueError(f"policy table has shape {actions.shape}, {why}")
        actions = np.asarray(actions, dtype=np.int8)
        # n2, the grid's last axis, plays no part: one verdict per action and row of n2
        i2, i1, n0, _ = np.indices(state_grid(m1 - 1), sparse=True)
        verdicts = np.stack([admits(m, n0, i2, i1).ravel() for m in MOVES], axis=1)
        ok = np.take_along_axis(verdicts, actions.reshape(4 * m1, m1), axis=1)
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            i2, i1, n0, n2 = (int(c) for c in np.unravel_index(bad, state_grid(m1 - 1)))
            raise ValueError(f"policy prescribes inadmissible action {Action(int(actions[bad]))!r} "
                             f"in state {(n0, i2, i1, n2)}")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "n_max", m1 - 1)

    @cached_property
    def rows(self) -> list:
        return self.actions.reshape(state_grid(self.n_max)).tolist()

    def action(self, n0: int, i2: int, i1: int, n2: int) -> int:
        m = self.n_max
        return self.rows[i2][i1][min(n0, m)][min(n2, m)]


@dataclass(frozen=True)
class StateSpace:
    """Dense enumeration of all states with both queue counts capped at n_max.

    A state's id is its index in ``grid``, of axes (i2, i1, n0, n2), so
    ``id = ((i2 * 2 + i1) * (n_max + 1) + n0) * (n_max + 1) + n2``.
    """

    n_max: int
    n0: np.ndarray = field(repr=False, compare=False)
    i2: np.ndarray = field(repr=False, compare=False)
    i1: np.ndarray = field(repr=False, compare=False)
    n2: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return 4 * (self.n_max + 1) ** 2

    @property
    def grid(self) -> tuple[int, int, int, int]:
        return state_grid(self.n_max)

    def id_of(self, n0: int, i2: int, i1: int, n2: int) -> int:
        m = self.n_max
        if not (0 <= n0 <= m and 0 <= n2 <= m and i2 in (0, 1) and i1 in (0, 1)):
            raise ValueError(f"state ({n0},{i2},{i1},{n2}) outside the truncated space")
        return self.ids_of(n0, i2, i1, n2)

    def state_of(self, sid: int) -> tuple[int, int, int, int]:
        if not 0 <= sid < self.size:
            raise ValueError(f"state id {sid} out of range")
        return int(self.n0[sid]), int(self.i2[sid]), int(self.i1[sid]), int(self.n2[sid])

    def ids_of(self, n0, i2, i1, n2) -> np.ndarray:
        """Vectorized index of component arrays (assumed in range)."""
        return state_ids(self.n_max, n0, i2, i1, n2)


def build_state_space(n_max: int) -> StateSpace:
    """The state space of cap ``n_max``; its components and ids are int32.

    A cap whose ids would overflow int32 raises ``ValueError`` before
    anything is allocated.
    """
    if n_max < 1:
        raise ValueError(f"queue cap must be at least 1, got {n_max}")
    if 4 * (n_max + 1) ** 2 > np.iinfo(np.int32).max:
        raise ValueError(f"queue cap {n_max} gives more state ids than int32 holds")
    i2, i1, n0, n2 = np.indices(state_grid(n_max), dtype=np.int32).reshape(4, -1)
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
    """The kernel in factored form ``P_a = R_a E``.

    ``post[a, s]`` is the state id right after action ``a`` assigns jobs in
    state ``s`` (``R_a`` is the 0/1 matrix of this map; ``post[a, s] = s``
    where ``a`` is inadmissible).  ``events`` is ``E``, the n x n sparse
    matrix of the idle dynamics: row ``x`` holds the distribution of the
    next state id when no job is assigned in ``x``.  ``cost0[x]`` is the
    expected discounted holding cost accrued until the next epoch from
    ``x``, the number of jobs in ``x`` over ``beta + nu``.

    Derived on first use and read-only, ``probs`` and ``costs`` are the
    stacked per-(state, action) form: row ``a * N + s`` of ``probs`` is
    ``events[post[a, s]]``, and ``costs[a, s]`` is ``cost0[post[a, s]]``,
    or ``+inf`` where the action is inadmissible.
    """

    params: ModelParams
    space: StateSpace
    discount: DiscountSpec
    events: sp.csr_matrix = field(repr=False, compare=False)
    post: np.ndarray = field(repr=False, compare=False)
    cost0: np.ndarray = field(repr=False, compare=False)
    admissible: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def probs(self) -> sp.csr_matrix:
        probs = self.events[self.post.ravel()]
        for arr in (probs.data, probs.indices, probs.indptr):
            arr.flags.writeable = False
        return probs

    @cached_property
    def costs(self) -> np.ndarray:
        costs = np.where(self.admissible, self.cost0[self.post], np.inf)
        costs.flags.writeable = False
        return costs


def _post_action_map(space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Post-action state ids and admissibility, one row per action."""
    n0, i2, i1, n2 = space.n0, space.i2, space.i1, space.n2
    post = np.empty((N_ACTIONS, space.size), dtype=np.int32)
    admissible = np.empty((N_ACTIONS, space.size), dtype=bool)
    for a, (take, fill2, fill1) in enumerate(MOVES):
        admissible[a] = admits(MOVES[a], n0, i2, i1)
        moved = space.ids_of(n0 - take, i2 + fill2, i1 + fill1, n2)
        post[a] = np.where(admissible[a], moved, np.arange(space.size, dtype=np.int32))
    return post, admissible


def build_kernel(p: ModelParams, space: StateSpace, d: DiscountSpec) -> TransitionKernel:
    nu = uniformization_rate(p)
    if not math.isclose(d.nu, nu, rel_tol=1e-9):
        raise ValueError(
            f"discount spec built for uniformization rate {d.nu}, parameters give {nu}"
        )
    n = space.size
    m = space.n_max
    n0, i2, i1, n2 = space.n0, space.i2, space.i1, space.n2
    sids = np.arange(n, dtype=np.int32)
    p_arr = p.lam / nu
    p_loc = p.mu_l2 / nu
    p_c2 = p.mu_c2 / nu
    p_c1 = p.mu_c1 / nu

    # arrival: one more job in the base queue, lost at the cap
    arr_tgt = np.where(n0 < m, space.ids_of(np.minimum(n0 + 1, m), i2, i1, n2), sids)

    # local completion: the preprocessing job moves to the cloud queue,
    # re-sampling (self-loop) if that queue is at the cap; idle local
    # slots burn the rate as a self-loop
    moves = (i2 == 1) & (n2 < m)
    loc_tgt = np.where(moves, space.ids_of(n0, 0, i1, np.minimum(n2 + 1, m)), sids)

    # cloud completion: split jobs are served first and at the faster
    # rate; a lone full-offload job is served at mu_c1 with the rate
    # difference self-looping; an empty cloud self-loops everything
    serve_sm2 = n2 >= 1
    serve_sm1 = (~serve_sm2) & (i1 == 1)
    cloud_tgt = np.where(
        serve_sm2,
        space.ids_of(n0, i2, i1, np.maximum(n2 - 1, 0)),
        np.where(serve_sm1, space.ids_of(n0, i2, 0, n2), sids),
    )
    cloud_prob = np.where(serve_sm2, p_c2, np.where(serve_sm1, p_c1, p_c2))

    rows = np.concatenate([sids, sids, sids, sids[serve_sm1]])
    cols = np.concatenate([arr_tgt, loc_tgt, cloud_tgt, sids[serve_sm1]])
    data = np.concatenate(
        [
            np.full(n, p_arr),
            np.full(n, p_loc),
            cloud_prob,
            # residual self-loop mass while the slower full-offload job is served
            np.full(int(serve_sm1.sum()), p_c2 - p_c1),
        ]
    )
    events = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    events.sum_duplicates()
    events.eliminate_zeros()
    post, admissible = _post_action_map(space)
    cost0 = (n0 + i2 + i1 + n2) / (d.beta + nu)
    return TransitionKernel(
        params=p,
        space=space,
        discount=d,
        events=events,
        post=post,
        cost0=cost0,
        admissible=admissible,
    )
