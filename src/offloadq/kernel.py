"""Truncated, uniformized transition kernel for the offloading MDP.

The chain is stated once, in two tables.  ``MOVES`` says what each action
takes from the base queue and which slots it fills; ``MOVE_SLICES`` reads
off it the slice of the state grid that admits each action and the slice
the action moves it to.  ``EVENTS`` gives each kind in ``EVENT_KINDS`` its
rate, its channel and its shift on the grid.  The chain is uniformized at
``nu``, the sum of the rates of the ``CHANNELS`` (arrival, local and cloud
service), and in each channel the first kind whose shift keeps the state
on the grid fires at its rate; the rest of the channel's rate self-loops.
Both queue counts are capped at ``n_max``, so an arrival at the cap is lost
and a local completion into a full split queue re-samples.

Every decision is an instantaneous assignment: action ``a`` moves state
``s`` to ``post(s, a)``, and only then does an event happen.  So the kernel
factors as ``P_a = R_a E``: ``R_a`` is the 0/1 matrix of the post-action
map and ``E`` the n x n kernel of the idle (no-assignment) dynamics.  The
kernel stores ``E`` once, as a sparse matrix, beside the post-action map
and the ``admissible`` mask, all read off the two tables; the stacked form
with one row per (state, action) pair is derived on demand.  Only this
module knows the layout: a state's id is its index in the grid of axes
(i2, i1, n0, n2), so each slot occupancy owns one contiguous (n0, n2)
plane, where the paper's thresholds live, and each action's slice is at
most two contiguous blocks of ids.
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

# the uniformization channels, each by the ModelParams field of its rate
CHANNELS = ("lam", "mu_l2", "mu_c2")
EVENT_KINDS = ("arrival", "local_done", "cloud_sm2_done", "cloud_sm1_done")
# per event kind: the ModelParams field of its rate, its channel, and its
# shift on the state grid, axes (i2, i1, n0, n2)
EVENTS = (("lam", 0, (0, 0, 1, 0)), ("mu_l2", 1, (-1, 0, 0, 1)),
          ("mu_c2", 2, (0, 0, 0, -1)), ("mu_c1", 2, (0, -1, 0, 0)))


def state_grid(n_max: int) -> tuple[int, int, int, int]:
    """Shape of the state grid of cap ``n_max``, axes (i2, i1, n0, n2); an id is a flat index."""
    return (2, 2, n_max + 1, n_max + 1)


def state_ids(n_max: int, n0, i2, i1, n2):
    """Ids of the states ``(n0, i2, i1, n2)`` of cap ``n_max``, vectorized (assumed in range)."""
    return ((i2 * 2 + i1) * (n_max + 1) + n0) * (n_max + 1) + n2


def table_cap(shape: tuple) -> int | None:
    """The queue cap of a per-state table of this shape, or None if the shape fits no cap."""
    m1 = math.isqrt(shape[0] // 4) if len(shape) == 1 else 0
    return m1 - 1 if m1 >= 1 and shape == (4 * m1 * m1,) else None


def admissible_mask(n_max: int) -> np.ndarray:
    """Whether each state id of cap ``n_max`` admits each action: the slices
    of ``MOVE_SLICES`` that admit it, one row per action."""
    mask = np.zeros((N_ACTIONS, *state_grid(n_max)), dtype=bool)
    for a, (admit, _) in enumerate(MOVE_SLICES):
        mask[a][admit] = True
    return mask.reshape(N_ACTIONS, -1)


def event_fires(state, grid) -> list:
    """Per event kind, whether it fires in ``state``, its (i2, i1, n0, n2) as
    ints or as arrays that broadcast together, on a grid of shape ``grid``:
    in each channel, the first kind whose shift keeps the state on the grid.
    An axis of size ``math.inf`` has no cap, as in the untruncated system."""
    fires, taken = [], [np.False_] * len(CHANNELS)
    for _, channel, shift in EVENTS:
        on = True
        for x, d, size in zip(state, shift, grid):
            if d:  # the state itself is on the grid
                on = on & (0 <= x + d) & (x + d < size)
        fires.append(on & ~taken[channel])
        taken[channel] = taken[channel] | on
    return fires


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
    ``admissible_mask``.  The table keeps its own read-only copy of
    ``actions``, so it stays checked: neither it nor the caller's array can
    change it.  ``action`` reads one state, clamping n0 and n2 to the cap,
    so it answers for the untruncated system too; the simulator's event
    loops read the table the same way, without calling it.  A clamped
    answer stays admissible, since admissibility asks at most ``n0 >= 2``.
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
        cap = table_cap(actions.shape)
        if cap is None or self.n_max not in (None, cap):
            why = ("which fits no queue cap" if self.n_max is None
                   else f"but cap {self.n_max} needs ({4 * (self.n_max + 1) ** 2},)")
            raise ValueError(f"policy table has shape {actions.shape}, {why}")
        actions = np.array(actions, dtype=np.int8)  # the table's own copy
        actions.flags.writeable = False
        ok = admissible_mask(cap)[actions, np.arange(actions.size)]
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            i2, i1, n0, n2 = (int(c) for c in np.unravel_index(bad, state_grid(cap)))
            raise ValueError(f"policy prescribes inadmissible action {Action(int(actions[bad]))!r} "
                             f"in state {(n0, i2, i1, n2)}")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "n_max", cap)

    def action(self, n0: int, i2: int, i1: int, n2: int) -> int:
        m = self.n_max
        return int(self.actions[state_ids(m, min(n0, m), i2, i1, min(n2, m))])


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
    """The sum of the channels' rates, the largest total event rate of any state."""
    return sum(getattr(p, rate) for rate in CHANNELS)


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
    state ``s``, read off ``MOVE_SLICES`` (``R_a`` is the 0/1 matrix of this
    map; ``post[a, s] = s`` where ``admissible[a, s]`` is false).
    ``events`` is ``E``, the n x n sparse matrix of the idle dynamics, read
    off ``EVENTS`` by the channel rule: row ``x`` holds the distribution of
    the next state id when no job is assigned in ``x``.  ``cost0[x]`` is the
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


def build_kernel(p: ModelParams, space: StateSpace, d: DiscountSpec) -> TransitionKernel:
    nu = uniformization_rate(p)
    if not math.isclose(d.nu, nu, rel_tol=1e-9):
        raise ValueError(
            f"discount spec built for uniformization rate {d.nu}, parameters give {nu}"
        )
    n = space.size
    ids = np.arange(n, dtype=np.int32).reshape(space.grid)
    post = np.stack([ids] * N_ACTIONS)  # where an action is not admitted, the state stays
    for a, (admit, moved) in enumerate(MOVE_SLICES):
        post[a][admit] = ids[moved]

    rows, cols, data = [], [], []
    fired = [0.0] * len(CHANNELS)  # per channel, the probability of the kind that fires
    state = [x.reshape(space.grid) for x in (space.i2, space.i1, space.n0, space.n2)]
    fires = event_fires(state, space.grid)
    for (rate, channel, shift), where in zip(EVENTS, fires):
        prob = getattr(p, rate) / nu
        # a kind fires only where its target is on the grid: no wrapped cell is read
        rows.append(ids[where])
        cols.append(np.roll(ids, [-x for x in shift], axis=(0, 1, 2, 3))[where])
        data.append(np.full(rows[-1].size, prob))
        fired[channel] = np.where(where, prob, fired[channel])
    # the rest of each channel's rate self-loops, added up in channel order
    rows.append(ids.ravel())
    cols.append(ids.ravel())
    data.append(sum(getattr(p, rate) / nu - f for rate, f in zip(CHANNELS, fired)).ravel())
    events = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                           shape=(n, n)).tocsr()
    events.sum_duplicates()
    events.eliminate_zeros()
    cost0 = (space.n0 + space.i2 + space.i1 + space.n2) / (d.beta + nu)
    return TransitionKernel(
        params=p,
        space=space,
        discount=d,
        events=events,
        post=post.reshape(N_ACTIONS, n),
        cost0=cost0,
        admissible=admissible_mask(space.n_max),
    )
