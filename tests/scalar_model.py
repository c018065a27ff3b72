"""Scalar statement of the queue's dynamics, the oracle for the vectorised kernel.

One state at a time, with every operator checking its domain: the tests
compare ``kernel.post``, ``kernel.admissible`` and ``kernel.events``
against these functions state by state.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from offloadq.model import Action


class State(NamedTuple):
    """System state: base queue count, local slot, cloud SM1 slot, cloud SM2 count."""

    n0: int
    i2: int
    i1: int
    n2: int


class Op(enum.Enum):
    """Elementary transition operators on states."""

    ARRIVAL = "arrival"
    CLOUD_SM1_DONE = "cloud_sm1_done"
    CLOUD_SM2_DONE = "cloud_sm2_done"
    LOCAL_DONE = "local_done"
    START_SM1 = "start_sm1"
    START_SM2 = "start_sm2"


def total_jobs(s: State) -> int:
    """Number of jobs anywhere in the system."""
    return s.n0 + s.i2 + s.i1 + s.n2


def apply_operator(op: Op, s: State) -> State:
    """Apply one elementary transition operator, checking its domain."""
    n0, i2, i1, n2 = s
    if op is Op.ARRIVAL:
        return State(n0 + 1, i2, i1, n2)
    if op is Op.CLOUD_SM1_DONE:
        if i1 != 1:
            raise ValueError(f"no full-offload job at the cloud in state {s}")
        return State(n0, i2, 0, n2)
    if op is Op.CLOUD_SM2_DONE:
        if n2 < 1:
            raise ValueError(f"no split jobs at the cloud in state {s}")
        return State(n0, i2, i1, n2 - 1)
    if op is Op.LOCAL_DONE:
        if i2 != 1:
            raise ValueError(f"local slot is empty in state {s}")
        return State(n0, 0, i1, n2 + 1)
    if op is Op.START_SM1:
        if n0 < 1:
            raise ValueError(f"base queue is empty in state {s}")
        if i1 != 0:
            raise ValueError(f"cloud full-offload slot already occupied in state {s}")
        return State(n0 - 1, i2, 1, n2)
    if op is Op.START_SM2:
        if n0 < 1:
            raise ValueError(f"base queue is empty in state {s}")
        if i2 != 0:
            raise ValueError(f"local slot already occupied in state {s}")
        return State(n0 - 1, 1, i1, n2)
    raise ValueError(f"unknown operator {op!r}")


def admissible_actions(s: State) -> tuple[Action, ...]:
    """Actions available to the dispatcher in state ``s``.

    Idling is always allowed.  Assigning requires a queued job plus a free
    slot for the chosen mode; the composite assignment needs two queued
    jobs and both slots free.
    """
    if s.n0 < 1:
        return (Action.IDLE,)
    acts = [Action.IDLE]
    if s.i1 == 0:
        acts.append(Action.SM1)
    if s.i2 == 0:
        acts.append(Action.SM2)
    if s.i1 == 0 and s.i2 == 0 and s.n0 >= 2:
        acts.append(Action.SM1_THEN_SM2)
    return tuple(acts)


def apply_action(action: Action, s: State) -> State:
    """Post-decision state after the dispatcher takes ``action`` in ``s``."""
    if action is Action.IDLE:
        return s
    if action is Action.SM1:
        if s.n0 < 1 or s.i1 != 0:
            raise ValueError(f"full offload not admissible in state {s}")
        return apply_operator(Op.START_SM1, s)
    if action is Action.SM2:
        if s.n0 < 1 or s.i2 != 0:
            raise ValueError(f"split assignment not admissible in state {s}")
        return apply_operator(Op.START_SM2, s)
    if action is Action.SM1_THEN_SM2:
        if s.n0 < 2 or s.i1 != 0 or s.i2 != 0:
            raise ValueError(f"composite assignment not admissible in state {s}")
        return apply_operator(Op.START_SM2, apply_operator(Op.START_SM1, s))
    raise ValueError(f"unknown action {action!r}")
