"""Structural verification of computed dispatching policies.

The optimal policy for this system is expected to (i) always start a full
offload when the cloud is completely free ("cloud-first"), (ii) use split
execution in an upward-closed region of the (n0, n2) lattice
("switch-type"), which admits a per-slice threshold representation with
thresholds non-increasing in the cloud queue length, and (iii) never be
more eager to act in a state than in the same state with one extra queued
job ("urgency monotonicity").  This module checks those statements
mechanically on a policy table and extracts the threshold profile, plus
two value-table gap measurements that back the comparison arguments.

Truncation distorts decisions near the queue caps, so every check runs on
the interior region only: states whose queue content n0 + n2 is at most
``n_max - margin``.  Bounding the total rather than each component keeps
the deep corner of the index box out of scope — there both queues hold up
to twice the buffer limit, blocked arrivals make idling artificially
attractive, and the computed policy genuinely deviates from the
infinite-space structure.  The margin must lie in ``[0, n_max - 2]``: a
wider one leaves no interior (n0, 0, 1, 0) / (n0, 0, 0, 1) pair for the
cloud-mode gap.  Every entry point rejects such a margin, and a table
that does not fit the space, with ``ValueError``.

A solved table only pins action preferences down to its numerical
resolution, and in large indifference regions (for example, committing a
job to the full-offload slot while the cloud is busy with split work is
worth essentially nothing either way) the recorded action is an artifact
of deterministic tie-breaking.  When the transition kernel is supplied
alongside the values, each check therefore reads the near-optimal action
set (``solver.near_optimal``, the solver's own tie rule) at the
value-accuracy floor ``alpha / (1 - alpha) * residual``, and reports a
candidate violation as indeterminate rather than failed if, at any state
involved, that set holds actions both inside and outside the competing
family.  :func:`run_structure_checks` always derives that floor from the
value table; each ``check_*`` function takes the action-value table ``q``
and a ``floor`` of its own.  Checks never raise on failure; violations
are returned as counterexample lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .kernel import N_ACTIONS, StateSpace, TransitionKernel
from .model import Action
from .solver import TIE_EPS, PolicyTable, ValueTable, near_optimal, q_table

SCHEMA_VERSION = 1

# actions that put a job on the split path, directly or as part of the
# composite double assignment
_ASSIGNS_SM2 = (int(Action.SM2), int(Action.SM1_THEN_SM2))
_CLOUD_FIRST_OK = (int(Action.SM1), int(Action.SM1_THEN_SM2))
_ACTING = (int(Action.SM1), int(Action.SM2), int(Action.SM1_THEN_SM2))


def _action_name(code: int) -> str:
    return Action(int(code)).name.lower()


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structural check over the interior region.

    ``indeterminate`` counts candidate violations whose action-value
    margins fall below the decision floor; they neither pass nor fail.
    """

    name: str
    passed: bool
    checked: int
    counterexamples: tuple = ()
    indeterminate: int = 0


@dataclass(frozen=True)
class ThresholdProfile:
    """Per-slice minimal base-queue lengths beyond which SM2 is always used.

    ``sm1_busy[k]`` is the threshold on the slice (n0, 0, 1, k) — a full
    offload in service at the cloud and k split jobs queued there;
    ``sm1_free[k]`` (k >= 1) covers the slice (n0, 0, 0, k).  Entries use
    the "for all larger n0" form, so they are well defined even for
    non-monotone policies.  ``cap`` bounds n0 + k on the interior the
    profile was read from.  ``None`` means no threshold was witnessed on
    the slice, which only proves the threshold exceeds the slice top
    ``cap - k``.
    """

    sm1_busy: dict[int, int | None]
    sm1_free: dict[int, int | None]
    cap: int

    def _non_increasing(self, seq: dict[int, int | None]) -> bool:
        bound = float("inf")
        for k in sorted(seq):
            t = seq[k]
            if t is None:
                # unwitnessed: the threshold exceeds the slice top; only a
                # provable excess over the running bound is a violation
                if self.cap - k >= bound:
                    return False
                continue
            if t > bound:
                return False
            bound = t
        return True

    def non_increasing(self) -> bool:
        """No witnessed increase of the threshold in k, in either family."""
        return self._non_increasing(self.sm1_busy) and self._non_increasing(self.sm1_free)

    def to_json_dict(self) -> dict:
        return {
            "sm1_busy": {str(k): v for k, v in sorted(self.sm1_busy.items())},
            "sm1_free": {str(k): v for k, v in sorted(self.sm1_free.items())},
            "cap": self.cap,
        }


def profile_leq(a: ThresholdProfile, b: ThresholdProfile) -> bool:
    """Element-wise a <= b over shared slices, treating missing thresholds as infinite."""

    def leq(x: dict[int, int | None], y: dict[int, int | None]) -> bool:
        for k in set(x) & set(y):
            xv = float("inf") if x[k] is None else x[k]
            yv = float("inf") if y[k] is None else y[k]
            if xv > yv:
                return False
        return True

    return leq(a.sm1_busy, b.sm1_busy) and leq(a.sm1_free, b.sm1_free)


@dataclass(frozen=True)
class ValueGaps:
    """Minimum observed gaps for the two value-table inequalities.

    ``min_cloud_mode_gap`` is the minimum over interior n0 >= 1 of
    V(n0,0,1,0) - V(n0,0,0,1): holding a full-offload job at the cloud
    should cost at least as much as holding a split job there.
    ``min_arrival_gap`` is the minimum over interior states of
    V(state with one more queued job) - V(state): values should grow with
    queue length.
    """

    min_cloud_mode_gap: float
    min_arrival_gap: float
    checked: int


def _interior_cap(space: StateSpace, margin: int, entries: np.ndarray) -> int:
    """Bound on n0 + n2 of the interior; the one place the inputs are validated.

    ``entries``, a policy's actions or a solve's values, must fit ``space``.
    """
    if not 0 <= margin <= space.n_max - 2:
        raise ValueError(
            f"margin must lie in [0, n_max - 2] = [0, {space.n_max - 2}], got {margin}"
        )
    if entries.shape != (space.size,):
        raise ValueError(
            f"table of queue cap {math.isqrt(entries.size // 4) - 1} cannot be checked "
            f"on a space of queue cap {space.n_max}"
        )
    return space.n_max - margin


def _steps(space: StateSpace, cap: int) -> tuple[np.ndarray, int]:
    """Interior states whose one-more-queued-job neighbour is interior, and that id offset."""
    return np.flatnonzero(space.n0 + space.n2 + 1 <= cap), int(space.ids_of(1, 0, 0, 0))


def _screen(broken: np.ndarray, q, family, floor: float, *partner_offsets: int):
    """Decided candidate violations and the count of indeterminate ones.

    A candidate is indeterminate if, at the state or at a partner
    ``state + offset``, actions within ``floor`` of the best
    (:func:`~offloadq.solver.near_optimal`) lie both in ``family`` and
    outside it; without ``q`` every candidate is decided.
    """
    if q is None:
        return broken, 0
    near = near_optimal(q, floor)
    inside = np.isin(np.arange(N_ACTIONS), family)
    tied = near[inside].any(axis=0) & near[~inside].any(axis=0)
    strict = ~np.logical_or.reduce([tied[broken + d] for d in (0, *partner_offsets)])
    return broken[strict], int(broken.size - strict.sum())


def check_cloud_first(
    pi: PolicyTable,
    space: StateSpace,
    margin: int = 5,
    q: np.ndarray | None = None,
    floor: float = 0.0,
) -> CheckResult:
    """Full offload must be started whenever the cloud is completely free."""
    acts = pi.actions
    cap = _interior_cap(space, margin, acts)
    sids = np.concatenate([space.ids_of(np.arange(1, cap + 1), i2, 0, 0) for i2 in (0, 1)])
    broken, indeterminate = _screen(
        sids[~np.isin(acts[sids], _CLOUD_FIRST_OK)], q, _CLOUD_FIRST_OK, floor
    )
    bad = tuple((space.state_of(int(s)), _action_name(acts[s])) for s in broken)
    return CheckResult("cloud_first", not bad, int(sids.size), bad, indeterminate)


def check_switch_type(
    pi: PolicyTable,
    space: StateSpace,
    margin: int = 5,
    q: np.ndarray | None = None,
    floor: float = 0.0,
) -> CheckResult:
    """The split-assignment region must be upward closed in (n0, n2).

    Unit steps suffice: violations of larger shifts always contain a
    violating unit step on the path between the two states.
    """
    acts = pi.actions
    assigns = np.isin(acts, _ASSIGNS_SM2)
    src, up = _steps(space, _interior_cap(space, margin, acts))
    src = src[assigns[src]]
    bad = []
    indeterminate = 0
    for step in (up, int(space.ids_of(0, 0, 0, 1))):  # one more queued job, one more split job
        broken, undecided = _screen(src[~assigns[src + step]], q, _ASSIGNS_SM2, floor, step)
        indeterminate += undecided
        bad += [
            (
                space.state_of(int(s)),
                space.state_of(int(s + step)),
                _action_name(acts[s]),
                _action_name(acts[s + step]),
            )
            for s in broken
        ]
    bad.sort()
    return CheckResult("switch_type", not bad, 2 * src.size, tuple(bad), indeterminate)


def extract_thresholds(pi: PolicyTable, space: StateSpace, margin: int = 5) -> ThresholdProfile:
    """Per-slice thresholds for the use of split execution.

    For each cloud-queue length k, the threshold is the smallest n0 in the
    interior (n0 + k <= cap) such that every interior state with at least
    that many queued jobs on the slice assigns SM2 (composite included).
    """
    cap = _interior_cap(space, margin, pi.actions)
    assigns = np.isin(pi.actions, _ASSIGNS_SM2)

    def slice_threshold(i1: int, k: int) -> int | None:
        top = cap - k
        sids = space.ids_of(np.arange(1, top + 1), 0, i1, k)
        b = assigns[sids]
        if not b[-1]:
            return None
        # length of the trailing all-True run
        run = int(np.argmin(b[::-1])) if not b.all() else b.size
        return top - run + 1

    sm1_busy = {k: slice_threshold(1, k) for k in range(0, cap)}
    sm1_free = {k: slice_threshold(0, k) for k in range(1, cap)}
    return ThresholdProfile(sm1_busy=sm1_busy, sm1_free=sm1_free, cap=cap)


def check_urgency_monotonicity(
    pi: PolicyTable,
    space: StateSpace,
    margin: int = 5,
    q: np.ndarray | None = None,
    floor: float = 0.0,
) -> CheckResult:
    """Idling with an extra queued job implies idling without it."""
    acts = pi.actions
    src, up = _steps(space, _interior_cap(space, margin, acts))
    idle = acts == int(Action.IDLE)
    broken, indeterminate = _screen(src[idle[src + up] & ~idle[src]], q, _ACTING, floor, up)
    bad = sorted(
        (space.state_of(int(s)), _action_name(acts[s]), space.state_of(int(s + up)))
        for s in broken
    )
    return CheckResult("urgency_monotonicity", not bad, int(src.size), tuple(bad), indeterminate)


def check_value_inequalities(v: ValueTable, space: StateSpace, margin: int = 5) -> ValueGaps:
    """Minimum gaps of the two comparison inequalities on a solved table."""
    values = v.values
    cap = _interior_cap(space, margin, values)
    # the (n,0,0,1) partner holds n + 1 jobs, so stop one short of the cap
    ns = np.arange(1, cap)
    mode_gap = values[space.ids_of(ns, 0, 1, 0)] - values[space.ids_of(ns, 0, 0, 1)]
    src, up = _steps(space, cap)
    arrival_gap = values[src + up] - values[src]
    return ValueGaps(
        min_cloud_mode_gap=float(mode_gap.min()),
        min_arrival_gap=float(arrival_gap.min()),
        checked=int(ns.size + src.size),
    )


@dataclass(frozen=True)
class StructureReport:
    """All structural checks for one policy (and optionally its value table)."""

    n_max: int
    margin: int
    cloud_first: CheckResult
    switch_type: CheckResult
    urgency_monotone: CheckResult
    thresholds: ThresholdProfile
    thresholds_non_increasing: bool
    value_gaps: ValueGaps | None = None
    decision_floor: float = 0.0

    # tolerance on the arrival-monotonicity gap: non-strict inequality up
    # to solver residual noise
    ARRIVAL_GAP_SLACK = 1e-9

    def _gap_verdicts(self) -> tuple[bool, bool]:
        """Whether the cloud-mode and the arrival value gaps hold; both do without gaps."""
        g = self.value_gaps
        if g is None:
            return True, True
        return g.min_cloud_mode_gap > 0.0, g.min_arrival_gap >= -self.ARRIVAL_GAP_SLACK

    def all_passed(self) -> bool:
        return (
            self.cloud_first.passed
            and self.switch_type.passed
            and self.urgency_monotone.passed
            and self.thresholds_non_increasing
            and all(self._gap_verdicts())
        )

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n_max": self.n_max,
            "margin": self.margin,
            "decision_floor": self.decision_floor,
            "cloud_first": asdict(self.cloud_first),
            "switch_type": asdict(self.switch_type),
            "urgency_monotonicity": asdict(self.urgency_monotone),
            "thresholds": self.thresholds.to_json_dict(),
            "thresholds_non_increasing": self.thresholds_non_increasing,
            "value_gaps": None if self.value_gaps is None else asdict(self.value_gaps),
            "all_passed": self.all_passed(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        def verdict(ok: bool) -> str:
            return "PASS" if ok else "FAIL"

        def ties(result: CheckResult) -> str:
            return f", {result.indeterminate} indeterminate" if result.indeterminate else ""

        checks = (("cloud_first", self.cloud_first, "states"),
                  ("switch_type", self.switch_type, "steps"),
                  ("urgency_monotone", self.urgency_monotone, "states"))
        lines = [
            f"queue cap          : {self.n_max}",
            f"boundary margin    : {self.margin}",
            f"decision floor     : {self.decision_floor:.3e}",
        ]
        for label, r, unit in checks:
            lines.append(f"{label:<19}: {verdict(r.passed)} ({r.checked} {unit}{ties(r)})")
        lines.append(f"thresholds_monotone: {verdict(self.thresholds_non_increasing)}")
        for _, r, _ in checks:
            lines += [f"  counterexample {r.name}: {ce}" for ce in r.counterexamples[:10]]
            if len(r.counterexamples) > 10:
                lines.append(f"  ... {len(r.counterexamples) - 10} more {r.name} counterexamples")
        if self.value_gaps is not None:
            g = self.value_gaps
            cloud_ok, arrival_ok = self._gap_verdicts()
            lines.append(
                f"value gaps         : cloud-mode min {g.min_cloud_mode_gap:.6e}"
                f" ({verdict(cloud_ok)}), arrival min {g.min_arrival_gap:.6e}"
                f" ({verdict(arrival_ok)})"
            )
        lines.append(f"overall            : {verdict(self.all_passed())}")
        return "\n".join(lines) + "\n"


def run_structure_checks(
    pi: PolicyTable,
    space: StateSpace,
    margin: int = 5,
    values: ValueTable | None = None,
    kernel: TransitionKernel | None = None,
) -> StructureReport:
    """Run every check and assemble the report.

    With ``kernel`` (which requires ``values``), candidate violations are
    screened against the actions near-optimal at the floor
    ``alpha / (1 - alpha) * residual`` (at least ``TIE_EPS``): where that
    set straddles a check's action family, the violation is an
    indeterminate tie-breaking artifact, not a failure.
    A caller that needs another floor calls the ``check_*`` functions with
    ``q`` and ``floor`` directly.
    """
    q, floor = None, 0.0
    if kernel is not None:
        if values is None:
            raise ValueError("margin screening needs the solved value table")
        q = q_table(kernel, values.values)
        alpha, res = kernel.discount.alpha, values.residual
        # not values.error_bound: its alpha * res / (1 - alpha) can differ
        # in the last bit (at alpha 0.999 and res 7.958078640513122e-13 it
        # gives 7.950120561872603e-10 where this gives ...602e-10), and
        # structure.json records the floor
        floor = max(TIE_EPS, alpha / (1.0 - alpha) * res) if np.isfinite(res) else TIE_EPS
    thresholds = extract_thresholds(pi, space, margin)
    return StructureReport(
        n_max=space.n_max,
        margin=margin,
        cloud_first=check_cloud_first(pi, space, margin, q, floor),
        switch_type=check_switch_type(pi, space, margin, q, floor),
        urgency_monotone=check_urgency_monotonicity(pi, space, margin, q, floor),
        thresholds=thresholds,
        thresholds_non_increasing=thresholds.non_increasing(),
        value_gaps=None if values is None else check_value_inequalities(values, space, margin),
        decision_floor=floor,
    )
