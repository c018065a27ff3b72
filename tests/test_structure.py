"""Tests for policy structure checks and threshold extraction."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadq.kernel import DiscountSpec, build_kernel, build_state_space, uniformization_rate
from offloadq.model import Action, derive_rates
from offloadq.simulator import baseline, tabulate_policy
from offloadq.solver import PolicyTable, ValueTable, q_table, value_iterate
from offloadq.structure import (
    ThresholdProfile,
    check_cloud_first,
    check_switch_type,
    check_urgency_monotonicity,
    check_value_inequalities,
    extract_thresholds,
    profile_leq,
    run_structure_checks,
)

N_MAX = 12
MARGIN = 3
CAP = N_MAX - MARGIN


@pytest.fixture(scope="module")
def space():
    return build_state_space(N_MAX)


def _table(space, name):
    return PolicyTable(actions=tabulate_policy(baseline(name), space))


def test_baselines_pass_all_policy_checks(space):
    for name in ("offload_only", "non_idling"):
        report = run_structure_checks(_table(space, name), space, margin=MARGIN)
        assert report.cloud_first.passed, name
        assert report.switch_type.passed, name
        assert report.urgency_monotone.passed, name
        assert report.thresholds_non_increasing, name
        assert report.all_passed(), name


def test_offload_only_has_no_thresholds(space):
    prof = extract_thresholds(_table(space, "offload_only"), space, margin=MARGIN)
    # slices with k = CAP hold no interior state with n0 >= 1
    assert set(prof.sm1_busy) == set(range(0, CAP))
    assert set(prof.sm1_free) == set(range(1, CAP))
    assert all(v is None for v in prof.sm1_busy.values())
    assert all(v is None for v in prof.sm1_free.values())
    assert prof.non_increasing()


def test_non_idling_thresholds_all_one(space):
    prof = extract_thresholds(_table(space, "non_idling"), space, margin=MARGIN)
    assert all(v == 1 for v in prof.sm1_busy.values())
    assert all(v == 1 for v in prof.sm1_free.values())
    # the most eager profile sits below the never-splitting one
    lazy = extract_thresholds(_table(space, "offload_only"), space, margin=MARGIN)
    assert profile_leq(prof, lazy)
    assert not profile_leq(lazy, prof)


def test_cloud_first_counterexample(space):
    acts = tabulate_policy(baseline("non_idling"), space)
    acts[space.id_of(1, 0, 0, 0)] = int(Action.IDLE)
    res = check_cloud_first(PolicyTable(actions=acts), space, margin=MARGIN)
    assert not res.passed
    assert ((1, 0, 0, 0), "idle") in res.counterexamples
    assert res.checked == 2 * CAP


def test_switch_type_counterexample(space):
    acts = tabulate_policy(baseline("non_idling"), space)
    acts[space.id_of(3, 0, 1, 1)] = int(Action.IDLE)
    res = check_switch_type(PolicyTable(actions=acts), space, margin=MARGIN)
    assert not res.passed
    pairs = {(tuple(c[0]), tuple(c[1])) for c in res.counterexamples}
    # the hole is reachable by a unit step in n0 and in n2
    assert ((2, 0, 1, 1), (3, 0, 1, 1)) in pairs
    assert ((3, 0, 1, 0), (3, 0, 1, 1)) in pairs


def test_urgency_counterexample(space):
    acts = tabulate_policy(baseline("non_idling"), space)
    acts[space.id_of(2, 0, 1, 1)] = int(Action.IDLE)
    res = check_urgency_monotonicity(PolicyTable(actions=acts), space, margin=MARGIN)
    assert not res.passed
    assert ((1, 0, 1, 1), "sm2", (2, 0, 1, 1)) in res.counterexamples


def test_threshold_extraction_matches_construction(space):
    # plant thresholds decreasing in k on both slice families
    thr = {k: max(1, 5 - k) for k in range(0, CAP)}
    acts = np.zeros(space.size, dtype=np.int8)
    for k in range(0, CAP):
        for n0 in range(thr[k], CAP - k + 1):
            acts[space.id_of(n0, 0, 1, k)] = int(Action.SM2)
            if k >= 1:
                acts[space.id_of(n0, 0, 0, k)] = int(Action.SM2)
    prof = extract_thresholds(PolicyTable(actions=acts), space, margin=MARGIN)
    assert prof.sm1_busy == thr
    assert prof.sm1_free == {k: thr[k] for k in range(1, CAP)}
    assert prof.non_increasing()


def test_threshold_none_when_top_state_does_not_split(space):
    acts = np.zeros(space.size, dtype=np.int8)
    # split region with a hole at the top of the slice: no "for all larger
    # n0" threshold exists
    for n0 in range(1, CAP):
        acts[space.id_of(n0, 0, 1, 0)] = int(Action.SM2)
    prof = extract_thresholds(PolicyTable(actions=acts), space, margin=MARGIN)
    assert prof.sm1_busy[0] is None


def test_profile_leq_none_is_infinite():
    a = ThresholdProfile(sm1_busy={0: 2, 1: None}, sm1_free={1: 3}, cap=CAP)
    b = ThresholdProfile(sm1_busy={0: 2, 1: None}, sm1_free={1: None}, cap=CAP)
    assert profile_leq(a, b)
    assert not profile_leq(b, a)
    # comparison only covers shared slices
    c = ThresholdProfile(sm1_busy={7: 1}, sm1_free={}, cap=CAP)
    assert profile_leq(a, c) and profile_leq(c, a)


def test_non_increasing_with_missing_thresholds():
    # a missing threshold exceeds its slice top, CAP - k
    assert ThresholdProfile(sm1_busy={0: None, 1: 4, 2: 4, 3: 1}, sm1_free={},
                            cap=CAP).non_increasing()
    assert not ThresholdProfile(sm1_busy={0: 4, 1: None}, sm1_free={}, cap=CAP).non_increasing()
    assert not ThresholdProfile(sm1_busy={}, sm1_free={1: 2, 2: 3}, cap=CAP).non_increasing()


def test_value_gaps_on_synthetic_tables(space):
    disc = DiscountSpec.from_alpha(10.0, 0.99)
    flat = ValueTable(values=np.ones(space.size), discount=disc)
    gaps = check_value_inequalities(flat, space, margin=MARGIN)
    assert gaps.min_cloud_mode_gap == 0.0
    assert gaps.min_arrival_gap == 0.0

    totals = (space.n0 + space.i2 + space.i1 + space.n2).astype(float)
    per_job = ValueTable(values=totals, discount=disc)
    gaps = check_value_inequalities(per_job, space, margin=MARGIN)
    assert gaps.min_cloud_mode_gap == 0.0  # both probe states hold one job
    assert gaps.min_arrival_gap == 1.0
    assert gaps.checked > 0


def test_report_serialization_and_determinism(space):
    table = _table(space, "non_idling")
    r1 = run_structure_checks(table, space, margin=MARGIN)
    r2 = run_structure_checks(table, space, margin=MARGIN)
    assert r1.to_json() == r2.to_json()
    payload = json.loads(r1.to_json())
    assert payload["schema_version"] == 1
    assert payload["all_passed"] is True
    assert payload["thresholds"]["sm1_busy"]["0"] == 1
    text = r1.to_text()
    assert "overall" in text and "PASS" in text and "FAIL" not in text


def test_failed_report_text_lists_counterexamples(space):
    acts = tabulate_policy(baseline("non_idling"), space)
    acts[space.id_of(1, 0, 0, 0)] = int(Action.IDLE)
    report = run_structure_checks(PolicyTable(actions=acts), space, margin=MARGIN)
    assert not report.all_passed()
    text = report.to_text()
    assert "FAIL" in text
    assert "counterexample cloud_first" in text


@pytest.fixture(scope="module")
def solved(space):
    p = derive_rates(3.0, 1.0, 8.0, 0.4)
    disc = DiscountSpec.from_alpha(uniformization_rate(p), 0.99)
    kernel = build_kernel(p, space, disc)
    table, policy = value_iterate(kernel, tol=1e-10)
    return kernel, table, policy


def test_margin_screening_keeps_genuine_violations(space, solved):
    kernel, table, policy = solved
    acts = policy.actions.copy()
    # idling with the cloud free and work queued loses real value, so the
    # flip must survive the action-value screen
    acts[space.id_of(1, 0, 0, 0)] = int(Action.IDLE)
    report = run_structure_checks(
        PolicyTable(actions=acts), space, margin=MARGIN, values=table, kernel=kernel
    )
    assert not report.cloud_first.passed
    assert ((1, 0, 0, 0), "idle") in report.cloud_first.counterexamples
    assert report.decision_floor >= 1e-10


def test_margin_screening_marks_subfloor_flips_indeterminate(space, solved):
    kernel, table, policy = solved
    acts = policy.actions.copy()
    acts[space.id_of(1, 0, 0, 0)] = int(Action.IDLE)
    result = check_cloud_first(
        PolicyTable(actions=acts), space, MARGIN, q_table(kernel, table.values), 1e12
    )
    # an infinite floor cannot decide anything: the flip is indeterminate,
    # not a failure
    assert result.passed
    assert result.indeterminate == 1


def test_margin_screening_requires_values(space, solved):
    kernel, _, policy = solved
    with pytest.raises(ValueError):
        run_structure_checks(policy, space, margin=MARGIN, kernel=kernel)


def test_solved_small_instance_passes_with_screening(space, solved):
    kernel, table, policy = solved
    report = run_structure_checks(policy, space, margin=MARGIN, values=table, kernel=kernel)
    assert report.all_passed()


@pytest.mark.parametrize(
    "check",
    [check_cloud_first, check_switch_type, check_urgency_monotonicity,
     check_value_inequalities, extract_thresholds, run_structure_checks],
    ids=lambda f: f.__name__,
)
def test_margin_must_leave_an_interior(space, check):
    if check is check_value_inequalities:
        table = ValueTable(values=np.ones(space.size), discount=DiscountSpec.from_alpha(10.0, 0.99))
    else:
        table = _table(space, "non_idling")
    for margin in (N_MAX - 1, N_MAX, -1):
        with pytest.raises(ValueError, match="margin"):
            check(table, space, margin)
    # the widest accepted margin still leaves one cloud-mode pair and one step
    result = check(table, space, N_MAX - 2)
    if check is check_value_inequalities:
        assert result.min_cloud_mode_gap == 0.0  # flat table, not NaN


@pytest.mark.parametrize(
    "check",
    [check_cloud_first, check_switch_type, check_urgency_monotonicity,
     check_value_inequalities, extract_thresholds, run_structure_checks],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("table_cap", [N_MAX - 2, N_MAX + 8])
def test_a_table_of_another_cap_is_rejected(space, check, table_cap):
    # a wider table gave false failures, a narrower one an IndexError
    other = build_state_space(table_cap)
    if check is check_value_inequalities:
        table = ValueTable(values=np.ones(other.size), discount=DiscountSpec.from_alpha(10.0, 0.99))
    else:
        table = _table(other, "non_idling")
    with pytest.raises(ValueError, match=f"queue cap {table_cap} .* queue cap {N_MAX}$"):
        check(table, space, MARGIN)


def test_screened_checks_reject_a_policy_of_another_cap(space, solved):
    kernel, table, _ = solved
    wide = _table(build_state_space(N_MAX + 8), "non_idling")
    with pytest.raises(ValueError, match=f"queue cap {N_MAX + 8} .* queue cap {N_MAX}$"):
        run_structure_checks(wide, space, margin=MARGIN, values=table, kernel=kernel)


# ----------------------------------------------- brute-force reference checks

REF_N_MAX = 8


@pytest.fixture(scope="module")
def ref_solved():
    space = build_state_space(REF_N_MAX)
    p = derive_rates(3.0, 1.0, 8.0, 0.4)
    kernel = build_kernel(p, space, DiscountSpec.from_alpha(uniformization_rate(p), 0.99))
    table, policy = value_iterate(kernel, tol=1e-10)
    return space, kernel, table, policy


def _reference_checks(acts, space, margin, q, floor):
    """Each check's definition applied state by state, as (passed, checked, ces, indet)."""
    cap = space.n_max - margin

    def code(s):
        return int(acts[space.id_of(*s)])

    def name(s):
        return Action(code(s)).name.lower()

    def undecided(family, *states):
        # the screen: the best action in the family and the best outside it
        # must differ by more than the floor at every state involved
        if q is None:
            return False
        for s in states:
            sid = space.id_of(*s)
            inside = min(q[a, sid] for a in range(4) if a in family)
            outside = min(q[a, sid] for a in range(4) if a not in family)
            if not abs(outside - inside) > floor:
                return True
        return False

    def result(bad, checked, indeterminate, order=sorted):
        return (not bad, checked, tuple(order(bad)), indeterminate)

    interior = [
        (n0, i2, i1, n2)
        for n0 in range(space.n_max + 1)
        for i2 in (0, 1)
        for i1 in (0, 1)
        for n2 in range(space.n_max + 1)
        if n0 + n2 + 1 <= cap
    ]
    offload, assign, acting = (1, 3), (2, 3), (1, 2, 3)

    bad, checked, indet = [], 0, 0
    for i2 in (0, 1):
        for n0 in range(1, cap + 1):
            s = (n0, i2, 0, 0)
            checked += 1
            if code(s) in offload:
                continue
            if undecided(offload, s):
                indet += 1
            else:
                bad.append((s, name(s)))
    cloud_first = result(bad, checked, indet, order=list)

    bad, checked, indet = [], 0, 0
    for s in interior:
        if code(s) not in assign:
            continue
        n0, i2, i1, n2 = s
        for t in ((n0 + 1, i2, i1, n2), (n0, i2, i1, n2 + 1)):
            checked += 1
            if code(t) in assign:
                continue
            if undecided(assign, s, t):
                indet += 1
            else:
                bad.append((s, t, name(s), name(t)))
    switch_type = result(bad, checked, indet)

    bad, checked, indet = [], 0, 0
    for s in interior:
        t = (s[0] + 1, *s[1:])
        checked += 1
        if code(t) != 0 or code(s) == 0:
            continue
        if undecided(acting, s, t):
            indet += 1
        else:
            bad.append((s, name(s), t))
    urgency = result(bad, checked, indet)
    return cloud_first, switch_type, urgency


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    flip_share=st.sampled_from([0.02, 0.2, 1.0]),
    margin=st.integers(0, REF_N_MAX - 2),
    floor=st.sampled_from([None, 0.0, 1e-6, 1e-2, 0.1]),
)
def test_checks_match_brute_force_reference(ref_solved, seed, flip_share, margin, floor):
    space, kernel, table, policy = ref_solved
    # the optimum with a share of its states redrawn among their admissible
    # actions; a share of 1 is a uniformly random admissible policy
    rng = np.random.default_rng(seed)
    acts = policy.actions.copy()
    for sid in np.flatnonzero(rng.random(space.size) < flip_share):
        acts[sid] = rng.choice(np.flatnonzero(kernel.admissible[:, sid]))
    pi = PolicyTable(actions=acts)
    if floor is None:
        report = run_structure_checks(pi, space, margin)
        results = (report.cloud_first, report.switch_type, report.urgency_monotone)
        q = None
    else:
        q = q_table(kernel, table.values)
        results = [check(pi, space, margin, q, floor) for check in
                   (check_cloud_first, check_switch_type, check_urgency_monotonicity)]
    got = [(r.passed, r.checked, r.counterexamples, r.indeterminate) for r in results]
    assert got == list(_reference_checks(acts, space, margin, q, 0.0 if floor is None else floor))


def test_screen_counts_a_margin_equal_to_the_floor_as_indeterminate(ref_solved):
    space, kernel, table, policy = ref_solved
    acts = policy.actions.copy()
    sid = space.id_of(1, 0, 0, 0)
    acts[sid] = int(Action.IDLE)
    q = q_table(kernel, table.values)
    gap = abs(min(q[0, sid], q[2, sid]) - min(q[1, sid], q[3, sid]))
    for floor, indeterminate in ((gap, 1), (np.nextafter(gap, 0.0), 0)):
        result = check_cloud_first(PolicyTable(actions=acts), space, 2, q, floor)
        assert result.indeterminate == indeterminate
        assert result.passed == bool(indeterminate)
