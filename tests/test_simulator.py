"""Tests for the discrete-event simulator and the coupling machinery."""

import bisect
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from offloadq import simulator
from offloadq.kernel import build_state_space
from offloadq.model import derive_rates, lambda_from_utilization
from offloadq.simulator import (
    ARRIVALS,
    BASELINE_CAP,
    IDLE,
    SM1,
    SM2,
    TRIPLETS,
    _CHUNK,
    EVENT_KINDS,
    DelayReport,
    SimConfig,
    SimulationError,
    TablePolicy,
    _count_window,
    _dominance_counts,
    baseline,
    coupled_compare,
    mm1_reference,
    simulate,
    substream,
    tabulate_policy,
)
from offloadq.solver import PolicyTable
from scalar_model import State, admissible_actions

CONFIG_A = derive_rates(3.6, 1.0, 8.0, 0.4)


# ---------------------------------------------------------------- streams


def test_substream_reproducible_and_distinct():
    a = substream(99, 0, ARRIVALS).standard_exponential(8)
    b = substream(99, 0, ARRIVALS).standard_exponential(8)
    assert np.array_equal(a, b)
    c = substream(99, 1, ARRIVALS).standard_exponential(8)
    d = substream(99, 0, TRIPLETS).standard_exponential(8)
    e = substream(98, 0, ARRIVALS).standard_exponential(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_triplet_marginals_and_coupling():
    # the triplets the event loop draws; the log replays below pin them to it
    _, trips = _drawn_jobs(4242, 20_000, CONFIG_A)
    c1, l2, c2 = np.array(trips).T

    ratio = CONFIG_A.mu_c1 / CONFIG_A.mu_l2
    assert np.array_equal(l2, ratio * c1)  # comonotone pair, exact
    assert (l2 > c1).all()  # local phase is always the slower one

    assert abs(c1.mean() - 1 / CONFIG_A.mu_c1) < 0.02 / CONFIG_A.mu_c1
    assert abs(c2.mean() - 1 / CONFIG_A.mu_c2) < 0.02 / CONFIG_A.mu_c2
    assert abs(np.corrcoef(c1, c2)[0, 1]) < 0.02  # remainder is independent

    # the scaled copy is still exponential at the local rate
    ks = stats.kstest(l2, "expon", args=(0, 1 / CONFIG_A.mu_l2))
    assert ks.pvalue > 0.01


# ---------------------------------------------------------------- config


def test_sim_config_defaults_and_validation():
    cfg = SimConfig(horizon=100.0)
    assert cfg.warmup == 10.0
    assert cfg.replications == 20
    with pytest.raises(ValueError):
        SimConfig(horizon=0.0)
    with pytest.raises(ValueError):
        SimConfig(horizon=10.0, warmup=10.0)
    with pytest.raises(ValueError):
        SimConfig(horizon=10.0, warmup=-1.0)
    with pytest.raises(ValueError):
        SimConfig(replications=0)


def test_mm1_reference_values_and_stability():
    assert mm1_reference(3.6, 8.0) == pytest.approx(1 / 4.4, rel=1e-12)
    with pytest.raises(ValueError, match="unstable"):
        mm1_reference(8.0, 8.0)


def test_unknown_baseline_rejected():
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline("fastest_server_first")


# ---------------------------------------------------------------- policies


def test_table_policy_shape_check_and_saturation():
    with pytest.raises(ValueError, match="policy table"):
        TablePolicy(np.zeros(7, dtype=np.int8), n_max=1)
    space = build_state_space(1)
    pol = TablePolicy(tabulate_policy(baseline("offload_only"), space), n_max=1)
    assert pol.action(1, 0, 0, 0) == SM1
    assert pol.action(5, 0, 0, 3) == SM1  # clamped to (1, 0, 0, 1)


@pytest.mark.parametrize("code", [-1, 4, 7, 259, 1.5, 2.9999, np.nan])
def test_policy_tables_reject_unknown_action_codes(code):
    # the event loop reads a TablePolicy's rows without the unknown-action
    # check a call gets; 259 would wrap to the valid 3 in PolicyTable's int8,
    # and an integer cast would truncate 1.5 and 2.9999 and turn NaN into 0
    acts = np.zeros(4 * 7**2, dtype=type(code))
    sid = build_state_space(6).id_of(6, 0, 0, 6)  # where code 3 is admissible
    for make in (PolicyTable, lambda a: TablePolicy(a, n_max=6)):
        acts[sid] = code
        with pytest.raises(ValueError, match=f"action code {code} at state id"):
            make(acts)
        acts[sid] = 3  # integral codes pass in either dtype
        make(acts)


def test_clamped_lookups_of_a_table_stay_admissible():
    # so only a callable policy can make the event loop stop on an
    # inadmissible action
    space = build_state_space(2)
    rng = np.random.default_rng(4)
    states = list(itertools.product(range(6), (0, 1), (0, 1), range(6)))
    for _ in range(20):
        table = PolicyTable(np.array([rng.choice(admissible_actions(State(*space.state_of(s))))
                                      for s in range(space.size)], dtype=np.int8))
        assert all(table.action(*s) in admissible_actions(State(*s)) for s in states)


def test_saturated_table_still_simulates():
    space = build_state_space(1)
    pol = TablePolicy(tabulate_policy(baseline("offload_only"), space), n_max=1)
    p = derive_rates(7.2, 1.0, 8.0, 0.4)  # deep in the heavy-traffic regime
    rep = simulate(pol, p, SimConfig(horizon=500.0, replications=2, seed=3))
    assert rep.saturation_events > 0
    assert rep.inadmissible_stops == 0
    assert (rep.rep_jobs_arrived == rep.rep_jobs_completed + rep.rep_jobs_in_system).all()


def test_inadmissible_prescriptions_counted_not_fatal():
    rep = simulate(lambda n0, i2, i1, n2: SM1, CONFIG_A,
                   SimConfig(horizon=200.0, replications=1, seed=8))
    assert rep.inadmissible_stops > 0
    assert rep.jobs_completed > 0


def test_unknown_action_raises():
    with pytest.raises(SimulationError, match="unknown action"):
        simulate(lambda n0, i2, i1, n2: 7, CONFIG_A,
                 SimConfig(horizon=10.0, replications=1, seed=8))


# ---------------------------------------------------------------- statistics


def test_offload_only_matches_mm1():
    rep = simulate(baseline("offload_only"), CONFIG_A,
                   SimConfig(horizon=2e4, replications=8, seed=7))
    oracle = mm1_reference(CONFIG_A.lam, CONFIG_A.mu_c1)
    assert abs(rep.mean_sojourn - oracle) < rep.ci_halfwidth
    assert rep.ci_halfwidth < 0.05 * oracle
    lhs, rhs, se = rep.littles_law()
    assert abs(lhs - rhs) < max(3 * se, 1e-3)


def test_simulate_is_deterministic():
    cfg = SimConfig(horizon=2e3, replications=3, seed=123)
    a = simulate(baseline("non_idling"), CONFIG_A, cfg)
    b = simulate(baseline("non_idling"), CONFIG_A, cfg)
    assert a.mean_sojourn == b.mean_sojourn
    assert np.array_equal(a.rep_mean_sojourn, b.rep_mean_sojourn)
    assert np.array_equal(a.rep_time_avg_jobs, b.rep_time_avg_jobs)
    assert np.array_equal(a.rep_jobs_completed, b.rep_jobs_completed)


def test_no_arrivals_degenerate():
    p = derive_rates(0.0, 1.0, 8.0, 0.4)
    rep = simulate(baseline("offload_only"), p,
                   SimConfig(horizon=100.0, replications=2, seed=1))
    assert rep.jobs_completed == 0
    assert rep.mean_sojourn == 0.0
    assert rep.time_avg_jobs == 0.0
    assert (rep.rep_lambda_eff == 0.0).all()


# ---------------------------------------------------------------- event log


def _event_log(policy, horizon, seed=31, p=CONFIG_A):
    rep = simulate(policy, p, SimConfig(horizon=horizon, warmup=0.0,
                                        replications=1, seed=seed),
                   collect_events=True)
    return rep, rep.event_logs[0]


def test_event_log_invariants():
    rep, log = _event_log(baseline("non_idling"), 300.0)
    times = [r[0] for r in log]
    assert times == sorted(times)
    assert {r[1] for r in log} <= set(EVENT_KINDS)
    for t, kind, n0, i2, i1, n2 in log:
        assert n0 >= 0 and n2 >= 0
        assert i2 in (0, 1) and i1 in (0, 1)
        if kind == "cloud_sm1_done":
            # split jobs always finish first: a full-offload job cannot
            # complete while any split job sits at the cloud
            assert n2 == 0
        if kind == "local_done":
            assert n2 >= 1
    done = sum(r[1] in ("cloud_sm1_done", "cloud_sm2_done") for r in log)
    assert done == rep.jobs_completed
    arrivals = sum(r[1] == "arrival" for r in log)
    assert arrivals == int(rep.rep_jobs_arrived[0])


def _drawn_jobs(seed, n_jobs, p):
    """Arrival times and service triplets exactly as a replication draws them."""
    rng_a = substream(seed, 0, ARRIVALS)
    rng_t = substream(seed, 0, TRIPLETS)
    gaps = []
    while len(gaps) < n_jobs:
        gaps.extend((rng_a.standard_exponential(_CHUNK) / p.lam).tolist())
    arr = []
    t = 0.0
    for g in gaps[:n_jobs]:
        t = t + g
        arr.append(t)
    es = []
    while len(es) < 2 * n_jobs:
        es.extend(rng_t.standard_exponential(2 * _CHUNK).tolist())
    trips = [
        (
            es[2 * j] / p.mu_c1,
            (p.mu_c1 / p.mu_l2) * (es[2 * j] / p.mu_c1),
            es[2 * j + 1] / p.mu_c2,
        )
        for j in range(n_jobs)
    ]
    return arr, trips


def test_fifo_service_times_recovered_across_chunk_boundary():
    # under pure offloading the system is a FIFO single-server queue, so
    # each job's service time can be recovered from the log; recovery must
    # agree with the drawn stream even past the refill boundary
    horizon = 1800.0
    rep, log = _event_log(baseline("offload_only"), horizon)
    arr_times = [r[0] for r in log if r[1] == "arrival"]
    dep_times = [r[0] for r in log if r[1] == "cloud_sm1_done"]
    # one refill chunk covers _CHUNK jobs (two draws each); go past it
    assert len(arr_times) > _CHUNK
    _, trips = _drawn_jobs(31, len(dep_times), CONFIG_A)
    prev_dep = 0.0
    for j, dep in enumerate(dep_times):
        service = dep - max(arr_times[j], prev_dep)
        assert service == pytest.approx(trips[j][0], abs=1e-9)
        prev_dep = dep


def test_full_offload_resume_accounting():
    # a policy that keeps both slots busy forces frequent preemptions of
    # the full-offload job; replaying the log checks that its service
    # accumulates exactly its drawn requirement across interruptions, that
    # local phases last exactly sigma_l2, and split cloud services exactly
    # sigma_c2
    def greedy(n0, i2, i1, n2):
        if n0 >= 1 and i1 == 0:
            return SM1
        if n0 >= 1 and i2 == 0:
            return SM2
        return IDLE

    rep, log = _event_log(greedy, 60.0)
    n_jobs = int(rep.rep_jobs_arrived[0])
    _, trips = _drawn_jobs(31, n_jobs, CONFIG_A)

    base = []  # job indices waiting in the base queue
    next_job = 0
    sm1_job = None
    sm1_served = 0.0
    local_job = None
    local_since = None
    cloud_fifo = []  # (job index, head service start time)
    pauses = 0
    prev = (0.0, None, 0, 0, 0, 0)
    for rec in log:
        t, kind, n0, i2, i1, n2 = rec
        pt, _, p0, pi2, pi1, pn2 = prev
        if pi1 == 1 and pn2 == 0:
            sm1_served += t - pt  # the full-offload job was in service

        # intrinsic transition of the event itself
        e0, ei2, ei1, en2 = p0, pi2, pi1, pn2
        if kind == "arrival":
            base.append(next_job)
            next_job += 1
            e0 += 1
        elif kind == "local_done":
            assert local_job is not None
            assert t - local_since == pytest.approx(trips[local_job][1], abs=1e-9)
            if en2 == 0:
                start = t
                if ei1 == 1 and pn2 == 0:
                    pauses += 1
            else:
                start = None  # joins behind the current head
            cloud_fifo.append((local_job, start))
            local_job = None
            ei2 -= 1
            en2 += 1
        elif kind == "cloud_sm2_done":
            job, start = cloud_fifo.pop(0)
            assert t - start == pytest.approx(trips[job][2], abs=1e-9)
            en2 -= 1
            if cloud_fifo:
                cloud_fifo[0] = (cloud_fifo[0][0], t)
        else:  # cloud_sm1_done
            assert sm1_job is not None
            assert sm1_served == pytest.approx(trips[sm1_job][0], abs=1e-9)
            sm1_job = None
            sm1_served = 0.0
            ei1 -= 1

        # same-instant assignments, in the policy's preference order
        if i1 == 1 and ei1 == 0:
            sm1_job = base.pop(0)
            sm1_served = 0.0
            e0 -= 1
            ei1 = 1
        if i2 == 1 and ei2 == 0:
            local_job = base.pop(0)
            local_since = t
            e0 -= 1
            ei2 = 1
        assert (n0, i2, i1, n2) == (e0, ei2, ei1, en2)
        prev = rec
    assert pauses > 0  # the scenario actually exercised preemption


# ---------------------------------------------------------------- coupling


def test_identical_policies_coincide_exactly():
    cfg = SimConfig(horizon=3e3, replications=3, seed=11)
    cr = coupled_compare(baseline("offload_only"), baseline("offload_only"),
                         CONFIG_A, cfg)
    assert cr.diff_mean == 0.0
    assert (cr.rep_diff == 0.0).all()
    assert cr.dominance_fraction == 1.0
    assert (cr.rep_dominance == 1.0).all()


def test_eager_offloading_dominates_lazy_pathwise():
    # starting full offloads later can never reduce the queue on a shared
    # sample path: the eager system must hold at most as many jobs at
    # every event instant of either system
    def lazy(n0, i2, i1, n2):
        return SM1 if n0 >= 4 and i1 == 0 else IDLE

    cfg = SimConfig(horizon=2e3, replications=3, seed=5)
    cr = coupled_compare(lazy, baseline("offload_only"), CONFIG_A, cfg)
    assert cr.dominance_fraction == 1.0
    assert (cr.rep_dominance == 1.0).all()
    assert cr.diff_mean < 0.0  # B (eager) finishes jobs sooner on average


# ---------------------------------------------------------------- sample paths

# Per-replication numbers pinned for a fixed seed.  Job j gets the j-th
# pair of the triplet stream wherever the event loop draws it, so a rewrite
# of the loop must reproduce every number here to the last bit.
HEAVY = derive_rates(lambda_from_utilization(0.95, 1.0, 8.0), 1.0, 8.0, 0.4)
PIN_CFG = SimConfig(horizon=300.0, replications=2, seed=2024)

# (config, reference policy): rep_mean_sojourn, rep_time_avg_jobs,
# rep_jobs_arrived, rep_jobs_completed
PINNED_PATHS = {
    ("a", "offload_only"): (
        [0.2248958111000867, 0.24567172591719139],
        [0.7813047067106715, 0.8894583154684403],
        [1060, 1083], [1060, 1083],
    ),
    ("a", "non_idling"): (
        [0.26346081867041815, 0.27561535850453056],
        [0.9152823996772306, 0.9988186392366332],
        [1060, 1083], [1060, 1083],
    ),
    ("heavy", "offload_only"): (
        [5.685774157652847, 17.473451576279015],
        [48.48028950382687, 152.64865243188567],
        [2550, 2608], [2434, 2317],
    ),
    ("heavy", "non_idling"): (
        [2.279484452128365, 5.215801326722961],
        [19.08070909359813, 45.170437910239315],
        [2550, 2608], [2525, 2550],
    ),
}


def _pin_policy(name):
    if name == "always_sm1":  # offload_only's path, plus inadmissible stops
        return lambda n0, i2, i1, n2: SM1
    if name.startswith("table"):  # non_idling's path, tabulated at cap 8 or 1
        n_max = int(name[len("table"):])
        acts = tabulate_policy(baseline("non_idling"), build_state_space(n_max))
        return TablePolicy(acts, n_max)
    return baseline(name)


@pytest.mark.parametrize(
    "config, policy, path, saturation, inadmissible",
    [
        ("a", "offload_only", "offload_only", 0, 0),
        ("a", "non_idling", "non_idling", 0, 0),
        ("a", "table8", "non_idling", 0, 0),
        ("a", "table1", "non_idling", 579, 0),
        ("a", "always_sm1", "offload_only", 0, 4288),
        ("heavy", "offload_only", "offload_only", 0, 0),
        ("heavy", "non_idling", "non_idling", 0, 0),
        ("heavy", "table8", "non_idling", 10326, 0),
        ("heavy", "table1", "non_idling", 14435, 0),
        ("heavy", "always_sm1", "offload_only", 0, 9911),
    ],
)
def test_sample_path_pinned(config, policy, path, saturation, inadmissible):
    p = CONFIG_A if config == "a" else HEAVY
    rep = simulate(_pin_policy(policy), p, PIN_CFG)
    sojourn, avg_jobs, arrived, completed = PINNED_PATHS[(config, path)]
    assert rep.rep_mean_sojourn.tolist() == sojourn
    assert rep.rep_time_avg_jobs.tolist() == avg_jobs
    assert rep.rep_jobs_arrived.tolist() == arrived
    assert rep.rep_jobs_completed.tolist() == completed
    assert rep.saturation_events == saturation
    assert rep.inadmissible_stops == inadmissible


@pytest.mark.parametrize(
    "config, policy_a, path_a, dominance",
    [
        ("a", "offload_only", "offload_only", [0.7027843005702784, 0.6986301369863014]),
        ("heavy", "offload_only", "offload_only", [0.9996360989810772, 0.9949791819740387]),
        # the cap-1 table follows non_idling's path, so every instant is a
        # tie between the systems
        ("a", "table1", "non_idling", [1.0, 1.0]),
        ("heavy", "table1", "non_idling", [1.0, 1.0]),
    ],
    ids=["a-dominance0", "heavy-dominance1", "a-table1", "heavy-table1"],
)
def test_coupled_sample_path_pinned(config, policy_a, path_a, dominance):
    p = CONFIG_A if config == "a" else HEAVY
    cr = coupled_compare(_pin_policy(policy_a), baseline("non_idling"), p, PIN_CFG)
    assert cr.rep_dominance.tolist() == dominance
    a, b = PINNED_PATHS[(config, path_a)], PINNED_PATHS[(config, "non_idling")]
    assert cr.report_a.rep_mean_sojourn.tolist() == a[0]
    assert cr.report_b.rep_mean_sojourn.tolist() == b[0]


def test_coupling_a_table_with_itself_counts_each_side_once():
    # each run counts its own clamps, so two runs of one table object do not
    # count each other's
    table = _pin_policy("table8")
    alone = simulate(table, HEAVY, PIN_CFG).saturation_events
    cr = coupled_compare(table, table, HEAVY, PIN_CFG)
    assert alone == 10326
    assert cr.report_a.saturation_events == cr.report_b.saturation_events == alone


@pytest.mark.parametrize("policy", ["offload_only", "non_idling", "table8", "table1"])
@pytest.mark.parametrize("config", ["a", "heavy"])
def test_row_lookup_equals_calling_the_policy(config, policy):
    # the loop reads rows within the cap and calls beyond it; the wrapper
    # has no rows, so the loop calls it in every state
    p = CONFIG_A if config == "a" else HEAVY
    looked_up, called = _pin_policy(policy), _pin_policy(policy)
    act = getattr(called, "action", called)
    cap = getattr(called, "n_max", None)  # a table's cap; a function has none
    widest = [0]
    beyond_cap = [0]

    def call(n0, i2, i1, n2):
        widest[0] = max(widest[0], n0, n2)
        if cap is not None and max(n0, n2) > cap:
            beyond_cap[0] += 1
        return act(n0, i2, i1, n2)

    rep = simulate(looked_up, p, PIN_CFG)
    ref = simulate(call, p, PIN_CFG)
    for field in dataclasses.fields(DelayReport):
        x, y = getattr(rep, field.name), getattr(ref, field.name)
        if field.name != "saturation_events":  # the wrapper counts none
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, field.name
    # a run counts one saturation event per decision beyond a table's cap
    assert rep.saturation_events == beyond_cap[0]
    if config == "heavy":  # states beyond the rows were visited
        assert widest[0] > getattr(looked_up, "n_max", BASELINE_CAP)


# ---------------------------------------------------------------- dominance count


def _trajectory(log):
    """Event times and N(t) after each event, from an event log."""
    t = np.array([0.0] + [r[0] for r in log])
    n = np.array([0] + [r[2] + r[3] + r[4] + r[5] for r in log])
    return t, n


def _reference_dominance(policy_a, policy_b, p, cfg):
    """rep_dominance from full trajectories: union of instants, N read by search."""
    logs_a = simulate(policy_a, p, cfg, collect_events=True).event_logs
    logs_b = simulate(policy_b, p, cfg, collect_events=True).event_logs
    out = []
    for log_a, log_b in zip(logs_a, logs_b):
        ta, na = _trajectory(log_a)
        tb, nb = _trajectory(log_b)
        times = np.union1d(ta[1:], tb[1:])
        at_a = na[np.searchsorted(ta, times, side="right") - 1]
        at_b = nb[np.searchsorted(tb, times, side="right") - 1]
        out.append(np.count_nonzero(at_b <= at_a) / times.size)
    return out


@pytest.mark.parametrize(
    "policy_a, policy_b",
    [
        ("offload_only", "non_idling"),
        ("non_idling", "offload_only"),
        ("table1", "offload_only"),  # saturates at every queue above one
        ("non_idling", "non_idling"),
    ],
)
@pytest.mark.parametrize("config", ["a", "heavy"])
def test_dominance_equals_trajectory_reference(config, policy_a, policy_b):
    p = CONFIG_A if config == "a" else HEAVY
    # long enough that every replication is counted over four windows or more
    cfg = SimConfig(horizon=4000.0 if config == "a" else 2000.0, replications=3, seed=19)
    cr = coupled_compare(_pin_policy(policy_a), _pin_policy(policy_b), p, cfg)
    assert (cr.report_a.rep_jobs_arrived > 3 * _CHUNK).all()
    ref = _reference_dominance(_pin_policy(policy_a), _pin_policy(policy_b), p, cfg)
    assert cr.rep_dominance.tolist() == ref
    if policy_a == policy_b:
        assert ref == [1.0] * 3


def test_dominance_undefined_without_arrivals():
    p = derive_rates(0.0, 1.0, 8.0, 0.4)
    cr = coupled_compare(baseline("offload_only"), baseline("non_idling"), p,
                         SimConfig(horizon=100.0, replications=2, seed=1))
    assert np.isnan(cr.rep_dominance).all() and len(cr.rep_dominance) == 2
    assert math.isnan(cr.dominance_fraction)


def _brute_dominance(times_a, times_b):
    """Instants where B holds at most as many jobs as A, one by one."""
    arrivals = times_a[0]
    instants = sorted(set(arrivals).union(*times_a[1:], *times_b[1:]))
    hits = 0
    for t in instants:
        arrived = sum(x <= t for x in arrivals)
        n_a = arrived - sum(x <= t for x in times_a[2] + times_a[3])
        n_b = arrived - sum(x <= t for x in times_b[2] + times_b[3])
        hits += n_b <= n_a
    return hits, len(instants)


# few distinct instants, so ties within and across systems are common
_instants = st.lists(st.integers(0, 12).map(lambda k: k / 4), max_size=12).map(sorted)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_instants] * 7))
@example(([1.0], [2.0], [3.0], [], [2.0], [], [2.0]))  # a local done ties B's exit
@example(([1.0, 1.0], [], [1.0], [1.0], [], [1.0, 1.0], []))  # all at one instant
def test_merge_count_equals_brute_force(runs):
    arrivals, *rest = runs
    times_a = (arrivals, *rest[:3])
    times_b = (arrivals, *rest[3:])
    assert _dominance_counts(times_a, times_b) == _brute_dominance(times_a, times_b)


def test_local_done_instants_are_counted():
    # A's job leaves by full offload at 1.5; B's is preprocessed until 2,
    # then leaves the cloud at 3: at 2 B holds more than A
    times_a = ([1.0], [], [], [1.5])
    times_b = ([1.0], [2.0], [3.0], [])
    assert _dominance_counts(times_a, times_b) == (2, 4)
    without_local = ([1.0], [], [3.0], [])
    assert _dominance_counts(times_a, without_local) == (2, 3)
    assert _brute_dominance(times_a, times_b) == (2, 4)


_bounds = st.lists(st.integers(0, 13).map(lambda k: k / 4), max_size=4).map(sorted)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_instants] * 7), _bounds, st.lists(st.booleans(), min_size=7, max_size=7))
@example(([1.0], [2.0], [3.0], [], [2.0], [], [2.0]), [2.0], [True, False] * 3 + [True])
@example(([1.0, 1.0], [], [1.0], [1.0], [], [1.0, 1.0], []), [1.0, 1.0], [True] * 7)
def test_window_counts_add_up_to_the_one_shot_count(runs, bounds, early):
    # logs are fed window by window, as a replication logs them: before a
    # pause at `until` a log holds every entry below it, and the runs marked
    # early also hold their entries at it, the rest of which come later
    arrivals, *rest = runs
    whole = _dominance_counts((arrivals, *rest[:3]), (arrivals, *rest[3:]))
    logs = [[] for _ in runs]
    fed = [0] * len(runs)
    hits = instants = lead = 0
    for until in (*bounds, math.inf):
        for i, run in enumerate(runs):
            end = (bisect.bisect_right if early[i] else bisect.bisect_left)(run, until)
            logs[i].extend(run[fed[i]:end])
            fed[i] = end
        h, n, lead = _count_window(tuple(logs[:4]), ([], *logs[4:]), until, lead)
        hits += h
        instants += n
        # only entries at or after the boundary are carried to the next window
        assert all(x >= until for log in logs for x in log)
    assert (hits, instants) == whole
    assert not any(logs)


def test_dominance_is_counted_one_window_at_a_time(monkeypatch):
    seen = []
    count = simulator._dominance_counts

    def record(times_a, times_b, *lead):
        seen.append([len(log) for log in (*times_a, *times_b[1:])])
        return count(times_a, times_b, *lead)

    monkeypatch.setattr(simulator, "_dominance_counts", record)
    cfg = SimConfig(horizon=2000.0, replications=2, seed=19)
    cr = coupled_compare(baseline("offload_only"), baseline("non_idling"), HEAVY, cfg)
    arrived = cr.report_a.rep_jobs_arrived
    assert (arrived > 3 * _CHUNK).all()
    sizes = np.array(seen)
    # no call sees more than one chunk of arrivals, and nothing is lost
    assert sizes[:, 0].max() <= _CHUNK
    assert sizes[:, 0].sum() == arrived.sum()
    assert sizes[:, 2:4].sum() == cr.report_a.rep_jobs_completed.sum()
    assert sizes[:, 5:7].sum() == cr.report_b.rep_jobs_completed.sum()
