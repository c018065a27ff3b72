"""Tests for the discrete-event simulator and the coupling machinery."""

import bisect
import ctypes
import dataclasses
import functools
import itertools
import math
import shutil
import subprocess
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from offloadq import simulator
from offloadq.kernel import (
    EVENTS,
    MOVES,
    DiscountSpec,
    admissible_mask,
    build_kernel,
    build_state_space,
    event_fires,
    uniformization_rate,
)
from offloadq.model import derive_rates, lambda_from_utilization
from offloadq.simulator import (
    ARRIVALS,
    IDLE,
    SM1,
    SM2,
    SM1_THEN_SM2,
    TRIPLETS,
    _CHUNK,
    EVENT_KINDS,
    DelayReport,
    SimConfig,
    TablePolicy,
    _count_window,
    baseline,
    coupled_compare,
    mm1_reference,
    simulate,
    substream,
    tabulate_policy,
)
from offloadq.solver import PolicyTable, policy_iterate
from scalar_model import State, admissible_actions

CONFIG_A = derive_rates(3.6, 1.0, 8.0, 0.4)
CONFIG_B = derive_rates(7.2, 1.0, 8.0, 0.4)


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


@pytest.mark.parametrize(
    "field, value",
    [("replications", 2.5), ("replications", True), ("seed", -1), ("seed", 1.5),
     ("seed", False), ("horizon", math.inf), ("horizon", math.nan),
     ("horizon", True), ("warmup", True), ("horizon", "5"), ("warmup", "1")],
)
def test_sim_config_rejects_what_simulate_cannot_run(field, value):
    # each is named where it enters, not reported by a failure deep inside
    # simulate or as a warmup out of range
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value}$"):
        SimConfig(**{field: value})


def test_sim_config_takes_numpy_integers():
    cfg = SimConfig(horizon=50.0, replications=np.int64(2), seed=np.uint32(3))
    assert simulate(baseline("offload_only"), CONFIG_A, cfg).replications == 2


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


def _rules(space):
    """Both baselines' actions on a space, written out from their definitions."""
    n0, i2, i1, n2 = space.n0, space.i2, space.i1, space.n2
    queued = n0 >= 1
    cloud_free = (i1 == 0) & (n2 == 0)
    return {
        "offload_only": np.where(queued & (i1 == 0), SM1, IDLE),
        "non_idling": np.select(
            [~queued, cloud_free & (i2 == 0) & (n0 >= 2), cloud_free, i2 == 0],
            [IDLE, SM1_THEN_SM2, SM1, SM2], IDLE),
    }


@pytest.mark.parametrize("n_max", [1, 2, 3, 8, 60])
def test_baseline_tables_are_exact_beyond_cap_two(n_max):
    # each baseline is a cap-2 table; read clamped, it is its rule on any space
    space = build_state_space(n_max)
    for name, expected in _rules(space).items():
        table = baseline(name)
        assert (table.n_max, table.exact_beyond_cap) == (2, True)
        assert np.array_equal(tabulate_policy(table, space), expected), name


def test_tabulating_a_table_reads_it_as_action_does():
    # one gather, clamped to the table's cap, on spaces below, at and above it
    rng = np.random.default_rng(5)
    space = build_state_space(4)
    table = PolicyTable(np.array([rng.choice(admissible_actions(State(*space.state_of(s))))
                                  for s in range(space.size)], dtype=np.int8))
    for n_max in (1, 4, 9):
        other = build_state_space(n_max)
        got = tabulate_policy(table, other)
        assert got.dtype == np.int8
        assert got.tolist() == [table.action(*other.state_of(s)) for s in range(other.size)]


@pytest.mark.parametrize("code", [-1, 4, 7, 259, 1.5, 2.9999, np.nan])
def test_policy_tables_reject_unknown_action_codes(code):
    # the event loop reads a table's rows with no check of its own, so each
    # code is checked where the table is built; 259 would wrap to the valid
    # 3 in PolicyTable's int8, and an integer cast would truncate 1.5 and
    # 2.9999 and turn NaN into 0
    acts = np.zeros(4 * 7**2, dtype=type(code))
    sid = build_state_space(6).id_of(6, 0, 0, 6)  # where code 3 is admissible
    for make in (PolicyTable, lambda a: TablePolicy(a, n_max=6)):
        acts[sid] = code
        with pytest.raises(ValueError, match=f"action code {code} at state id"):
            make(acts)
        acts[sid] = 3  # integral codes pass in either dtype
        make(acts)


def test_clamped_lookups_of_a_table_stay_admissible():
    # so the event loop, which reads a table's row at the cap beyond it,
    # never dispatches an inadmissible action
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
    assert (rep.rep_jobs_arrived == rep.rep_jobs_completed + rep.rep_jobs_in_system).all()


def test_a_table_keeps_its_own_read_only_actions(in_python):
    # a table is checked once, where it is built: neither the caller's
    # array nor the table's own can change it after that
    acts = baseline("non_idling").actions.copy()
    table = PolicyTable(acts)
    p, cfg = derive_rates(5.0, 1.0, 8.0, 0.4), SimConfig(horizon=500.0, replications=2, seed=3)
    before = simulate(table, p, cfg), simulate(table, p, cfg, collect_events=True).event_logs
    acts[:] = SM2  # every state asks for a split, even with the local slot busy
    assert table.actions.tolist() == baseline("non_idling").actions.tolist()
    for run in (simulate, functools.partial(in_python, simulate)):
        _assert_same_report(run(table, p, cfg), before[0])
    assert simulate(table, p, cfg, collect_events=True).event_logs == before[1]
    for where in (0, slice(None)):
        with pytest.raises(ValueError, match="read-only"):
            table.actions[where] = 0


def test_a_policy_must_be_a_table():
    # a function of the state is refused where it enters, not called
    offload = lambda n0, i2, i1, n2: SM1 if n0 and not i1 else IDLE  # noqa: E731
    cfg = SimConfig(horizon=10.0, replications=1, seed=8)
    with pytest.raises(TypeError, match="must be a PolicyTable, got function"):
        simulate(offload, CONFIG_A, cfg)
    for a, b in ((offload, baseline("non_idling")), (baseline("offload_only"), offload)):
        with pytest.raises(TypeError, match="must be a PolicyTable, got function"):
            coupled_compare(a, b, CONFIG_A, cfg)


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
    # sigma_c2.  Greedy offloads whole when it can and else splits: its rule
    # is constant in n0 >= 1 and n2, so its rows at cap 1 are exact
    space = build_state_space(1)
    queued = space.n0 >= 1
    greedy = PolicyTable(np.select([queued & (space.i1 == 0), queued & (space.i2 == 0)],
                                   [SM1, SM2], IDLE), exact_beyond_cap=True)

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
    # every event instant of either system.  Lazy waits for four jobs: its
    # rows at cap 4 are exact
    space = build_state_space(4)
    lazy = PolicyTable(np.where((space.n0 >= 4) & (space.i1 == 0), SM1, IDLE),
                       exact_beyond_cap=True)
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
    # constant policies: a split, or a composite, wherever it is admissible
    ("a", "always_sm2"): (
        [54.61541670447187, 56.30453813287614],
        [181.43812113089356, 191.9318111804704],
        [1060, 1083], [773, 747],
    ),
    ("a", "always_composite"): (
        [1.5513228786252564, 1.6486374658203171],
        [5.4063376047243406, 5.950051752481921],
        [1060, 1083], [1060, 1081],
    ),
    ("heavy", "always_sm2"): (
        [144.75984908545985, 146.78004340176355],
        [979.1480371292773, 1020.800372700923],
        [2550, 2608], [776, 747],
    ),
    ("heavy", "always_composite"): (
        [93.19724627429287, 91.40084073130036],
        [699.926434594635, 734.7554000878673],
        [2550, 2608], [1313, 1242],
    ),
}


def _always(code):
    """The action ``code`` wherever it is admissible, else IDLE: admissibility
    asks at most n0 >= 2, so the rows at cap 2 are exact."""
    return PolicyTable(np.where(admissible_mask(2)[code], code, IDLE), exact_beyond_cap=True)


def _pin_policy(name):
    if name == "always_sm1":  # offload_only's rows, in a table of its own
        return _always(SM1)
    if name == "always_sm2":
        return _always(SM2)
    if name == "always_composite":
        return _always(SM1_THEN_SM2)
    if name.startswith("table"):  # non_idling's path, tabulated at cap 8 or 1
        n_max = int(name[len("table"):])
        acts = tabulate_policy(baseline("non_idling"), build_state_space(n_max))
        return TablePolicy(acts, n_max)
    return baseline(name)


# Each id ends in the number of decisions at which the constant policy,
# when it was a function the loop called, answered an inadmissible action;
# as a table it idles there.  The ids keep the cases' names.
@pytest.mark.parametrize(
    "config, policy, path, saturation",
    [
        pytest.param("a", "offload_only", "offload_only", 0, id="a-offload_only-offload_only-0-0"),
        pytest.param("a", "non_idling", "non_idling", 0, id="a-non_idling-non_idling-0-0"),
        pytest.param("a", "table8", "non_idling", 0, id="a-table8-non_idling-0-0"),
        pytest.param("a", "table1", "non_idling", 579, id="a-table1-non_idling-579-0"),
        pytest.param("a", "always_sm1", "offload_only", 0, id="a-always_sm1-offload_only-0-4288"),
        pytest.param("a", "always_sm2", "always_sm2", 0, id="a-always_sm2-always_sm2-0-5185"),
        pytest.param("a", "always_composite", "always_composite", 0,
                     id="a-always_composite-always_composite-0-5356"),
        pytest.param("heavy", "offload_only", "offload_only", 0,
                     id="heavy-offload_only-offload_only-0-0"),
        pytest.param("heavy", "non_idling", "non_idling", 0, id="heavy-non_idling-non_idling-0-0"),
        pytest.param("heavy", "table8", "non_idling", 10326, id="heavy-table8-non_idling-10326-0"),
        pytest.param("heavy", "table1", "non_idling", 14435, id="heavy-table1-non_idling-14435-0"),
        pytest.param("heavy", "always_sm1", "offload_only", 0,
                     id="heavy-always_sm1-offload_only-0-9911"),
        pytest.param("heavy", "always_sm2", "always_sm2", 0, id="heavy-always_sm2-always_sm2-0-8206"),
        pytest.param("heavy", "always_composite", "always_composite", 0,
                     id="heavy-always_composite-always_composite-0-8993"),
    ],
)
def test_sample_path_pinned(config, policy, path, saturation):
    p = CONFIG_A if config == "a" else HEAVY
    rep = simulate(_pin_policy(policy), p, PIN_CFG)
    sojourn, avg_jobs, arrived, completed = PINNED_PATHS[(config, path)]
    assert rep.rep_mean_sojourn.tolist() == sojourn
    assert rep.rep_time_avg_jobs.tolist() == avg_jobs
    assert rep.rep_jobs_arrived.tolist() == arrived
    assert rep.rep_jobs_completed.tolist() == completed
    assert rep.saturation_events == saturation


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


# the state grid of the untruncated system, axes (i2, i1, n0, n2)
_UNTRUNCATED = (2, 2, math.inf, math.inf)


@functools.cache
def _fires(state):
    """The event kinds the kernel's channel rule fires in an untruncated state (i2, i1, n0, n2)."""
    return {kind for kind, fires in zip(EVENT_KINDS, event_fires(state, _UNTRUNCATED)) if fires}


def _replay_decisions(table, log):
    """Replay a log by the kernel's tables, as the loop runs: each logged
    kind must be one the channel rule fires in the state before it, its
    ``EVENTS`` shift gives the state after it, and from there
    ``table.action`` applies the policy until it idles, only while a job is
    queued or n2 is beyond the cap.  Checks that each logged state is the
    replay's, and returns the calls beyond the cap and the largest n0 and
    n2 the policy was asked about."""
    cap, beyond, widest = table.n_max, 0, 0
    n0 = i2 = i1 = n2 = 0
    for _, kind, *logged in log:
        assert kind in _fires((i2, i1, n0, n2)), (kind, (n0, i2, i1, n2))
        shift = EVENTS[EVENT_KINDS.index(kind)][2]
        i2, i1, n0, n2 = (x + d for x, d in zip((i2, i1, n0, n2), shift))
        while n0 or n2 > cap:
            widest = max(widest, n0, n2)
            beyond += max(n0, n2) > cap
            a = table.action(n0, i2, i1, n2)
            if a == IDLE:
                break
            take, fill2, fill1 = MOVES[a]
            n0, i2, i1 = n0 - take, i2 + fill2, i1 + fill1
        assert [n0, i2, i1, n2] == logged
    return beyond, widest


@pytest.mark.parametrize("policy", ["offload_only", "non_idling", "table8", "table1"])
@pytest.mark.parametrize("config", ["a", "heavy"])
def test_row_lookup_equals_calling_the_policy(config, policy):
    # the loop reads rows, clamped beyond the cap; replaying each logged
    # decision by PolicyTable.action gives the same states and, for a table
    # not exact beyond its cap, one saturation event per call beyond it
    p = CONFIG_A if config == "a" else HEAVY
    table = _pin_policy(policy)
    logged = simulate(table, p, PIN_CFG, collect_events=True)
    _assert_same_report(dataclasses.replace(logged, event_logs=None),
                        simulate(table, p, PIN_CFG))
    beyond = widest = 0
    for log in logged.event_logs:
        b, w = _replay_decisions(table, log)
        beyond, widest = beyond + b, max(widest, w)
    saturation = {("a", "table1"): 579, ("heavy", "table8"): 10326, ("heavy", "table1"): 14435}
    assert logged.saturation_events == saturation.get((config, policy), 0)
    if not table.exact_beyond_cap:
        assert logged.saturation_events == beyond
    if config == "heavy":  # states beyond the rows were visited, far beyond the baselines'
        assert widest > (60 if table.exact_beyond_cap else table.n_max)


def _replay_table(name, p):
    """A solved optimum of a small cap, or a table of admissible actions
    drawn uniformly, neither exact beyond its cap."""
    if name == "optimal":
        space = build_state_space(6)
        k = build_kernel(p, space, DiscountSpec.from_alpha(uniformization_rate(p), 0.99))
        return policy_iterate(k, tol=1e-9)[1]
    mask = admissible_mask(4)
    draws = np.random.default_rng(3).random(mask.shape)
    return PolicyTable(np.argmax(np.where(mask, draws, -1.0), axis=0))


@pytest.mark.parametrize("policy", ["optimal", "random"])
@pytest.mark.parametrize("config", ["a", "heavy"])
def test_replay_of_any_table_follows_the_kernel(config, policy):
    # every logged event is one the kernel's channel rule fires, and every
    # logged state is its shift followed by the table's actions, read
    # beyond the cap as often as the run counts saturation
    p = CONFIG_A if config == "a" else HEAVY
    table = _replay_table(policy, p)
    logged = simulate(table, p, PIN_CFG, collect_events=True)
    beyond = sum(_replay_decisions(table, log)[0] for log in logged.event_logs)
    assert logged.saturation_events == beyond > 0


def _kind_z(logged, p, cfg):
    """Per class (i2, i1, n2 > 0) of the state before an event, and per kind:
    the count logged from the class against its rate from ``EVENTS`` times
    the time spent in the class, as a z-score of a Poisson count.  A kind
    the channel rule does not fire in the class must never be logged from
    it.  ``logged`` is the report of an event-logged run on ``p`` and ``cfg``."""
    spent, counts = {}, {}
    for log in logged.event_logs:
        t_prev, cls = 0.0, (0, 0, False)
        for t, kind, n0, i2, i1, n2 in log:
            spent[cls] = spent.get(cls, 0.0) + t - t_prev
            counts[cls, kind] = counts.get((cls, kind), 0) + 1
            t_prev, cls = t, (i2, i1, n2 > 0)
        spent[cls] = spent.get(cls, 0.0) + cfg.horizon - t_prev
    z = {}
    for cls, time in spent.items():
        fires = _fires((cls[0], cls[1], 0, int(cls[2])))
        for kind, (rate, _, _) in zip(EVENT_KINDS, EVENTS):
            got = counts.get((cls, kind), 0)
            if kind not in fires:
                assert got == 0, (cls, kind, got)
            else:
                mean = getattr(p, rate) * time
                z[cls, kind] = (got - mean) / math.sqrt(mean)
    return z


# each kind's count from each class lies within this many standard
# deviations of its Poisson mean
KIND_Z = 4.5
# the run each kind-frequency case logs
KIND_CFG = SimConfig(horizon=2e4, warmup=0.0, replications=2, seed=1)


def test_each_kind_fires_at_its_kernel_rate():
    # under uniformization a kind fires from a class at the rate EVENTS
    # gives it wherever the channel rule fires it there, and never elsewhere
    logged = simulate(baseline("non_idling"), CONFIG_B, KIND_CFG, collect_events=True)
    z = _kind_z(logged, CONFIG_B, KIND_CFG)
    assert len(z) == 18  # every class is visited: 8 arrivals, 4 local, 4 split and 2 whole
    assert max(map(abs, z.values())) < KIND_Z


@pytest.mark.parametrize("rho", [0.9, 0.95])
def test_each_kind_fires_at_its_kernel_rate_beyond_a_solved_cap(rho):
    # the same law holds for a solved cap-60 optimum under load, read
    # clamped beyond its cap as often as the run counts
    p = derive_rates(lambda_from_utilization(rho, 1.0, 8.0), 1.0, 8.0, 0.4)
    k = build_kernel(p, build_state_space(60),
                     DiscountSpec.from_alpha(uniformization_rate(p), 0.999))
    logged = simulate(policy_iterate(k, tol=1e-9)[1], p, KIND_CFG, collect_events=True)
    assert logged.saturation_events > 0
    z = _kind_z(logged, p, KIND_CFG)
    assert len(z) == 18
    assert max(map(abs, z.values())) < KIND_Z


@pytest.mark.parametrize(
    "policy, saturation",
    # the ids end in the inadmissible stops of always_sm1 when it was a
    # function the loop called; they keep the cases' names
    [pytest.param("table1", 14435, id="table1-14435-0"),
     pytest.param("offload_only", 0, id="offload_only-0-0"),
     pytest.param("always_sm1", 0, id="always_sm1-0-9911")],
)
def test_the_three_entry_points_agree(policy, saturation):
    # a saturating table, a baseline deep beyond its cap and a copy of its
    # rows in a table of its own run one event loop under simulate, under
    # event logging and on either side of a coupled comparison
    pol = _pin_policy(policy)
    other = baseline("non_idling")
    ref, logged, *coupled = [
        simulate(pol, HEAVY, PIN_CFG),
        simulate(pol, HEAVY, PIN_CFG, collect_events=True),
        coupled_compare(pol, other, HEAVY, PIN_CFG).report_a,
        coupled_compare(other, pol, HEAVY, PIN_CFG).report_b,
    ]
    assert ref.saturation_events == saturation
    if policy == "offload_only":
        assert max(r[2] for log in logged.event_logs for r in log) > 60
    for rep in (logged, *coupled):
        for field in dataclasses.fields(DelayReport):
            if field.name != "event_logs":
                x, y = getattr(rep, field.name), getattr(ref, field.name)
                assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, field.name


@pytest.mark.parametrize("name", ["offload_only", "non_idling"])
def test_only_an_inexact_table_counts_its_clamped_reads(name):
    # the same rows, exact beyond the cap or not, give the same run; only
    # the inexact table counts its reads beyond the cap, as many as a
    # function calling the table was asked beyond it on this path
    acts = baseline(name).actions
    exact, inexact = PolicyTable(acts, exact_beyond_cap=True), PolicyTable(acts)
    x, y = simulate(exact, HEAVY, PIN_CFG), simulate(inexact, HEAVY, PIN_CFG)
    for field in dataclasses.fields(DelayReport):
        if field.name != "saturation_events":
            a, b = getattr(x, field.name), getattr(y, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name
    assert x.saturation_events == 0
    assert y.saturation_events == {"offload_only": 14558, "non_idling": 13637}[name]


def test_a_saturating_table_is_read_not_called(monkeypatch):
    # beyond its cap the loop reads the table's clamped row, as
    # PolicyTable.action would answer, and still counts the clamp
    def refuse(*state):
        raise AssertionError(f"PolicyTable.action called at {state}")

    monkeypatch.setattr(PolicyTable, "action", refuse)
    rep = simulate(_pin_policy("table1"), HEAVY, PIN_CFG)
    assert rep.saturation_events == 14435
    assert rep.rep_mean_sojourn.tolist() == PINNED_PATHS[("heavy", "non_idling")][0]


# ---------------------------------------------------------------- compiled loop


def _assert_same_report(x, y):
    for field in dataclasses.fields(DelayReport):
        a, b = getattr(x, field.name), getattr(y, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:  # one replication has a NaN half-width
            assert a == b or (a != a and b != b), field.name


def _assert_same_coupling(x, y):
    _assert_same_report(x.report_a, y.report_a)
    _assert_same_report(x.report_b, y.report_b)
    assert np.array_equal(x.rep_dominance, y.rep_dominance, equal_nan=True)


@pytest.fixture
def compiled():
    """Skip unless the compiled event loop can be built here."""
    if simulator._load_loop() is None:
        pytest.skip("the compiled event loop cannot be built here (no C compiler?)")


@pytest.fixture
def in_python(monkeypatch):
    """Run a call with the loader reporting no kernel, so in the Python loop."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(simulator, "_load_loop", lambda: None)
            return fn(*args, **kwargs)
    return run


def test_the_loop_source_compiles_without_warnings(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    subprocess.run([cc, *simulator._LOOP_CFLAGS, "-Wall", "-Wextra", "-Werror",
                    "-o", str(tmp_path / "loop.so"), str(simulator._LOOP_SOURCE)],
                   check=True, capture_output=True)


# every case of test_sample_path_pinned, by its id's config and policy
_PINNED_CASES = {f"{c}-{pol}-pinned": (c, pol) for c in ("a", "heavy")
                 for pol in ("offload_only", "non_idling", "table8", "table1",
                             "always_sm1", "always_sm2", "always_composite")}


def _compiled_case(name):
    """(policy, params, config) of a named case: each pinned sample path, a
    clamped cap-6 optimum, random admissible tables, a composite across a
    triplet chunk, rates whose products round, and no arrivals."""
    if name in _PINNED_CASES:
        config, policy = _PINNED_CASES[name]
        return _pin_policy(policy), CONFIG_A if config == "a" else HEAVY, PIN_CFG
    config, policy, *how = name.split("-")
    p = {"a": CONFIG_A, "heavy": HEAVY, "lam0": derive_rates(0.0, 1.0, 8.0, 0.4),
         # 1 / mu_c1 is not a power of two, so a reordered product rounds apart
         "odd": derive_rates(lambda_from_utilization(0.893, 1.0, 14.69), 1.0, 14.69, 0.082),
         }[config]
    cfg = PIN_CFG
    if config == "odd":  # count the first jobs, while t is small enough to keep last bits
        cfg = SimConfig(horizon=300.0, warmup=0.0, replications=2, seed=2024)
    if how == ["chunk"]:  # a composite takes the last triplet pair of a chunk and the next's first
        cfg = SimConfig(horizon=2000.0, replications=1, seed=3)
    return _replay_table(policy, p) if policy in ("optimal", "random") else baseline(policy), p, cfg


_COMPILED_CASES = [*_PINNED_CASES, "heavy-optimal", "a-random", "heavy-random", "a-random-chunk",
                   "odd-non_idling", "odd-optimal", "odd-random", "lam0-non_idling", "lam0-random"]


@pytest.mark.parametrize("name", _COMPILED_CASES)
def test_compiled_loop_equals_the_python_loop(name, compiled, in_python):
    # the compiled loop repeats the Python loop's float operations in its
    # order: reports, saturation counts, coupled logs and dominance agree
    # to the last bit, beside non_idling on either side
    policy, p, cfg = _compiled_case(name)
    fast = simulate(policy, p, cfg)
    _assert_same_report(fast, in_python(simulate, policy, p, cfg))
    if name == "heavy-optimal":  # clamped beyond its cap, under load
        assert fast.saturation_events > 0
    other = baseline("non_idling")
    for a, b in ((policy, other), (other, policy)):
        _assert_same_coupling(coupled_compare(a, b, p, cfg),
                              in_python(coupled_compare, a, b, p, cfg))


@pytest.mark.parametrize("load", [0.0, 0.02, 0.6, 0.9, 1.05, 1.3])
def test_compiled_loop_equals_the_python_loop_on_the_baselines(load, compiled, in_python):
    # the compiled loop against the Python loop, its reference, on
    # offload_only and non_idling over the three kinds of warmup.
    # `load` is the cloud server's, lam / mu_c1, so 1.05 and 1.3 overload it
    p = derive_rates(load * CONFIG_A.mu_c1, CONFIG_A.mu0, CONFIG_A.K, CONFIG_A.f)
    # about 3.3 chunks of arrivals: at least three refills, and a part chunk
    horizon = 3.3 * _CHUNK / p.lam if p.lam else 100.0
    for name in ("offload_only", "non_idling"):
        policy = baseline(name)
        for warmup in (None, 0.0, math.nextafter(horizon, 0.0)):
            for seed in (3, 4):
                cfg = SimConfig(horizon=horizon, warmup=warmup, replications=1, seed=seed)
                fast = simulate(policy, p, cfg)
                _assert_same_report(fast, in_python(simulate, policy, p, cfg))
                assert p.lam == 0.0 or fast.rep_jobs_arrived[0] > 3 * _CHUNK
    cfg = SimConfig(horizon=horizon, replications=2, seed=5)
    offload_only, other = baseline("offload_only"), baseline("non_idling")
    for a, b in ((offload_only, other), (other, offload_only), (offload_only, offload_only)):
        _assert_same_coupling(coupled_compare(a, b, p, cfg),
                              in_python(coupled_compare, a, b, p, cfg))


def test_without_a_kernel_the_python_loop_gives_the_same_reports(monkeypatch):
    cfg = SimConfig(horizon=2000.0, replications=2, seed=19)
    table, other = _pin_policy("table8"), baseline("offload_only")
    built = simulate(table, HEAVY, cfg), coupled_compare(table, other, HEAVY, cfg)
    monkeypatch.setattr(simulator, "_load_loop", lambda: None)
    _assert_same_report(simulate(table, HEAVY, cfg), built[0])
    _assert_same_coupling(coupled_compare(table, other, HEAVY, cfg), built[1])
    assert built[0].saturation_events > 0


@pytest.mark.parametrize("name", _COMPILED_CASES)
def test_event_records_are_alike_from_either_loop(name, compiled, in_python):
    # either loop writes the one event log: the records and the report agree
    # to the last bit, and logging leaves the report as it is without it
    policy, p, cfg = _compiled_case(name)
    fast = simulate(policy, p, cfg, collect_events=True)
    slow = in_python(simulate, policy, p, cfg, collect_events=True)
    assert fast.event_logs == slow.event_logs
    assert len(fast.event_logs) == cfg.replications
    _assert_same_report(fast, slow)
    _assert_same_report(dataclasses.replace(fast, event_logs=None), simulate(policy, p, cfg))


def _pauses(run):
    """The values a replication yields, and its result."""
    pauses = []
    try:
        while True:
            pauses.append(next(run))
    except StopIteration as done:
        return pauses, done.value


@pytest.mark.parametrize("name", ["non_idling", "copy of offload_only", "offload_only"])
def test_every_replication_pauses_at_each_chunk_and_after_its_end(name, monkeypatch):
    # the compiled loop and the Python loop pause alike, logging or not: at
    # the last arrival of each full chunk before the horizon, and once after
    # the last event.  The ids keep the cases' names: a copy of
    # offload_only's table now runs as the baseline does
    policy = (PolicyTable(baseline("offload_only").actions, exact_beyond_cap=True)
              if name.startswith("copy") else baseline(name))
    cfg = SimConfig(horizon=2000.0, replications=1, seed=19)
    runs = []
    for loader in (simulator._load_loop, lambda: None):
        monkeypatch.setattr(simulator, "_load_loop", loader)
        pauses, result = _pauses(simulator._run_replication(policy, HEAVY, cfg, 0))
        assert result.jobs_arrived > 3 * _CHUNK
        arrivals, _ = _drawn_jobs(19, result.jobs_arrived, HEAVY)
        assert pauses == [*arrivals[_CHUNK - 1::_CHUNK], math.inf]
        log = []
        assert _pauses(simulator._run_replication(policy, HEAVY, cfg, 0, log)) == (pauses, result)
        records = simulator._records(log)
        assert [t for t, kind, *_ in records if kind == "arrival"] == arrivals
        runs.append((pauses, result, records))
    assert runs[0] == runs[1]


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


def _sink(*runs):
    """An event log of one entry, as a replication fills it, from the sorted
    times of each kind, in ``EVENT_KINDS`` order; the states are not read."""
    t = np.array([x for run in runs for x in run], dtype=float)
    kinds = np.repeat(np.arange(len(runs), dtype=np.int8), [len(run) for run in runs])
    order = np.argsort(t, kind="stable")
    return [(t[order], kinds[order], np.zeros((t.size, 4), dtype=np.int64))]


def _one_window(times_a, times_b):
    """The single counter's (hits, instants, lead) over whole logs."""
    return _count_window(_sink(*times_a), _sink(*times_b), math.inf, 0)


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
    hits, instants, lead = _one_window(times_a, times_b)
    assert (hits, instants) == _brute_dominance(times_a, times_b)
    # the lead carried on is A's completions minus B's
    assert lead == sum(map(len, times_a[2:])) - sum(map(len, times_b[2:]))


def test_local_done_instants_are_counted():
    # A's job leaves by full offload at 1.5; B's is preprocessed until 2,
    # then leaves the cloud at 3: at 2 B holds more than A
    times_a = ([1.0], [], [], [1.5])
    times_b = ([1.0], [2.0], [3.0], [])
    assert _one_window(times_a, times_b) == (2, 4, 0)
    without_local = ([1.0], [], [3.0], [])
    assert _one_window(times_a, without_local) == (2, 3, 0)
    assert _brute_dominance(times_a, times_b) == (2, 4)


_bounds = st.lists(st.integers(0, 13).map(lambda k: k / 4), max_size=4).map(sorted)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_instants] * 7), _bounds, st.lists(st.booleans(), min_size=7, max_size=7))
@example(([1.0], [2.0], [3.0], [], [2.0], [], [2.0]), [2.0], [True, False] * 3 + [True])
@example(([1.0, 1.0], [], [1.0], [1.0], [], [1.0, 1.0], []), [1.0, 1.0], [True] * 7)
def test_window_counts_add_up_to_the_one_shot_count(runs, bounds, early):
    # logs are fed window by window, as a replication logs them: before a
    # pause at `until` a log holds every entry below it, and the runs marked
    # early also hold their entries at it, the rest of which come later.
    # B's arrivals are A's, fed as A's are
    arrivals, *rest = runs
    sides = ((arrivals, *rest[:3]), (arrivals, *rest[3:]))
    flags = (early[:4], early[:1] + early[4:])
    whole = _one_window(*sides)[:2]
    logs = ([], [])
    fed = ([0] * 4, [0] * 4)
    hits = instants = lead = 0
    for until in (*bounds, math.inf):
        for log, side, side_early, side_fed in zip(logs, sides, flags, fed):
            window = []
            for k, run in enumerate(side):
                end = (bisect.bisect_right if side_early[k] else bisect.bisect_left)(run, until)
                window.append(run[side_fed[k]:end])
                side_fed[k] = end
            log.extend(_sink(*window))
        h, n, lead = _count_window(*logs, until, lead)
        hits += h
        instants += n
        # only entries at or after the boundary are carried to the next window
        assert all((t >= until).all() for log in logs for t, _, _ in log)
    assert (hits, instants) == whole
    assert not any(logs)


def test_dominance_is_counted_one_window_at_a_time(monkeypatch):
    seen = []
    count = simulator._count_window

    def per_kind(log):
        return sum((np.bincount(kinds, minlength=len(EVENT_KINDS)) for _, kinds, _ in log),
                   np.zeros(len(EVENT_KINDS), dtype=int))

    def record(log_a, log_b, until, lead):
        # the entries each window counts, per kind, are those it drops from the logs
        before = np.concatenate([per_kind(log_a), per_kind(log_b)])
        out = count(log_a, log_b, until, lead)
        seen.append(before - np.concatenate([per_kind(log_a), per_kind(log_b)]))
        return out

    monkeypatch.setattr(simulator, "_count_window", record)
    cfg = SimConfig(horizon=2000.0, replications=2, seed=19)
    cr = coupled_compare(baseline("offload_only"), baseline("non_idling"), HEAVY, cfg)
    arrived = cr.report_a.rep_jobs_arrived
    assert (arrived > 3 * _CHUNK).all()
    sizes = np.array(seen)
    # no call sees more than one chunk of arrivals, and nothing is lost;
    # each window holds the same arrivals on both sides
    assert sizes[:, 0].max() <= _CHUNK
    assert sizes[:, 0].sum() == arrived.sum()
    assert np.array_equal(sizes[:, 4], sizes[:, 0])
    assert sizes[:, 2:4].sum() == cr.report_a.rep_jobs_completed.sum()
    assert sizes[:, 6:8].sum() == cr.report_b.rep_jobs_completed.sum()


def _log_of(r):
    """The (time, kind, n0, i2, i1, n2) entries in a record's event log."""
    t = ctypes.cast(r.log_t, ctypes.POINTER(ctypes.c_double))
    kind = ctypes.cast(r.log_kind, ctypes.POINTER(ctypes.c_int8))
    state = ctypes.cast(r.log_state, ctypes.POINTER(ctypes.c_int64))
    return [(t[i], kind[i], *state[4 * i:4 * i + 4]) for i in range(r.log_len)]


@pytest.mark.parametrize("name,logged", [("heavy-non_idling", True), ("heavy-optimal", True),
                                         ("heavy-optimal", False), ("lam0-random", True)])
def test_the_two_loops_return_alike_step_by_step(name, logged, compiled, monkeypatch):
    # rep_run and its Python twin, each run by the one driver on the same
    # inputs, return the same code after every call, with every field of
    # the record that holds no pointer equal, and the same event log,
    # times, kinds and states
    policy, p, _ = _compiled_case(name)
    cfg = SimConfig(horizon=2000.0, replications=1, seed=23)
    lib = simulator._load_loop()
    fields = [f for f, ctype in simulator._Rep._fields_
              if ctype not in (ctypes.c_void_p, simulator._Ring)]

    def recording(run, steps):
        def step(r, **python_only):
            code = run(r, **python_only)
            steps.append((code, [getattr(r, f) for f in fields], _log_of(r) if logged else []))
            return code
        return step

    runs = []
    for loop in ("compiled", "python"):
        steps = []
        with monkeypatch.context() as m:
            if loop == "compiled":
                m.setattr(simulator, "_load_loop", lambda: types.SimpleNamespace(
                    rep_run=recording(lib.rep_run, steps), rep_free=lib.rep_free))
            else:
                m.setattr(simulator, "_load_loop", lambda: None)
                m.setattr(simulator, "_python_run", recording(simulator._python_run, steps))
            log = [] if logged else None
            result = simulator._finish(simulator._run_replication(policy, p, cfg, 0, log))
        runs.append((steps, result, simulator._records(log) if logged else None))
    (steps, result, logs), twin = runs
    assert len(steps) == len(twin[0])
    for mine, theirs in zip(steps, twin[0]):
        assert mine == theirs
    assert (result, logs) == twin[1:]
    codes = [code for code, _, _ in steps]
    assert codes[-1] == simulator._REP_DONE
    if p.lam == 0.0:  # nothing arrives: the first return is the horizon
        assert codes == [simulator._REP_DONE]
    else:
        assert {simulator._REP_PAUSE, simulator._REP_TRIP} <= set(codes)
    if name == "heavy-non_idling":  # its splits fill the event log between refills
        assert simulator._REP_LOG in codes
    if name == "heavy-optimal":  # clamped beyond its cap
        assert result.saturation_events > 0
