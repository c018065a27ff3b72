"""Continuous-time discrete-event simulation of the offloading system.

The simulated system is untruncated; a policy is a ``PolicyTable``, whose
lookup saturates at the solved cap, and each run counts how often that
happened.  At every arrival or completion instant the policy is applied
repeatedly (full offload before split, honoring the composite) until it
idles.  The cloud serves split jobs ahead of a full-offload job with
preemptive-resume priority: the interrupted job keeps its remaining
service requirement and no fresh randomness is drawn, so a replication is
a deterministic function of the seed, and two coupled systems share
exactly the arrival and service-triplet streams and nothing else.

The event loop reads each action from the table's nested rows
(``PolicyTable.rows``), with n0 and n2 clamped to its cap; every row is
admissible, checked where the table is built, and so is every clamped
read.  The replication counts each read beyond the cap as a saturation
event in its own counter, unless the table is ``exact_beyond_cap``, as the
two baselines are at cap 2: no run changes its policy, so two runs may
share one.

Every job carries a triplet of service times: an Exponential(mu_c1)
full-offload cloud time; a local preprocessing time that is the same draw
scaled by ``mu_c1/mu_l2``, so Exponential(mu_l2) and always the longer of
the two; and an independent Exponential(mu_c2) split-remainder cloud
time.  The base queue is FIFO, so jobs leave it in arrival order; job j's
triplet is the j-th pair of the triplet stream, drawn when the job is
dispatched.  Coupling by job index follows from drawing the triplets in
arrival order.

Replication r of a run with master seed s draws from two named
substreams, ``substream(s, r, ARRIVALS)`` and ``substream(s, r,
TRIPLETS)``.  Statistics exclude a warmup period: a job contributes to
sojourn statistics when it arrives after warmup and completes within the
horizon.

A replication is a generator.  When it logs event instants it pauses at
every refill of the arrival gaps, that is every ``_CHUNK`` arrivals, and
once more when the run is over; ``coupled_compare`` advances two systems
one such window at a time and counts each window before the next is
logged, so its memory does not grow with the horizon.  Without logs a
replication never pauses, and ``simulate`` runs it to its end.

The ``offload_only`` baseline, unless event records are asked for, runs in
closed form instead of the event loop.  Every job goes to the cloud whole
and in arrival order, no split job ever preempts one, so the system is a
FIFO single-server queue whose departures follow Lindley's recursion
``d_j = max(a_j, d_{j-1}) + s_j``.  The closed form draws the same streams
and repeats the loop's float operations one for one, in the loop's order,
so its reports, logs and pauses are the loop's to the last bit.  The event
loop stays the reference: it runs every other policy, any other table of
offload-only's rows, and every run that records events.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Generator

import numpy as np
from scipy.special import stdtrit

from .kernel import PolicyTable, build_state_space, state_ids
from .model import Action, ModelParams

INF = math.inf

ARRIVALS = 0
TRIPLETS = 1

# plain ints: the event loop compares against them after every event
IDLE, SM1, SM2, SM1_THEN_SM2 = (int(a) for a in Action)

_CHUNK = 4096  # arrival gaps per draw
_TRIP_CHUNK = 2 * _CHUNK  # triplet draws: two per job

# event-log record layout: (time, kind, n0, i2, i1, n2) with the state
# taken after the event and any same-instant assignments
EVENT_KINDS = ("arrival", "local_done", "cloud_sm2_done", "cloud_sm1_done")


def substream(seed: int, rep: int, purpose: int) -> np.random.Generator:
    """Named, reproducible generator for one purpose within one replication."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep, purpose))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class SimConfig:
    """Run lengths, replication count and master seed.

    ``warmup=None`` resolves to 10% of the horizon.
    """

    horizon: float = 1e5
    warmup: float | None = None
    replications: int = 20
    seed: int = 12345

    def __post_init__(self) -> None:
        # a bool is an int, but no length of time, count or seed
        num, whole = (int, float, np.integer, np.floating), (int, np.integer)
        for name, kinds in (("horizon", num), ("warmup", (*num, type(None))),
                            ("replications", whole), ("seed", whole)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = "an integer" if kinds is whole else "a number"
                raise ValueError(f"{name} must be {what}, got {value}")
        if not 0.0 < self.horizon < INF:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.warmup is None:
            object.__setattr__(self, "warmup", 0.1 * self.horizon)
        if not 0.0 <= self.warmup < self.horizon:
            raise ValueError(f"warmup must lie in [0, horizon), "
                             f"got {self.warmup} vs {self.horizon}")
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


# the older name, still used by callers that build TablePolicy(actions, n_max)
TablePolicy = PolicyTable


def tabulate_policy(policy: PolicyTable, space) -> np.ndarray:
    """A table's actions on a truncated state space, in one gather, clamped
    as ``PolicyTable.action`` reads them."""
    m = policy.n_max
    return policy.actions[state_ids(m, np.minimum(space.n0, m), space.i2, space.i1,
                                    np.minimum(space.n2, m))]


def _baseline_rules(space) -> dict:
    """Both baselines' actions on a space: pure offloading and maximal utilization."""
    n0, i2, i1, n2 = space.n0, space.i2, space.i1, space.n2
    queued = n0 >= 1
    cloud_free = (i1 == 0) & (n2 == 0)
    return {
        "offload_only": np.where(queued & (i1 == 0), SM1, IDLE),
        "non_idling": np.select(
            [~queued, cloud_free & (i2 == 0) & (n0 >= 2), cloud_free, i2 == 0],
            [IDLE, SM1_THEN_SM2, SM1, SM2], IDLE),
    }


# the rules are constant in n0 >= 2 and n2 >= 1: their rows at cap 2 are exact
_BASELINES = {
    name: PolicyTable(actions, exact_beyond_cap=True)
    for name, actions in _baseline_rules(build_state_space(2)).items()
}


def baseline(name: str) -> PolicyTable:
    """Pure offloading or maximal utilization, as a cap-2 table exact beyond its cap."""
    if name not in _BASELINES:
        raise ValueError(f"unknown baseline {name!r}; available: {sorted(_BASELINES)}")
    return _BASELINES[name]


def _lookup(policy: PolicyTable) -> tuple:
    """``(rows, cap, clamps)``: ``PolicyTable.rows``, read with n0 and n2
    clamped to ``cap`` as ``PolicyTable.action`` reads them; a read beyond
    the cap adds ``clamps`` saturation events: 1, or 0 for an
    ``exact_beyond_cap`` table.
    """
    if not isinstance(policy, PolicyTable):
        raise TypeError(f"a policy must be a PolicyTable, got {type(policy).__name__}")
    return policy.rows, policy.n_max, 0 if policy.exact_beyond_cap else 1


def mm1_reference(lam: float, mu: float) -> float:
    """Mean sojourn of the single exponential queue, 1/(mu - lam)."""
    if mu <= lam:
        raise ValueError(f"unstable: service rate {mu} does not exceed arrival rate {lam}")
    return 1.0 / (mu - lam)


@dataclass
class _RepResult:
    jobs_arrived: int
    jobs_completed: int
    jobs_in_system: int
    mean_sojourn: float
    time_avg_jobs: float
    lambda_eff: float
    saturation_events: int
    events: list | None = None


def _offload_only_replication(
    p: ModelParams, cfg: SimConfig, rep: int, times: tuple | None
) -> Generator[float, None, _RepResult]:
    """The event loop's replication of ``offload_only``, one arrival chunk at a time.

    Every job is offloaded whole, in arrival order, so the system is a FIFO
    single-server queue and Lindley's recursion gives each departure.  Each
    float the loop computes is computed here by the same operation on the
    same operands: arrival instants as ``t + gap``, job j's service time as
    the j-th pair's first draw times ``1/mu_c1``, departures as
    ``max(a, d) + s``, and the area and sojourn sums added up in event
    order, arrivals first at ties.  Each chunk's arrivals are merged with
    the departures before its last arrival; the jobs still in the system
    carry over to the next chunk.  Logs, pauses and result are the loop's.
    """
    horizon = cfg.horizon
    warmup = cfg.warmup
    lam = p.lam
    inv_c1 = 1.0 / p.mu_c1
    rng_arrivals = substream(cfg.seed, rep, ARRIVALS)
    rng_triplets = substream(cfg.seed, rep, TRIPLETS)

    services = np.empty(0)  # drawn for the jobs yet to arrive, in job order
    # arrival and departure instants of the jobs in the system, a pair per chunk
    held: deque = deque()
    last_arrival = 0.0
    last_dep = 0.0
    t_last = 0.0  # the last event instant processed
    in_system = 0
    completed = 0
    counted = 0
    sojourn_sum = 0.0
    area = 0.0
    while lam > 0.0:
        arr = rng_arrivals.standard_exponential(_CHUNK) / lam
        arr[0] += last_arrival
        arr = np.cumsum(arr)  # sequential: the loop's t + gap, one by one
        until = float(arr[-1])
        last_chunk = until > horizon
        if last_chunk:
            arr = arr[: np.searchsorted(arr, horizon, side="right")]
        n = arr.size
        while services.size < n:
            draws = rng_triplets.standard_exponential(_TRIP_CHUNK)
            services = np.concatenate((services, draws[::2] * inv_c1))
        dep = np.fromiter([last_dep := (a if a > last_dep else last_dep) + s
                           for a, s in zip(arr.tolist(), services[:n].tolist())], float, n)
        services = services[n:]
        if n:
            last_arrival = float(arr[-1])
        held.append((arr, dep))
        # departures are in job order, so the leaving jobs are a prefix;
        # those at the pause instant follow it
        cut, side = (horizon, "right") if last_chunk else (until, "left")
        leaving = []
        while held:
            a, d = held[0]
            k = int(np.searchsorted(d, cut, side=side))
            if k < d.size:
                leaving.append((a[:k], d[:k]))
                held[0] = (a[k:], d[k:])
                break
            leaving.append(held.popleft())
        left_arr = np.concatenate([a for a, _ in leaving])
        left_dep = np.concatenate([d for _, d in leaving])
        k = left_dep.size

        # the window's events in loop order; an arrival sorts first at a tie
        t_ev = np.concatenate((arr, left_dep))
        order = np.argsort(t_ev, kind="stable")
        t_ev = t_ev[order]
        jobs = in_system + np.cumsum(np.where(order < n, 1, -1))
        if t_ev.size:
            jobs_before = np.concatenate(([in_system], jobs[:-1]))
            t_from = np.maximum(np.concatenate(([t_last], t_ev[:-1])), warmup)
            # after warmup each event adds N(t-) * (t - t_from); a tie adds 0.0
            terms = np.where(t_ev > warmup, jobs_before * (t_ev - t_from), 0.0)
            area = float(np.cumsum(np.concatenate(([area], terms)))[-1])
            t_last = float(t_ev[-1])
            in_system = int(jobs[-1])
        after = left_arr >= warmup
        sojourns = (left_dep - left_arr)[after]
        sojourn_sum = float(np.cumsum(np.concatenate(([sojourn_sum], sojourns)))[-1])
        counted += int(np.count_nonzero(after))
        completed += k
        if times is not None:
            times[0].extend(arr.tolist())
            times[3].extend(left_dep.tolist())
        if last_chunk:
            break
        yield until

    area += in_system * (horizon - max(t_last, warmup))
    if times is not None:
        yield INF
    span = horizon - warmup
    return _RepResult(
        jobs_arrived=completed + in_system,
        jobs_completed=completed,
        jobs_in_system=in_system,
        mean_sojourn=sojourn_sum / counted if counted else 0.0,
        time_avg_jobs=area / span,
        lambda_eff=counted / span,
        saturation_events=0,
    )


def _run_replication(
    policy: PolicyTable,
    p: ModelParams,
    cfg: SimConfig,
    rep: int,
    collect_events: bool = False,
    times: tuple | None = None,
) -> Generator[float, None, _RepResult]:
    """Replication ``rep`` on the substreams (cfg.seed, rep, ARRIVALS/TRIPLETS).

    ``times`` holds one log per entry of ``EVENT_KINDS``, anything with
    ``append`` and ``extend``; the run adds each event instant to its kind's
    log, unless ``collect_events`` logs the full records instead.  With
    ``times`` the generator yields at every refill of the arrival gaps the
    instant of the arrival just drawn, and ``INF`` after the last event:
    every instant logged by then lies at or before the yielded value, and
    any instant logged later lies at or after it.  Its return value is the
    replication's result.
    """
    if policy is _BASELINES["offload_only"] and not collect_events:
        return (yield from _offload_only_replication(p, cfg, rep, times))
    rows, cap, clamps = _lookup(policy)

    horizon = cfg.horizon
    warmup = cfg.warmup
    rng_arrivals = substream(cfg.seed, rep, ARRIVALS)
    rng_triplets = substream(cfg.seed, rep, TRIPLETS)
    lam = p.lam
    l2_ratio = p.mu_c1 / p.mu_l2
    inv_c1 = 1.0 / p.mu_c1
    inv_c2 = 1.0 / p.mu_c2
    # module constants as locals: the loop reads them at every event
    idle, sm1, sm2, inf, chunk, trip_chunk = IDLE, SM1, SM2, INF, _CHUNK, _TRIP_CHUNK

    gaps: list[float] = []
    gap_i = 0
    trip: list[float] = []
    trip_i = trip_chunk

    t = 0.0
    t_area = warmup  # the instant up to which the area has been added
    n0 = 0
    i2 = 0
    i1 = 0
    n2 = 0
    nf = 0.0  # jobs in the system, a float for the area product

    base: deque = deque()  # arrival times of the queued jobs, oldest first
    cloud_q: deque = deque()  # split jobs at the cloud: (arrival_time, sigma_c2)
    base_append, base_popleft = base.append, base.popleft
    cloud_append, cloud_popleft = cloud_q.append, cloud_q.popleft
    local_arr = 0.0
    local_c2 = 0.0
    local_done = inf  # finite exactly while the local slot is busy
    sm1_arr = 0.0
    sm1_remaining = 0.0
    sm1_done = inf  # finite exactly while the full-offload job is in service
    cloud_sm2_done = inf  # finite exactly while split jobs are at the cloud
    # earliest service timer and its event code, ties going to local, then
    # split cloud, then full-offload cloud; arrivals change no timer
    t_srv = inf
    srv_ev = 1

    if lam > 0.0:
        gaps = (rng_arrivals.standard_exponential(chunk) / lam).tolist()
        next_arrival = gaps[0]
        gap_i = 1
    else:
        next_arrival = inf

    completed = 0
    counted = 0
    sojourn_sum = 0.0
    area = 0.0
    saturation = 0
    pending_kind = -1
    collect = collect_events or times is not None
    events: list = []

    while True:
        # ---- apply the policy until it idles ----
        # inside the cap a row with no job queued can only idle; a
        # dispatch starts a timer that was infinite: compare it to t_srv
        while n0 or n2 > cap:
            if n0 <= cap and n2 <= cap:
                a = rows[i2][i1][n0][n2]
            else:  # beyond the cap: the clamped row
                a = rows[i2][i1][n0 if n0 < cap else cap][n2 if n2 < cap else cap]
                saturation += clamps
            if a == idle:
                break
            if a != sm2:  # full offload, alone or first in the composite
                if trip_i == trip_chunk:
                    trip = rng_triplets.standard_exponential(trip_chunk).tolist()
                    trip_i = 0
                sm1_arr = base_popleft()
                sm1_remaining = trip[trip_i] * inv_c1
                trip_i += 2
                n0 -= 1
                i1 = 1
                if n2 == 0:
                    sm1_done = t + sm1_remaining
                    if sm1_done < t_srv:
                        t_srv = sm1_done
                        srv_ev = 3
                if a == sm1:
                    continue
            # SM2, or the second half of the composite
            if trip_i == trip_chunk:
                trip = rng_triplets.standard_exponential(trip_chunk).tolist()
                trip_i = 0
            local_arr = base_popleft()
            local_done = t + l2_ratio * (trip[trip_i] * inv_c1)
            local_c2 = trip[trip_i + 1] * inv_c2
            trip_i += 2
            n0 -= 1
            i2 = 1
            if local_done <= t_srv:
                t_srv = local_done
                srv_ev = 1

        if collect and pending_kind >= 0:
            if collect_events:
                events.append((t, EVENT_KINDS[pending_kind], n0, i2, i1, n2))
            else:
                times[pending_kind].append(t)

        # ---- next event, an arrival winning ties; the time-average
        # area over [warmup, horizon] is added up to each event ----
        if next_arrival <= t_srv:
            if next_arrival > horizon:
                break
            t = next_arrival
            if t > warmup:
                area += nf * (t - t_area)
                t_area = t
            pending_kind = 0
            base_append(t)
            n0 += 1
            nf += 1.0
            if gap_i == chunk:
                if times is not None:
                    # this arrival is logged after the pause: a window
                    # ends before the instant that opens the next one
                    yield t
                gaps = (rng_arrivals.standard_exponential(chunk) / lam).tolist()
                gap_i = 0
            next_arrival = t + gaps[gap_i]
            gap_i += 1
            continue
        if t_srv > horizon:
            break
        t = t_srv
        if t > warmup:
            area += nf * (t - t_area)
            t_area = t
        pending_kind = srv_ev
        if srv_ev == 1:
            # local preprocessing done: the split job joins the cloud
            # queue, pausing a full-offload job in service
            i2 = 0
            local_done = inf
            if n2 == 0:
                if sm1_done < inf:
                    sm1_remaining = sm1_done - t
                    sm1_done = inf
                cloud_sm2_done = t + local_c2
            cloud_append((local_arr, local_c2))
            n2 += 1
            # a split job is at the cloud, so no full-offload job runs
            t_srv = cloud_sm2_done
            srv_ev = 2
        elif srv_ev == 2:
            # cloud finishes the head split job
            job = cloud_popleft()
            n2 -= 1
            nf -= 1.0
            completed += 1
            if job[0] >= warmup:
                counted += 1
                sojourn_sum += t - job[0]
            if n2 > 0:
                cloud_sm2_done = t_srv = t + cloud_q[0][1]
                srv_ev = 2
            else:
                cloud_sm2_done = inf
                if i1 == 1:
                    sm1_done = t + sm1_remaining
                t_srv = sm1_done
                srv_ev = 3
            if local_done <= t_srv:
                t_srv = local_done
                srv_ev = 1
        else:
            # cloud finishes the full-offload job; it ran, so no split
            # job is at the cloud
            i1 = 0
            sm1_done = inf
            nf -= 1.0
            completed += 1
            if sm1_arr >= warmup:
                counted += 1
                sojourn_sum += t - sm1_arr
            t_srv = local_done
            srv_ev = 1
    area += nf * (horizon - t_area)
    if times is not None:
        yield INF
    span = horizon - warmup
    return _RepResult(
        jobs_arrived=completed + int(nf),
        jobs_completed=completed,
        jobs_in_system=int(nf),
        mean_sojourn=sojourn_sum / counted if counted else 0.0,
        time_avg_jobs=area / span,
        lambda_eff=counted / span,
        saturation_events=saturation,
        events=events if collect_events else None,
    )


def _finish(run: Generator[float, None, _RepResult]) -> _RepResult:
    """Run a replication to its end and return its result."""
    try:
        while True:
            next(run)
    except StopIteration as done:
        return done.value


@dataclass(frozen=True)
class DelayReport:
    """Replication-aggregated delay statistics.

    The point estimate is the mean of per-replication mean sojourns; the
    95% half-width uses the Student-t quantile over replications (NaN for
    a single replication).  Per-replication arrays are kept for auditing;
    ``event_logs`` is populated only when event collection was requested.
    """

    mean_sojourn: float
    ci_halfwidth: float
    time_avg_jobs: float
    jobs_completed: int
    replications: int
    horizon: float
    warmup: float
    rep_mean_sojourn: np.ndarray
    rep_time_avg_jobs: np.ndarray
    rep_jobs_completed: np.ndarray
    rep_jobs_arrived: np.ndarray
    rep_jobs_in_system: np.ndarray
    rep_lambda_eff: np.ndarray
    saturation_events: int
    event_logs: list | None = None

    def littles_law(self) -> tuple[float, float, float]:
        """(time-average N, lambda_eff * mean sojourn, combined standard error)."""
        lhs = self.rep_time_avg_jobs
        rhs = self.rep_lambda_eff * self.rep_mean_sojourn
        r = len(lhs)
        se = math.sqrt(
            (np.var(lhs, ddof=1) + np.var(rhs, ddof=1)) / r
        ) if r > 1 else float("nan")
        return float(lhs.mean()), float(rhs.mean()), se

    def to_json_dict(self) -> dict:
        return {
            "mean_sojourn": self.mean_sojourn,
            "ci_halfwidth": self.ci_halfwidth,
            "time_avg_jobs": self.time_avg_jobs,
            "jobs_completed": self.jobs_completed,
            "replications": self.replications,
            "horizon": self.horizon,
            "warmup": self.warmup,
            "rep_mean_sojourn": self.rep_mean_sojourn.tolist(),
            "rep_time_avg_jobs": self.rep_time_avg_jobs.tolist(),
            "saturation_events": self.saturation_events,
            "inadmissible_stops": 0,  # a table never stops; the field stays in the artifact
        }


def _t_halfwidth(x: np.ndarray) -> float:
    """95% Student-t half-width of the mean of ``x`` (NaN for one value)."""
    n = len(x)
    if n < 2:
        return float("nan")
    return float(stdtrit(n - 1, 0.975) * x.std(ddof=1) / math.sqrt(n))


def _aggregate(reps: list[_RepResult], cfg: SimConfig, keep_events: bool) -> DelayReport:
    means = np.array([r.mean_sojourn for r in reps])
    tavg = np.array([r.time_avg_jobs for r in reps])
    return DelayReport(
        mean_sojourn=float(means.mean()),
        ci_halfwidth=_t_halfwidth(means),
        time_avg_jobs=float(tavg.mean()),
        jobs_completed=int(sum(r.jobs_completed for r in reps)),
        replications=len(reps),
        horizon=cfg.horizon,
        warmup=cfg.warmup,
        rep_mean_sojourn=means,
        rep_time_avg_jobs=tavg,
        rep_jobs_completed=np.array([r.jobs_completed for r in reps]),
        rep_jobs_arrived=np.array([r.jobs_arrived for r in reps]),
        rep_jobs_in_system=np.array([r.jobs_in_system for r in reps]),
        rep_lambda_eff=np.array([r.lambda_eff for r in reps]),
        saturation_events=int(sum(r.saturation_events for r in reps)),
        event_logs=[r.events for r in reps] if keep_events else None,
    )


def simulate(
    policy: PolicyTable,
    p: ModelParams,
    cfg: SimConfig,
    collect_events: bool = False,
) -> DelayReport:
    """Simulate one policy over independent replications.

    Replication r uses the named substreams (seed, r, ARRIVALS) and
    (seed, r, TRIPLETS); results are merged in replication order, so the
    report is a deterministic function of (policy, params, config).
    """
    reps = [_finish(_run_replication(policy, p, cfg, r, collect_events=collect_events))
            for r in range(cfg.replications)]
    return _aggregate(reps, cfg, collect_events)


@dataclass(frozen=True)
class CoupledReport:
    """Paired comparison of two policies on shared arrivals and triplets.

    ``diff_mean`` is the mean over replications of (mean sojourn under B -
    mean sojourn under A); ``dominance_fraction`` is the fraction of event
    instants, pooled over replications, at which system B holds at most as
    many jobs as system A, and ``rep_dominance`` the same per replication
    (NaN when a replication has no events).  The instants are every event
    <= horizon of either system: arrivals, local-preprocessing completions
    and both kinds of cloud completion.  Equal instants count once, and the
    state compared is the one after all events at that instant.
    """

    report_a: DelayReport
    report_b: DelayReport
    diff_mean: float
    diff_ci_halfwidth: float
    rep_diff: np.ndarray
    dominance_fraction: float
    rep_dominance: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "policy_a": self.report_a.to_json_dict(),
            "policy_b": self.report_b.to_json_dict(),
            "diff_mean": self.diff_mean,
            "diff_ci_halfwidth": self.diff_ci_halfwidth,
            "rep_diff": self.rep_diff.tolist(),
            "dominance_fraction": self.dominance_fraction,
            "rep_dominance": self.rep_dominance.tolist(),
        }


def _dominance_counts(times_a: tuple, times_b: tuple, lead: int = 0) -> tuple[int, int]:
    """(instants where B holds at most as many jobs as A, instants).

    Takes each system's per-kind event-time logs; the instants are those
    ``CoupledReport`` describes.  The arrivals are shared, so B holds at
    most as many jobs exactly when it has completed at least as many: the
    sorted logs are merged, and a sum of +1 per completion in A and -1 per
    completion in B, starting from ``lead``, is read after the last event
    at each instant.  B's arrival log is not read.
    """
    runs = (*times_a, *times_b[1:])  # B's arrivals are A's
    sizes = [len(r) for r in runs]
    t = np.fromiter(chain.from_iterable(runs), float, sum(sizes))
    step = np.repeat([0, 0, 1, 1, 0, -1, -1], sizes)
    order = np.argsort(t, kind="stable")
    t = t[order]
    lead = lead + np.cumsum(step[order])
    last = np.diff(t, append=np.inf) != 0  # the last event at each instant
    return int(np.count_nonzero(lead[last] <= 0)), int(np.count_nonzero(last))


def _count_window(times_a: tuple, times_b: tuple, until: float, lead: int) -> tuple[int, int, int]:
    """Count the instants before ``until`` and drop their entries from the logs.

    Returns the ``_dominance_counts`` pair and the lead, A's completions
    minus B's, carried into the next window.  Entries at or after ``until``
    stay in the logs for the next window, since more events may follow at
    that instant.
    """
    runs = (*times_a, *times_b[1:])
    cuts = [bisect_left(r, until) for r in runs]
    heads = [r[:k] for r, k in zip(runs, cuts)]
    hits, instants = _dominance_counts(heads[:4], [None, *heads[4:]], lead)
    for r, k in zip(runs, cuts):
        del r[:k]
    return hits, instants, lead + cuts[2] + cuts[3] - cuts[5] - cuts[6]


def coupled_compare(
    policy_a: PolicyTable,
    policy_b: PolicyTable,
    p: ModelParams,
    cfg: SimConfig,
) -> CoupledReport:
    """Run both policies on identical arrival times and job triplets.

    Replication r of both systems uses the same two substreams, so job j
    sees the same arrival instant and the same service triplet in both
    systems, and any difference in the reports is attributable to the
    policies alone.  Both systems see the same arrivals, so they pause at
    the same instants: each replication advances A and B one window of
    ``_CHUNK`` arrivals at a time and counts the dominance instants of that
    window before the next is logged.  The logs never hold more than one
    window, and B's arrivals, which are A's, are not kept at all.
    """
    reps_a = []
    reps_b = []
    dom_hits = 0
    dom_total = 0
    rep_dom = []
    for r in range(cfg.replications):
        times_a = tuple([] for _ in EVENT_KINDS)
        times_b = (deque(maxlen=0), [], [], [])  # B's arrivals are discarded
        run_a = _run_replication(policy_a, p, cfg, r, times=times_a)
        run_b = _run_replication(policy_b, p, cfg, r, times=times_b)
        hits = instants = lead = 0
        until = 0.0
        while until < INF:
            until = next(run_a)
            next(run_b)
            h, n, lead = _count_window(times_a, times_b, until, lead)
            hits += h
            instants += n
        dom_hits += hits
        dom_total += instants
        rep_dom.append(hits / instants if instants else float("nan"))
        reps_a.append(_finish(run_a))
        reps_b.append(_finish(run_b))
    report_a = _aggregate(reps_a, cfg, False)
    report_b = _aggregate(reps_b, cfg, False)
    diff = report_b.rep_mean_sojourn - report_a.rep_mean_sojourn
    return CoupledReport(
        report_a=report_a,
        report_b=report_b,
        diff_mean=float(diff.mean()),
        diff_ci_halfwidth=_t_halfwidth(diff),
        rep_diff=diff,
        dominance_fraction=dom_hits / dom_total if dom_total else float("nan"),
        rep_dominance=np.array(rep_dom),
    )
