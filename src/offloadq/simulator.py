"""Continuous-time discrete-event simulation of the offloading system.

The simulated system is untruncated; table policies saturate their lookup
at the solved cap and count how often that happened.  At every arrival or
completion instant the policy is applied repeatedly (full offload before
split, honoring the composite) until it idles or prescribes something
inadmissible.  The cloud serves split jobs ahead of a full-offload job
with preemptive-resume priority: the interrupted job keeps its remaining
service requirement and no fresh randomness is drawn, so a replication is
a deterministic function of the seed, and two coupled systems share
exactly the arrival and service-triplet streams and nothing else.

The event loop reads each action from nested lists while both queue
counts are within a cap, and calls the policy beyond it.  A
``TablePolicy`` supplies its own rows and cap; the two baselines supply
rows tabulated over ``BASELINE_CAP``; any other callable has no rows and
is always called.  Inside the cap the rows equal the call, so the lookup
changes no sample path, and every clamped lookup of a table still goes
through its ``action`` and is counted.

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
replication never pauses, and ``simulate`` runs the same event loop to its
end.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Callable, Generator

import numpy as np
from scipy.special import stdtrit

from .kernel import build_state_space, check_action_codes
from .model import Action, ModelParams

INF = math.inf

ARRIVALS = 0
TRIPLETS = 1

# plain ints: the event loop compares against them after every event
IDLE, SM1, SM2, SM1_THEN_SM2 = (int(a) for a in Action)

_CHUNK = 4096  # arrival gaps per draw
_TRIP_CHUNK = 2 * _CHUNK  # triplet draws: two per job
# queue cap of the baselines' tabulated rows; at horizon 1e4 and loads up
# to 0.8 (f 0.4, K 8) under 0.2% of their policy calls fall beyond it
BASELINE_CAP = 60

# event-log record layout: (time, kind, n0, i2, i1, n2) with the state
# taken after the event and any same-instant assignments
EVENT_KINDS = ("arrival", "local_done", "cloud_sm2_done", "cloud_sm1_done")


class SimulationError(RuntimeError):
    """A replication could not proceed (policy lookup failure or similar)."""


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
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.warmup is None:
            object.__setattr__(self, "warmup", 0.1 * self.horizon)
        if not 0.0 <= self.warmup < self.horizon:
            raise ValueError(
                f"warmup must lie in [0, horizon), got {self.warmup} vs {self.horizon}"
            )
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")


class TablePolicy:
    """Policy-table lookup with saturation at the solved queue cap.

    ``actions`` is a policy array over the truncated state space of cap
    ``n_max``, in state-id order, holding Action codes only.  It is held
    as nested lists indexed ``[n0][i2][i1][n2]``, which the event loop
    reads directly while n0 and n2 are within the cap.  Live simulation
    states can exceed the cap; there the loop calls ``action``, which
    clamps n0 and n2 to the cap and counts every clamped decision in
    ``saturation_events``.
    """

    def __init__(self, actions, n_max: int):
        acts = np.asarray(actions)
        m1 = n_max + 1
        if acts.shape != (4 * m1**2,):
            raise ValueError(
                f"policy table has {acts.shape[0]} entries, cap {n_max} needs "
                f"{4 * m1**2}"
            )
        check_action_codes(acts)
        self._rows = acts.astype(int).reshape(m1, 2, 2, m1).tolist()
        self.n_max = n_max
        self.saturation_events = 0

    def action(self, n0: int, i2: int, i1: int, n2: int) -> int:
        m = self.n_max
        if n0 > m or n2 > m:
            self.saturation_events += 1
            if n0 > m:
                n0 = m
            if n2 > m:
                n2 = m
        return self._rows[n0][i2][i1][n2]


def _offload_only(n0: int, i2: int, i1: int, n2: int) -> int:
    return SM1 if n0 >= 1 and i1 == 0 else IDLE


def _non_idling(n0: int, i2: int, i1: int, n2: int) -> int:
    if n0 < 1:
        return IDLE
    if i1 == 0 and n2 == 0:
        if i2 == 0:
            return SM1_THEN_SM2 if n0 >= 2 else SM1
        return SM1
    return SM2 if i2 == 0 else IDLE


_BASELINES: dict[str, Callable[[int, int, int, int], int]] = {
    "offload_only": _offload_only,
    "non_idling": _non_idling,
}


def baseline(name: str):
    """Reference dispatching rules: pure offloading, or maximal utilization."""
    try:
        return _BASELINES[name]
    except KeyError:
        raise ValueError(
            f"unknown baseline {name!r}; available: {sorted(_BASELINES)}"
        ) from None


def tabulate_policy(policy, space) -> np.ndarray:
    """Materialize any policy onto a truncated state space as an action array."""
    act = policy.action if hasattr(policy, "action") else policy
    states = (space.n0.tolist(), space.i2.tolist(), space.i1.tolist(), space.n2.tolist())
    return np.fromiter(map(act, *states), np.int8, space.size)


@cache  # keyed by the baseline function: two entries at most
def _baseline_rows(fn) -> list:
    """A baseline's rows over ``BASELINE_CAP``, tabulated on first use."""
    return TablePolicy(tabulate_policy(fn, build_state_space(BASELINE_CAP)), BASELINE_CAP)._rows


def _lookup(policy) -> tuple:
    """``(rows, cap, act)`` with ``rows[n0][i2][i1][n2] == act(n0, i2, i1, n2)``
    whenever ``n0 <= cap and n2 <= cap``; ``cap`` is -1 when there are no rows.
    """
    if type(policy) is TablePolicy:
        return policy._rows, policy.n_max, policy.action
    if policy is _offload_only or policy is _non_idling:
        return _baseline_rows(policy), BASELINE_CAP, policy
    return None, -1, policy.action if hasattr(policy, "action") else policy


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
    counted_jobs: int
    mean_sojourn: float
    time_avg_jobs: float
    lambda_eff: float
    saturation_events: int
    inadmissible_stops: int
    events: list | None = None


def _run_replication(
    policy,
    p: ModelParams,
    cfg: SimConfig,
    rep: int,
    collect_events: bool = False,
    times: tuple | None = None,
) -> Generator[float, None, _RepResult]:
    """Replication ``rep`` on the substreams (cfg.seed, rep, ARRIVALS/TRIPLETS).

    ``times`` holds one log per entry of ``EVENT_KINDS``, anything with an
    ``append``; the loop appends each event instant to its kind's log,
    unless ``collect_events`` logs the full records instead.  With
    ``times`` the generator yields at every refill of the arrival gaps the
    instant of the arrival just drawn, and ``INF`` after the last event:
    every instant logged by then lies at or before the yielded value, and
    any instant logged later lies at or after it.  Its return value is the
    replication's result.
    """
    rows, cap, act = _lookup(policy)
    sat_before = getattr(policy, "saturation_events", 0)

    horizon = cfg.horizon
    warmup = cfg.warmup
    rng_arrivals = substream(cfg.seed, rep, ARRIVALS)
    rng_triplets = substream(cfg.seed, rep, TRIPLETS)
    lam = p.lam
    l2_ratio = p.mu_c1 / p.mu_l2
    inv_c1 = 1.0 / p.mu_c1
    inv_c2 = 1.0 / p.mu_c2

    gaps: list[float] = []
    gap_i = 0
    trip: list[float] = []
    trip_i = _TRIP_CHUNK

    t = 0.0
    n0 = 0
    i2 = 0
    i1 = 0
    n2 = 0
    nf = 0.0  # jobs in the system, a float for the area product

    base: deque = deque()  # arrival times of the queued jobs, oldest first
    cloud_q: deque = deque()  # split jobs at the cloud: (arrival_time, sigma_c2)
    local_arr = 0.0
    local_c2 = 0.0
    local_done = INF  # finite exactly while the local slot is busy
    sm1_arr = 0.0
    sm1_remaining = 0.0
    sm1_done = INF  # finite exactly while the full-offload job is in service
    cloud_sm2_done = INF  # finite exactly while split jobs are at the cloud
    # earliest service timer and its event code, ties going to local, then
    # split cloud, then full-offload cloud; arrivals change no timer
    t_srv = INF
    srv_ev = 1

    if lam > 0.0:
        gaps = (rng_arrivals.standard_exponential(_CHUNK) / lam).tolist()
        next_arrival = gaps[0]
        gap_i = 1
    else:
        next_arrival = INF

    arrived = 0
    completed = 0
    counted = 0
    sojourn_sum = 0.0
    area = 0.0
    inadmissible = 0
    pending_kind = -1
    collect = collect_events or times is not None
    events: list = []

    try:
        while True:
            # ---- apply the policy until it idles or stalls ----
            # a dispatch starts a timer that was infinite: compare it to t_srv
            while True:
                if n0 <= cap and n2 <= cap:
                    a = rows[n0][i2][i1][n2]
                else:
                    a = act(n0, i2, i1, n2)
                if a == IDLE:
                    break
                if a == SM1 or a == SM1_THEN_SM2:
                    if n0 < 1 or i1 == 1 or (a != SM1 and (n0 < 2 or i2 == 1)):
                        inadmissible += 1
                        break
                    if trip_i == _TRIP_CHUNK:
                        trip = rng_triplets.standard_exponential(_TRIP_CHUNK).tolist()
                        trip_i = 0
                    sm1_arr = base.popleft()
                    sm1_remaining = trip[trip_i] * inv_c1
                    trip_i += 2
                    n0 -= 1
                    i1 = 1
                    if n2 == 0:
                        sm1_done = t + sm1_remaining
                        if sm1_done < t_srv:
                            t_srv = sm1_done
                            srv_ev = 3
                    if a == SM1:
                        continue
                elif a != SM2:
                    raise SimulationError(
                        f"policy returned unknown action {a!r} in state "
                        f"({n0},{i2},{i1},{n2})"
                    )
                elif n0 < 1 or i2 == 1:
                    inadmissible += 1
                    break
                # SM2, or the second half of the composite
                if trip_i == _TRIP_CHUNK:
                    trip = rng_triplets.standard_exponential(_TRIP_CHUNK).tolist()
                    trip_i = 0
                local_arr = base.popleft()
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

            # ---- next event; an arrival wins ties ----
            if next_arrival <= t_srv:
                t_ev = next_arrival
                ev = 0
            else:
                t_ev = t_srv
                ev = srv_ev

            # ---- time-average area over [warmup, horizon] ----
            if t_ev > horizon:
                area += nf * (horizon - (t if t > warmup else warmup))
                break
            if t_ev > warmup:
                area += nf * (t_ev - (t if t > warmup else warmup))
            t = t_ev
            pending_kind = ev

            if ev == 0:
                base.append(t)
                n0 += 1
                nf += 1.0
                arrived += 1
                if gap_i == _CHUNK:
                    if times is not None:
                        # this arrival is logged after the pause: a window
                        # ends before the instant that opens the next one
                        yield t
                    gaps = (rng_arrivals.standard_exponential(_CHUNK) / lam).tolist()
                    gap_i = 0
                next_arrival = t + gaps[gap_i]
                gap_i += 1
                continue
            if ev == 1:
                # local preprocessing done: the split job joins the cloud
                # queue, pausing a full-offload job in service
                i2 = 0
                local_done = INF
                if n2 == 0:
                    if sm1_done < INF:
                        sm1_remaining = sm1_done - t
                        sm1_done = INF
                    cloud_sm2_done = t + local_c2
                cloud_q.append((local_arr, local_c2))
                n2 += 1
                # a split job is at the cloud, so no full-offload job runs
                t_srv = cloud_sm2_done
                srv_ev = 2
            elif ev == 2:
                # cloud finishes the head split job
                job = cloud_q.popleft()
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
                    cloud_sm2_done = INF
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
                sm1_done = INF
                nf -= 1.0
                completed += 1
                if sm1_arr >= warmup:
                    counted += 1
                    sojourn_sum += t - sm1_arr
                t_srv = local_done
                srv_ev = 1
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"replication aborted at t={t:.6g} in state ({n0},{i2},{i1},{n2}): {exc}"
        ) from exc

    if times is not None:
        yield INF
    span = horizon - warmup
    return _RepResult(
        jobs_arrived=arrived,
        jobs_completed=completed,
        jobs_in_system=int(nf),
        counted_jobs=counted,
        mean_sojourn=sojourn_sum / counted if counted else 0.0,
        time_avg_jobs=area / span,
        lambda_eff=counted / span,
        saturation_events=getattr(policy, "saturation_events", 0) - sat_before,
        inadmissible_stops=inadmissible,
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
    rep_counted_jobs: np.ndarray
    rep_lambda_eff: np.ndarray
    saturation_events: int
    inadmissible_stops: int
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
            "inadmissible_stops": self.inadmissible_stops,
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
        rep_counted_jobs=np.array([r.counted_jobs for r in reps]),
        rep_lambda_eff=np.array([r.lambda_eff for r in reps]),
        saturation_events=int(sum(r.saturation_events for r in reps)),
        inadmissible_stops=int(sum(r.inadmissible_stops for r in reps)),
        event_logs=[r.events for r in reps] if keep_events else None,
    )


def simulate(
    policy,
    p: ModelParams,
    cfg: SimConfig,
    collect_events: bool = False,
) -> DelayReport:
    """Simulate one policy over independent replications.

    Replication r uses the named substreams (seed, r, ARRIVALS) and
    (seed, r, TRIPLETS); results are merged in replication order, so the
    report is a deterministic function of (policy, params, config).
    """
    reps = [
        _finish(_run_replication(policy, p, cfg, r, collect_events=collect_events))
        for r in range(cfg.replications)
    ]
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
    policy_a,
    policy_b,
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
