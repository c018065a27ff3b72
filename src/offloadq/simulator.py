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

Every job carries a triplet of service times drawn at arrival time: a
full-offload cloud time, a local preprocessing time tied to it by the
fixed ratio ``mu_c1/mu_l2``, and an independent split-remainder cloud
time.  Coupling by job index follows from drawing the triplet in arrival
order.

Replication r of a run with master seed s draws from two named
substreams, ``substream(s, r, ARRIVALS)`` and ``substream(s, r,
TRIPLETS)``.  Statistics exclude a warmup period: a job contributes to
sojourn statistics when it arrives after warmup and completes within the
horizon.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import stdtrit

from .model import ModelParams

INF = math.inf

ARRIVALS = 0
TRIPLETS = 1

SHARED = "shared_arrivals_and_triplets"
INDEPENDENT = "independent"

IDLE, SM1, SM2, SM1_THEN_SM2 = 0, 1, 2, 3

_CHUNK = 4096

# event-log record layout: (time, kind, n0, i2, i1, n2) with the state
# taken after the event and any same-instant assignments
EVENT_KINDS = ("arrival", "local_done", "cloud_sm2_done", "cloud_sm1_done")


class SimulationError(RuntimeError):
    """A replication could not proceed (policy lookup failure or similar)."""


class JobTriplet(NamedTuple):
    sigma_c1: float
    sigma_l2: float
    sigma_c2: float


def substream(seed: int, rep: int, purpose: int) -> np.random.Generator:
    """Named, reproducible generator for one purpose within one replication."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep, purpose))
    return np.random.Generator(np.random.PCG64(ss))


def gen_triplet(rng: np.random.Generator, p: ModelParams) -> JobTriplet:
    """Draw one job's coupled service-time triplet.

    The full-offload time is Exponential(mu_c1); the local preprocessing
    time is the same draw scaled by mu_c1/mu_l2 (hence Exponential(mu_l2)
    marginally, and always larger since mu_c1 > mu_l2); the split-remainder
    time is an independent Exponential(mu_c2).
    """
    e1, e2 = rng.standard_exponential(2)
    sigma_c1 = e1 / p.mu_c1
    return JobTriplet(sigma_c1, (p.mu_c1 / p.mu_l2) * sigma_c1, e2 / p.mu_c2)


@dataclass(frozen=True)
class SimConfig:
    """Run lengths, replication count, master seed, and coupling mode.

    ``warmup=None`` resolves to 10% of the horizon.
    """

    horizon: float = 1e5
    warmup: float | None = None
    replications: int = 20
    seed: int = 12345
    coupling: str = SHARED

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
        if self.coupling not in (SHARED, INDEPENDENT):
            raise ValueError(f"unknown coupling mode {self.coupling!r}")


class TablePolicy:
    """Policy-table lookup with saturation at the solved queue cap.

    Live simulation states can exceed the cap the policy was solved on;
    lookups clamp n0 and n2 to the cap and count every clamped decision in
    ``saturation_events``.
    """

    def __init__(self, actions, n_max: int):
        acts = np.asarray(actions)
        if acts.shape != (4 * (n_max + 1) ** 2,):
            raise ValueError(
                f"policy table has {acts.shape[0]} entries, cap {n_max} needs "
                f"{4 * (n_max + 1) ** 2}"
            )
        self._acts = acts.astype(int).tolist()
        self.n_max = n_max
        self._m1 = n_max + 1
        self.saturation_events = 0

    def action(self, n0: int, i2: int, i1: int, n2: int) -> int:
        m = self.n_max
        if n0 > m or n2 > m:
            self.saturation_events += 1
            if n0 > m:
                n0 = m
            if n2 > m:
                n2 = m
        return self._acts[((n0 * 2 + i2) * 2 + i1) * self._m1 + n2]


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
    out = np.zeros(space.size, dtype=np.int8)
    for sid in range(space.size):
        out[sid] = act(
            int(space.n0[sid]), int(space.i2[sid]), int(space.i1[sid]), int(space.n2[sid])
        )
    return out


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
    traj_t: np.ndarray | None = None
    traj_n: np.ndarray | None = None


def _run_replication(
    policy,
    p: ModelParams,
    horizon: float,
    warmup: float,
    rng_arrivals: np.random.Generator,
    rng_triplets: np.random.Generator,
    collect_events: bool = False,
    collect_traj: bool = False,
) -> _RepResult:
    act = policy.action if hasattr(policy, "action") else policy
    sat_before = getattr(policy, "saturation_events", 0)

    lam = p.lam
    l2_ratio = p.mu_c1 / p.mu_l2
    inv_c1 = 1.0 / p.mu_c1
    inv_c2 = 1.0 / p.mu_c2

    gaps: list[float] = []
    gap_i = 0
    trip: list[float] = []
    trip_i = 0

    t = 0.0
    n0 = 0
    i2 = 0
    i1 = 0
    n2 = 0
    n_tot = 0

    base: deque = deque()  # queued jobs: (arrival_time, sigma_c1, sigma_l2, sigma_c2)
    cloud_q: deque = deque()  # split jobs at the cloud: (arrival_time, sigma_c2)
    local_arr = 0.0
    local_c2 = 0.0
    local_done = INF
    sm1_arr = 0.0
    sm1_remaining = 0.0
    sm1_done = INF  # finite exactly while the full-offload job is in service
    cloud_sm2_done = INF

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
    collect = collect_events or collect_traj
    events: list = []
    traj_t: list = [0.0]
    traj_n: list = [0]

    try:
        while True:
            # ---- apply the policy until it idles or stalls ----
            while True:
                a = act(n0, i2, i1, n2)
                if a == IDLE:
                    break
                if a == SM1:
                    if n0 < 1 or i1 == 1:
                        inadmissible += 1
                        break
                    job = base.popleft()
                    n0 -= 1
                    i1 = 1
                    sm1_arr = job[0]
                    sm1_remaining = job[1]
                    if n2 == 0:
                        sm1_done = t + sm1_remaining
                elif a == SM2:
                    if n0 < 1 or i2 == 1:
                        inadmissible += 1
                        break
                    job = base.popleft()
                    n0 -= 1
                    i2 = 1
                    local_arr = job[0]
                    local_c2 = job[3]
                    local_done = t + job[2]
                elif a == SM1_THEN_SM2:
                    if n0 < 2 or i1 == 1 or i2 == 1:
                        inadmissible += 1
                        break
                    job = base.popleft()
                    n0 -= 1
                    i1 = 1
                    sm1_arr = job[0]
                    sm1_remaining = job[1]
                    if n2 == 0:
                        sm1_done = t + sm1_remaining
                    job = base.popleft()
                    n0 -= 1
                    i2 = 1
                    local_arr = job[0]
                    local_c2 = job[3]
                    local_done = t + job[2]
                else:
                    raise SimulationError(
                        f"policy returned unknown action {a!r} in state "
                        f"({n0},{i2},{i1},{n2})"
                    )

            if collect and pending_kind >= 0:
                if collect_events:
                    events.append((t, EVENT_KINDS[pending_kind], n0, i2, i1, n2))
                if collect_traj:
                    traj_t.append(t)
                    traj_n.append(n_tot)

            # ---- next event ----
            t_ev = next_arrival
            ev = 0
            if local_done < t_ev:
                t_ev = local_done
                ev = 1
            if cloud_sm2_done < t_ev:
                t_ev = cloud_sm2_done
                ev = 2
            if sm1_done < t_ev:
                t_ev = sm1_done
                ev = 3

            # ---- time-average area over [warmup, horizon] ----
            seg_end = t_ev if t_ev < horizon else horizon
            if seg_end > warmup and n_tot:
                seg_start = t if t > warmup else warmup
                area += n_tot * (seg_end - seg_start)
            if t_ev > horizon:
                break
            t = t_ev
            pending_kind = ev

            if ev == 0:
                # arrival; the job's service triplet is drawn now, in
                # arrival order, two standard-exponential draws per job
                if trip_i >= len(trip):
                    trip = rng_triplets.standard_exponential(2 * _CHUNK).tolist()
                    trip_i = 0
                c1 = trip[trip_i] * inv_c1
                c2 = trip[trip_i + 1] * inv_c2
                trip_i += 2
                base.append((t, c1, l2_ratio * c1, c2))
                n0 += 1
                n_tot += 1
                arrived += 1
                if gap_i >= len(gaps):
                    gaps = (rng_arrivals.standard_exponential(_CHUNK) / lam).tolist()
                    gap_i = 0
                next_arrival = t + gaps[gap_i]
                gap_i += 1
            elif ev == 1:
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
            elif ev == 2:
                # cloud finishes the head split job
                job = cloud_q.popleft()
                n2 -= 1
                n_tot -= 1
                completed += 1
                if job[0] >= warmup:
                    counted += 1
                    sojourn_sum += t - job[0]
                if n2 > 0:
                    cloud_sm2_done = t + cloud_q[0][1]
                else:
                    cloud_sm2_done = INF
                    if i1 == 1:
                        sm1_done = t + sm1_remaining
            else:
                # cloud finishes the full-offload job
                i1 = 0
                sm1_done = INF
                n_tot -= 1
                completed += 1
                if sm1_arr >= warmup:
                    counted += 1
                    sojourn_sum += t - sm1_arr
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"replication aborted at t={t:.6g} in state ({n0},{i2},{i1},{n2}): {exc}"
        ) from exc

    span = horizon - warmup
    return _RepResult(
        jobs_arrived=arrived,
        jobs_completed=completed,
        jobs_in_system=n_tot,
        counted_jobs=counted,
        mean_sojourn=sojourn_sum / counted if counted else 0.0,
        time_avg_jobs=area / span,
        lambda_eff=counted / span,
        saturation_events=getattr(policy, "saturation_events", 0) - sat_before,
        inadmissible_stops=inadmissible,
        events=events if collect_events else None,
        traj_t=np.asarray(traj_t) if collect_traj else None,
        traj_n=np.asarray(traj_n) if collect_traj else None,
    )


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


def _aggregate(reps: list[_RepResult], cfg: SimConfig, keep_events: bool) -> DelayReport:
    means = np.array([r.mean_sojourn for r in reps])
    tavg = np.array([r.time_avg_jobs for r in reps])
    n = len(reps)
    if n > 1:
        half = float(stdtrit(n - 1, 0.975) * means.std(ddof=1) / math.sqrt(n))
    else:
        half = float("nan")
    return DelayReport(
        mean_sojourn=float(means.mean()),
        ci_halfwidth=half,
        time_avg_jobs=float(tavg.mean()),
        jobs_completed=int(sum(r.jobs_completed for r in reps)),
        replications=n,
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
        _run_replication(
            policy,
            p,
            cfg.horizon,
            cfg.warmup,
            substream(cfg.seed, r, ARRIVALS),
            substream(cfg.seed, r, TRIPLETS),
            collect_events=collect_events,
        )
        for r in range(cfg.replications)
    ]
    return _aggregate(reps, cfg, collect_events)


@dataclass(frozen=True)
class CoupledReport:
    """Paired comparison of two policies on shared arrivals and triplets.

    ``diff_mean`` is the mean over replications of (mean sojourn under B -
    mean sojourn under A); ``dominance_fraction`` is the fraction of event
    times, pooled over replications, at which system B holds at most as
    many jobs as system A.
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


def _dominance_counts(ra: _RepResult, rb: _RepResult) -> tuple[int, int]:
    """Count merged event times where system B holds at most as many jobs as A."""
    times = np.union1d(ra.traj_t[1:], rb.traj_t[1:])
    na = np.concatenate(([ra.traj_n[0]], ra.traj_n))[
        np.searchsorted(ra.traj_t, times, side="right")
    ]
    nb = np.concatenate(([rb.traj_n[0]], rb.traj_n))[
        np.searchsorted(rb.traj_t, times, side="right")
    ]
    return int(np.count_nonzero(nb <= na)), int(times.size)


def coupled_compare(
    policy_a,
    policy_b,
    p: ModelParams,
    cfg: SimConfig,
) -> CoupledReport:
    """Run both policies on identical arrival times and job triplets.

    Requires the shared coupling mode: replication r of both systems uses
    the same two substreams, so job j sees the same arrival instant and
    the same service triplet in both systems, and any difference in the
    reports is attributable to the policies alone.
    """
    if cfg.coupling != SHARED:
        raise ValueError(
            f"coupled comparison requires coupling={SHARED!r}, got {cfg.coupling!r}"
        )
    reps_a = []
    reps_b = []
    dom_hits = 0
    dom_total = 0
    rep_dom = []
    for r in range(cfg.replications):
        ra = _run_replication(
            policy_a,
            p,
            cfg.horizon,
            cfg.warmup,
            substream(cfg.seed, r, ARRIVALS),
            substream(cfg.seed, r, TRIPLETS),
            collect_traj=True,
        )
        rb = _run_replication(
            policy_b,
            p,
            cfg.horizon,
            cfg.warmup,
            substream(cfg.seed, r, ARRIVALS),
            substream(cfg.seed, r, TRIPLETS),
            collect_traj=True,
        )
        hits, total = _dominance_counts(ra, rb)
        dom_hits += hits
        dom_total += total
        rep_dom.append(hits / total if total else float("nan"))
        ra.traj_t = ra.traj_n = rb.traj_t = rb.traj_n = None
        reps_a.append(ra)
        reps_b.append(rb)
    report_a = _aggregate(reps_a, cfg, False)
    report_b = _aggregate(reps_b, cfg, False)
    diff = report_b.rep_mean_sojourn - report_a.rep_mean_sojourn
    n = len(diff)
    if n > 1:
        half = float(stdtrit(n - 1, 0.975) * diff.std(ddof=1) / math.sqrt(n))
    else:
        half = float("nan")
    return CoupledReport(
        report_a=report_a,
        report_b=report_b,
        diff_mean=float(diff.mean()),
        diff_ci_halfwidth=half,
        rep_diff=diff,
        dominance_fraction=dom_hits / dom_total if dom_total else float("nan"),
        rep_dominance=np.array(rep_dom),
    )
