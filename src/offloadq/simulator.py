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

The event loop reads each action from the table, with n0 and n2 clamped
to its cap: the Python loop from its nested rows (``PolicyTable.rows``),
the compiled loop from ``PolicyTable.actions`` by state id.  Every row is
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
triplet is the j-th pair of the triplet stream, however early the chunk
holding it is drawn.  Coupling by job index follows from drawing the
triplets in arrival order.

Replication r of a run with master seed s draws from two named
substreams, ``substream(s, r, ARRIVALS)`` and ``substream(s, r,
TRIPLETS)``.  Statistics exclude a warmup period: a job contributes to
sojourn statistics when it arrives after warmup and completes within the
horizon.

A replication is a generator, and every replication pauses the same way,
whether it logs or not: at every refill of the arrival gaps before the
horizon, that is every ``_CHUNK`` arrivals, and once more after its last
event.  ``coupled_compare`` advances two systems one such window at a
time and counts each window before the next is logged, so its memory
does not grow with the horizon; ``simulate`` runs a replication to its
end.

The event loop runs compiled, from ``_loop.c``, built with the system C
compiler on the first replication of a process and cached in the user
cache directory; nothing is built at import.  The Python loop in
``_run_replication`` stays: it is the reference the tests compare the
compiled loop against, the only loop that writes event records
(``collect_events``), and the one that runs when no kernel can be built
(no compiler, a build error, no writable cache directory).  The two agree
to the last bit: the C loop carries the same state between events, draws
the same chunks of the same streams, and repeats each float operation on
the same operands in the same order, compiled without contraction into
fused multiply-adds.  No option chooses between them.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import subprocess
import tempfile
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Generator

import numpy as np
from scipy.special import stdtrit

from .kernel import EVENT_KINDS, EVENTS, PolicyTable, build_state_space, state_ids
from .model import Action, ModelParams

INF = math.inf

ARRIVALS = 0
TRIPLETS = 1

# plain ints: the event loop compares against them after every event
IDLE, SM1, SM2, SM1_THEN_SM2 = (int(a) for a in Action)

_CHUNK = 4096  # arrival gaps per draw
_TRIP_CHUNK = 2 * _CHUNK  # triplet draws: two per job

# event-log record layout: (time, kind, n0, i2, i1, n2), kind one of
# kernel.EVENT_KINDS: the state is the previous record's, shifted by the
# kind's shift in kernel.EVENTS, then moved by the same-instant assignments.
# Each kind's index: a time log's position, and the event loop's event code
ARRIVAL, LOCAL_DONE, CLOUD_SM2_DONE, CLOUD_SM1_DONE = range(len(EVENT_KINDS))


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


def _close(cfg: SimConfig, area: float, t_area: float, in_system: int, completed: int,
           counted: int, sojourn_sum: float, saturation: int,
           events: list | None = None) -> Generator[float, None, _RepResult]:
    """A replication's last pause, after its last event, then its result.

    ``area`` is the time-average area added up to ``t_area``; the
    ``in_system`` jobs still in the system add theirs from there to the
    horizon.
    """
    yield INF
    span = cfg.horizon - cfg.warmup
    return _RepResult(
        jobs_arrived=completed + in_system,
        jobs_completed=completed,
        jobs_in_system=in_system,
        mean_sojourn=sojourn_sum / counted if counted else 0.0,
        time_avg_jobs=(area + in_system * (cfg.horizon - t_area)) / span,
        lambda_eff=counted / span,
        saturation_events=saturation,
        events=events,
    )


_LOOP_SOURCE = Path(__file__).with_name("_loop.c")
# no fast-math: a fused multiply-add would move the loop's last bits
_LOOP_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_LOG_SIZE = 2 * _CHUNK  # time-log entries the compiled loop holds between returns
# rep_run's return codes, as _loop.c numbers them
_REP_DONE, _REP_PAUSE, _REP_TRIP, _REP_LOG = range(4)


def _fields(ctype, names: str) -> list:
    return [(name, ctype) for name in names.split()]


class _Ring(ctypes.Structure):
    _fields_ = [("buf", ctypes.c_void_p), *_fields(ctypes.c_int64, "cap head len")]


class _Rep(ctypes.Structure):
    """``struct rep`` of ``_loop.c``, field for field."""

    _fields_ = [
        ("actions", ctypes.c_void_p),
        *_fields(ctypes.c_int64, "cap clamps"),
        *_fields(ctypes.c_double, "horizon warmup l2_ratio inv_c1 inv_c2"),
        ("gaps", ctypes.c_void_p),
        *_fields(ctypes.c_int64, "chunk gap_i"),
        ("trip", ctypes.c_void_p),
        *_fields(ctypes.c_int64, "trip_len trip_i"),
        *_fields(ctypes.c_void_p, "log_t log_kind"),
        *_fields(ctypes.c_int64, "log_cap log_len"),
        *_fields(ctypes.c_double, "t t_area nf next_arrival t_srv local_arr local_c2 local_done "
                                  "sm1_arr sm1_remaining sm1_done cloud_sm2_done sojourn_sum area"),
        *_fields(ctypes.c_int64, "n0 i2 i1 n2 srv_ev pending_kind paused "
                                 "completed counted saturation"),
        *_fields(_Ring, "base cloud"),
    ]


@functools.cache
def _load_loop() -> ctypes.CDLL | None:
    """The compiled event loop, built on first use, or None when it cannot be built.

    The library is cached in the user cache directory under the SHA-256 of
    the source and the flags, written under a temporary name and then
    renamed, so a reader never loads half a file.  None means no C compiler,
    a build error or no writable directory; the Python loop runs instead.
    """
    try:
        source = _LOOP_SOURCE.read_bytes()
        digest = hashlib.sha256(source + "\0".join(_LOOP_CFLAGS).encode()).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "offloadq"
        path = cache / f"_loop-{digest[:16]}.so"
        if not path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(["cc", *_LOOP_CFLAGS, "-o", tmp, str(_LOOP_SOURCE)],
                               check=True, capture_output=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.CalledProcessError):
        return None  # Path.home raises RuntimeError when no home is known
    if ctypes.c_size_t.in_dll(lib, "rep_size").value != ctypes.sizeof(_Rep):
        raise RuntimeError(f"{path} lays out struct rep unlike simulator._Rep")
    lib.rep_run.argtypes = lib.rep_free.argtypes = [ctypes.POINTER(_Rep)]
    lib.rep_run.restype = ctypes.c_int
    lib.rep_free.restype = None
    return lib


def _compiled_replication(
    lib: ctypes.CDLL, policy: PolicyTable, p: ModelParams, cfg: SimConfig, rep: int,
    times: tuple | None, clamps: int,
) -> Generator[float, None, _RepResult]:
    """``_run_replication`` without event records, run by ``_loop.c``.

    The arrays the C loop reads stay referenced here while it runs.  Each
    return refills what it asks for: the gaps after a pause, the triplets
    when fewer than two pairs are left; and the time log, emptied into
    ``times`` at every return, so each kind's log is appended in the Python
    loop's order.
    """
    lam = p.lam
    rng_arrivals = substream(cfg.seed, rep, ARRIVALS)
    rng_triplets = substream(cfg.seed, rep, TRIPLETS)
    actions = np.ascontiguousarray(policy.actions, dtype=np.int8)
    gaps = np.empty(_CHUNK)
    trip = np.empty(_TRIP_CHUNK + 2)  # a chunk after the one pair left over, if any
    log_t = np.empty(_LOG_SIZE)
    log_kind = np.empty(_LOG_SIZE, dtype=np.int8)
    r = _Rep(
        actions=actions.ctypes.data, cap=policy.n_max, clamps=clamps,
        horizon=cfg.horizon, warmup=cfg.warmup, l2_ratio=p.mu_c1 / p.mu_l2,
        inv_c1=1.0 / p.mu_c1, inv_c2=1.0 / p.mu_c2,
        gaps=gaps.ctypes.data, chunk=_CHUNK, trip=trip.ctypes.data,
        log_t=None if times is None else log_t.ctypes.data, log_kind=log_kind.ctypes.data,
        log_cap=_LOG_SIZE, t_area=cfg.warmup, next_arrival=INF, t_srv=INF,
        local_done=INF, sm1_done=INF, cloud_sm2_done=INF, srv_ev=LOCAL_DONE, pending_kind=-1,
    )
    if lam > 0.0:
        np.divide(rng_arrivals.standard_exponential(out=gaps), lam, out=gaps)
        r.next_arrival = gaps[0]
        r.gap_i = 1
    try:
        while True:
            code = lib.rep_run(r)
            if r.log_len:
                t, kinds = log_t[:r.log_len], log_kind[:r.log_len]
                for kind, log in enumerate(times):
                    log.extend(t[kinds == kind].tolist())
                r.log_len = 0
            if code == _REP_DONE:
                break
            if code == _REP_PAUSE:
                yield r.t
                np.divide(rng_arrivals.standard_exponential(out=gaps), lam, out=gaps)
            elif code == _REP_TRIP:
                left = r.trip_len - r.trip_i
                trip[:left] = trip[r.trip_i:r.trip_len]
                rng_triplets.standard_exponential(out=trip[left:left + _TRIP_CHUNK])
                r.trip_len, r.trip_i = left + _TRIP_CHUNK, 0
            elif code != _REP_LOG:
                raise RuntimeError("the compiled event loop stopped: a queue could not grow, "
                                   "or the table dispatched more jobs than were queued")
    finally:
        lib.rep_free(r)  # the queues; the counters stay
    return (yield from _close(cfg, r.area, r.t_area, int(r.nf), r.completed, r.counted,
                              r.sojourn_sum, r.saturation))


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
    log, unless ``collect_events`` logs the full records instead.  Logged
    or not, the generator yields at every refill of the arrival gaps before
    the horizon the instant of the arrival just drawn, and ``INF`` after
    the last event: every instant logged by then lies at or before the
    yielded value, and any instant logged later lies at or after it.  Its
    return value is the replication's result.
    """
    if not isinstance(policy, PolicyTable):
        raise TypeError(f"a policy must be a PolicyTable, got {type(policy).__name__}")
    # a read beyond the cap adds this many saturation events
    clamps = 0 if policy.exact_beyond_cap else 1
    lib = None if collect_events else _load_loop()
    if lib is not None:
        return (yield from _compiled_replication(lib, policy, p, cfg, rep, times, clamps))
    rows, cap = policy.rows, policy.n_max

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
    arrival, ev_local, ev_sm2, ev_sm1 = ARRIVAL, LOCAL_DONE, CLOUD_SM2_DONE, CLOUD_SM1_DONE

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
    # earliest service timer and its event kind, ties going to local, then
    # split cloud, then full-offload cloud; arrivals change no timer
    t_srv = inf
    srv_ev = ev_local

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
                        srv_ev = ev_sm1
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
                srv_ev = ev_local

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
            pending_kind = arrival
            base_append(t)
            n0 += 1
            nf += 1.0
            if gap_i == chunk:
                # this arrival is logged after the pause: a window ends
                # before the instant that opens the next one
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
        if srv_ev == ev_local:
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
            srv_ev = ev_sm2
        elif srv_ev == ev_sm2:
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
                srv_ev = ev_sm2
            else:
                cloud_sm2_done = inf
                if i1 == 1:
                    sm1_done = t + sm1_remaining
                t_srv = sm1_done
                srv_ev = ev_sm1
            if local_done <= t_srv:
                t_srv = local_done
                srv_ev = ev_local
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
            srv_ev = ev_local
    return (yield from _close(cfg, area, t_area, int(nf), completed, counted, sojourn_sum,
                              saturation, events if collect_events else None))


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


def _aggregate(reps: list[_RepResult], cfg: SimConfig) -> DelayReport:
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
        event_logs=None if reps[0].events is None else [r.events for r in reps],
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
    return _aggregate(reps, cfg)


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


# +1 per job that leaves A and -1 per job that leaves B, over A's logs,
# then B's but its first, the arrivals; a job leaves where a kind's shift
# lowers i2 + i1 + n0 + n2
_LEAVES = [int(sum(shift) < 0) for _, _, shift in EVENTS]
_STEP = _LEAVES + [-x for x in _LEAVES[1:]]


def _count_window(times_a: tuple, times_b: tuple, until: float, lead: int) -> tuple[int, int, int]:
    """Count the instants before ``until`` and drop their entries from the logs.

    Takes each system's per-kind event-time logs, sorted lists; the
    instants are those ``CoupledReport`` describes.  Returns the instants
    where B holds at most as many jobs as A, the instants, and the lead,
    A's completions minus B's, carried into the next window.  The arrivals
    are shared, so B holds at most as many jobs exactly when it has
    completed at least as many: the logs are merged, and the lead, starting
    from ``lead``, is read after the last event at each instant.  B's
    arrival log is not read.  Entries at or after ``until`` stay in the
    logs for the next window, since more events may follow at that instant.
    """
    runs = (*times_a, *times_b[1:])  # B's arrivals are A's
    cuts = [bisect_left(r, until) for r in runs]
    t = np.fromiter(chain.from_iterable(r[:k] for r, k in zip(runs, cuts)), float, sum(cuts))
    for r, k in zip(runs, cuts):
        del r[:k]
    order = np.argsort(t, kind="stable")
    t = t[order]
    leads = lead + np.cumsum(np.repeat(_STEP, cuts)[order])
    last = np.diff(t, append=np.inf) != 0  # the last event at each instant
    return (int(np.count_nonzero(leads[last] <= 0)), int(np.count_nonzero(last)),
            lead + sum(s * k for s, k in zip(_STEP, cuts)))


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
    policies alone.  Every replication pauses at each refill of its arrival
    gaps before the horizon and after its last event, and both systems see
    the same arrivals, so they pause at the same instants: each replication
    advances A and B one window of ``_CHUNK`` arrivals at a time and counts
    the dominance instants of that window before the next is logged.  The
    logs never hold more than one window, and B's arrivals, which are A's,
    are not kept at all.
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
    report_a = _aggregate(reps_a, cfg)
    report_b = _aggregate(reps_b, cfg)
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
