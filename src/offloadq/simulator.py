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
to its cap.  Every action is admissible, checked where the table is
built, and so is every clamped read.  The replication counts each read
beyond the cap as a saturation event in its own counter, unless the
table is ``exact_beyond_cap``, as the two baselines are at cap 2: no run
changes its policy, so two runs may share one.

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

One driver, ``_run_replication``, runs either event loop on one record:
the compiled ``rep_run`` of ``_loop.c``, built with the system C compiler
on the first replication of a process and cached in the user cache
directory, or ``_python_run``, its twin, which returns at the same points
with the same state.  The Python twin is the reference the tests hold the
compiled loop to bit for bit, and the one that runs when no kernel can be
built; no option chooses between them.  Either loop writes one event log,
read both as event records (``collect_events``) and by the coupled
dominance count.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import subprocess
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Generator

import numpy as np
from scipy.special import stdtrit

from .kernel import EVENT_KINDS, EVENTS, PolicyTable, build_state_space, state_grid, state_ids
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
# Each kind's index: its code in the event log and in the event loop
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


_LOOP_SOURCE = Path(__file__).with_name("_loop.c")
# no fast-math: a fused multiply-add would move the loop's last bits
_LOOP_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_LOG_SIZE = 2 * _CHUNK  # event-log entries either loop holds between returns
# the event log's columns, empty: times, kinds and states (n0, i2, i1, n2)
_NO_EVENTS = (np.empty(0), np.empty(0, dtype=np.int8), np.empty((0, 4), dtype=np.int64))
# rep_run's return codes, as _loop.c numbers them
_REP_DONE, _REP_PAUSE, _REP_TRIP, _REP_LOG = range(4)
# the fields of struct rep that rep_run moves, each a local of _python_run's of the same name
_CARRIED = ("gap_i trip_i log_len t t_area nf next_arrival t_srv local_arr local_c2 local_done "
            "sm1_arr sm1_remaining sm1_done cloud_sm2_done sojourn_sum area "
            "n0 i2 i1 n2 srv_ev pending_kind paused completed counted saturation").split()


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
        *_fields(ctypes.c_void_p, "log_t log_kind log_state"),
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


def _python_run(r: _Rep, rows: list, bufs: tuple, queues: tuple) -> int:
    """``rep_run`` of ``_loop.c`` in Python, on the same record: the reference loop.

    It reads the record's state into locals, runs to the return ``rep_run``
    makes, with its code, and writes the state back; ``rows`` is the table
    as nested lists, ``[i2][i1][n0][n2]``, ``bufs`` the arrays the record
    points at, (gaps, trip, log_t, log_kind, log_state), the last flat, and
    ``queues`` the base and cloud queues as deques, kept by the caller
    between returns.
    """
    # read and written in place
    gaps, trip, log_t, log_kind, log_state = (memoryview(b) for b in bufs)
    base, cloud_q = queues
    (gap_i, trip_i, log_len, t, t_area, nf, next_arrival, t_srv, local_arr, local_c2,
     local_done, sm1_arr, sm1_remaining, sm1_done, cloud_sm2_done, sojourn_sum, area,
     n0, i2, i1, n2, srv_ev, pending_kind, paused, completed, counted,
     saturation) = [getattr(r, name) for name in _CARRIED]
    cap, clamps, horizon, warmup, chunk = r.cap, r.clamps, r.horizon, r.warmup, r.chunk
    l2_ratio, inv_c1, inv_c2 = r.l2_ratio, r.inv_c1, r.inv_c2
    trip_low = r.trip_len - 4  # past it, fewer than two pairs are left
    logging = bool(r.log_t)
    log_full = r.log_cap if logging else -1
    # module constants as locals: the loop reads them at every event
    idle, sm1, sm2, inf = IDLE, SM1, SM2, INF
    arrival, ev_local, ev_sm2, ev_sm1 = ARRIVAL, LOCAL_DONE, CLOUD_SM2_DONE, CLOUD_SM1_DONE
    base_append, base_popleft = base.append, base.popleft
    cloud_append, cloud_popleft = cloud_q.append, cloud_q.popleft

    if paused:  # the refill after the arrival that paused
        paused = 0
        next_arrival = t + gaps[0]
        gap_i = 1
    while True:
        if n0 and trip_i > trip_low:
            code = _REP_TRIP
            break
        if log_len == log_full:
            code = _REP_LOG
            break
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
            local_arr = base_popleft()
            local_done = t + l2_ratio * (trip[trip_i] * inv_c1)
            local_c2 = trip[trip_i + 1] * inv_c2
            trip_i += 2
            n0 -= 1
            i2 = 1
            if local_done <= t_srv:
                t_srv = local_done
                srv_ev = ev_local

        if logging and pending_kind >= 0:
            log_t[log_len] = t
            log_kind[log_len] = pending_kind
            j = 4 * log_len
            log_state[j], log_state[j + 1], log_state[j + 2], log_state[j + 3] = n0, i2, i1, n2
            log_len += 1

        # ---- next event, an arrival winning ties; the time-average
        # area over [warmup, horizon] is added up to each event ----
        if next_arrival <= t_srv:
            if next_arrival > horizon:
                code = _REP_DONE
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
                paused = 1
                code = _REP_PAUSE
                break
            next_arrival = t + gaps[gap_i]
            gap_i += 1
            continue
        if t_srv > horizon:
            code = _REP_DONE
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
    state = locals()
    for name in _CARRIED:
        setattr(r, name, state[name])
    return code


def _run_replication(
    policy: PolicyTable,
    p: ModelParams,
    cfg: SimConfig,
    rep: int,
    log: list | None = None,
) -> Generator[float, None, _RepResult]:
    """Replication ``rep`` on the substreams (cfg.seed, rep, ARRIVALS/TRIPLETS).

    Unless None, ``log`` takes the event log: at every return of the loop
    that logged anything, one entry of three arrays, the times, the kinds'
    indices in ``EVENT_KINDS`` and the states (n0, i2, i1, n2) after each
    instant's assignments, one row per event.  Logged or not, the generator
    yields at every refill of the arrival gaps before the horizon the
    instant of the arrival just drawn, and ``INF`` after the last event:
    every instant logged by then lies at or before the yielded value, and
    any instant logged later lies at or after it.  Its return value is the
    replication's result.

    One record, a ``_Rep``, carries the run; the compiled ``rep_run`` or,
    with no kernel, ``_python_run`` advances it, and this driver refills
    what each return asks for: the gaps after a pause, the triplets when
    fewer than two pairs are left, and the event log, emptied into ``log``
    at every return.  The arrays the loop reads stay referenced here while
    it runs.
    """
    if not isinstance(policy, PolicyTable):
        raise TypeError(f"a policy must be a PolicyTable, got {type(policy).__name__}")
    rng_arrivals, rng_triplets = (substream(cfg.seed, rep, use) for use in (ARRIVALS, TRIPLETS))
    gaps = np.empty(_CHUNK)
    trip = np.empty(_TRIP_CHUNK + 2)  # a chunk after the one pair left over, if any
    log_t, log_kind, log_state = (np.empty((_LOG_SIZE, *col.shape[1:]), col.dtype)
                                  for col in _NO_EVENTS)
    r = _Rep(
        actions=policy.actions.ctypes.data, cap=policy.n_max,
        # a read beyond the cap adds this many saturation events
        clamps=0 if policy.exact_beyond_cap else 1,
        horizon=cfg.horizon, warmup=cfg.warmup, l2_ratio=p.mu_c1 / p.mu_l2,
        inv_c1=1.0 / p.mu_c1, inv_c2=1.0 / p.mu_c2,
        gaps=gaps.ctypes.data, chunk=_CHUNK, trip=trip.ctypes.data,
        log_t=None if log is None else log_t.ctypes.data, log_kind=log_kind.ctypes.data,
        log_state=log_state.ctypes.data, log_cap=_LOG_SIZE, t_area=cfg.warmup,
        next_arrival=INF, t_srv=INF, local_done=INF, sm1_done=INF, cloud_sm2_done=INF,
        srv_ev=LOCAL_DONE, pending_kind=-1,
    )
    lib = _load_loop()
    # all the two loops differ in: the Python twin's table rows and queues live here
    run = lib.rep_run if lib is not None else functools.partial(
        _python_run, rows=policy.actions.reshape(state_grid(policy.n_max)).tolist(),
        bufs=(gaps, trip, log_t, log_kind, log_state.reshape(-1)), queues=(deque(), deque()))
    if p.lam > 0.0:
        np.divide(rng_arrivals.standard_exponential(out=gaps), p.lam, out=gaps)
        r.next_arrival = gaps[0]
        r.gap_i = 1
    try:
        while True:
            code = run(r)
            if r.log_len:
                n, r.log_len = r.log_len, 0
                log.append((log_t[:n].copy(), log_kind[:n].copy(), log_state[:n].copy()))
            if code == _REP_DONE:
                break
            if code == _REP_PAUSE:
                yield r.t
                np.divide(rng_arrivals.standard_exponential(out=gaps), p.lam, out=gaps)
            elif code == _REP_TRIP:
                left = r.trip_len - r.trip_i
                trip[:left] = trip[r.trip_i:r.trip_len]
                rng_triplets.standard_exponential(out=trip[left:left + _TRIP_CHUNK])
                r.trip_len, r.trip_i = left + _TRIP_CHUNK, 0
            elif code != _REP_LOG:
                raise RuntimeError("the compiled event loop stopped: a queue could not grow, "
                                   "or the table dispatched more jobs than were queued")
    finally:
        if lib is not None:
            lib.rep_free(r)  # the queues; the counters stay
    yield INF  # the last pause, after the last event
    # the jobs still in the system add their area from t_area to the horizon
    span, in_system = cfg.horizon - cfg.warmup, int(r.nf)
    return _RepResult(
        jobs_arrived=r.completed + in_system,
        jobs_completed=r.completed,
        jobs_in_system=in_system,
        mean_sojourn=r.sojourn_sum / r.counted if r.counted else 0.0,
        time_avg_jobs=(r.area + in_system * (cfg.horizon - r.t_area)) / span,
        lambda_eff=r.counted / span,
        saturation_events=r.saturation,
    )


def _records(log: list) -> list:
    """An event log as records (time, kind, n0, i2, i1, n2), kind named."""
    t, kinds, states = (np.concatenate(column) for column in zip(_NO_EVENTS, *log))
    return list(zip(t.tolist(), [EVENT_KINDS[k] for k in kinds.tolist()], *states.T.tolist()))


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
    with ``collect_events``, ``event_logs`` holds each replication's event
    records (time, kind, n0, i2, i1, n2), written by either loop.
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


def _aggregate(reps: list, cfg: SimConfig, event_logs: list | None = None) -> DelayReport:
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
        event_logs=event_logs,
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
    logs = [[] if collect_events else None for _ in range(cfg.replications)]
    reps = [_finish(_run_replication(policy, p, cfg, r, log)) for r, log in enumerate(logs)]
    return _aggregate(reps, cfg, [_records(log) for log in logs] if collect_events else None)


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
    state compared is the one after all events at that instant.  The count
    reads the two systems' event logs, the ones ``collect_events`` reports.
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


# 1 for each kind whose shift lowers i2 + i1 + n0 + n2: a job leaves
_LEAVES = np.array([int(sum(shift) < 0) for _, _, shift in EVENTS])


def _count_window(log_a: list, log_b: list, until: float, lead: int) -> tuple[int, int, int]:
    """Count the instants before ``until`` and drop their entries from the logs.

    Takes each system's event log as ``_run_replication`` fills it; the
    instants are those ``CoupledReport`` describes.  Returns the instants
    where B holds at most as many jobs as A, the instants, and the lead,
    A's completions minus B's, carried into the next window.  The arrivals
    are shared, so B holds at most as many jobs exactly when it has
    completed at least as many: the lead, from ``lead``, steps by +1 per
    job leaving A and -1 per job leaving B over both logs in time order,
    and is read after the last event at each instant.  Entries at or after
    ``until`` stay for the next window: more may follow at that instant.
    """
    times, steps = [_NO_EVENTS[0]], [_LEAVES[:0]]  # a window with no entries joins too
    for log, leaves in ((log_a, _LEAVES), (log_b, -_LEAVES)):
        rest = []
        for t, kinds, states in log:  # entries in time order
            k = int(np.searchsorted(t, until))
            times.append(t[:k])
            steps.append(leaves[kinds[:k]])
            if k < t.size:
                rest.append((t[k:], kinds[k:], states[k:]))
        log[:] = rest
    t, step = np.concatenate(times), np.concatenate(steps)
    order = np.argsort(t, kind="stable")
    t = t[order]
    leads = np.cumsum(step[order])
    last = np.diff(t, append=np.inf) != 0  # the last event at each instant
    return (int(np.count_nonzero(leads[last] <= -lead)), int(np.count_nonzero(last)),
            lead + int(leads[-1]) if leads.size else lead)


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
    the dominance instants of that window before the next is logged, so
    the two event logs never hold much more than one window.
    """
    reps_a, reps_b, counts = [], [], []  # counts: (hits, instants) per replication
    for r in range(cfg.replications):
        log_a, log_b = [], []
        run_a = _run_replication(policy_a, p, cfg, r, log_a)
        run_b = _run_replication(policy_b, p, cfg, r, log_b)
        hits = instants = lead = 0
        until = 0.0
        while until < INF:
            until = next(run_a)
            next(run_b)
            h, n, lead = _count_window(log_a, log_b, until, lead)
            hits += h
            instants += n
        counts.append((hits, instants))
        reps_a.append(_finish(run_a))
        reps_b.append(_finish(run_b))
    report_a, report_b = _aggregate(reps_a, cfg), _aggregate(reps_b, cfg)
    diff = report_b.rep_mean_sojourn - report_a.rep_mean_sojourn
    dom_hits, dom_total = (sum(column) for column in zip(*counts))
    return CoupledReport(
        report_a=report_a,
        report_b=report_b,
        diff_mean=float(diff.mean()),
        diff_ci_halfwidth=_t_halfwidth(diff),
        rep_diff=diff,
        dominance_fraction=dom_hits / dom_total if dom_total else float("nan"),
        rep_dominance=np.array([h / n if n else float("nan") for h, n in counts]),
    )
