"""offloadq benchmark: end-to-end and per-layer numbers for three workloads.

Run from the repository root:

    python3 bench/run.py --workload ref-solve --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as a user would (tracing off) and reports
the end-to-end metrics, scaled to reference-host speed by calibration
samples taken before, during and after every timed step (see calib.py);
``--trace 1`` runs the same inputs once more with a span around every
call into the package and reports per-layer metrics, unscaled.  ``--smoke`` shrinks every problem so all three workloads and
their checks finish in seconds.  Readable lines go to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record (stamp, every pass, spans) is written
under ``--out-dir``.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy loads; set-up probes inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ref-solve", "sim-baselines", "sweep")
SETUP_PROBES = 3
CPUS_USABLE = frozenset(os.sched_getaffinity(0))
PROBE_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# printed and recorded, but not in the final line: not every workload has them
SUMMARY = {
    "passes": "count",
    "attempted": "count",
    "failed": "count",
    "fail_frac": "ratio",
    "solve_s": "s",
    "sim_jobs_per_s": "jobs/s",
    "couple_s": "s",
    "max_error_bound": "cost",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "slowdown": "ratio",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.overhead_s.solve": "s",
    "cli.overhead_s.analyze": "s",
    "cli.overhead_s.sweep": "s",
    "kernel.build_s": "s",
    "kernel.calls": "count",
    "kernel.states": "count",
    "kernel.nnz": "count",
    "kernel.csr_bytes": "B",
    "kernel.self_s": "s",
    "solver.solve_s": "s",
    "solver.iterations": "count",
    "solver.iter_ms": "ms",
    "solver.flops_per_iter": "flop",
    "solver.bytes_per_iter": "B",
    "solver.residual": "cost",
    "solver.error_bound": "cost",
    "solver.checkpoint_save_s": "s",
    "solver.checkpoint_load_s": "s",
    "solver.checkpoint_bytes": "B",
    "solver.self_s": "s",
    "structure.checks_s": "s",
    "structure.checked": "count",
    "structure.indeterminate": "count",
    "structure.self_s": "s",
    "simulator.tabulate_s": "s",
    "simulator.jobs_per_s.offload_only": "jobs/s",
    "simulator.jobs_per_s.non_idling": "jobs/s",
    "simulator.jobs_per_s.table": "jobs/s",
    "simulator.jobs": "count",
    "simulator.couple_s": "s",
    "simulator.couple_overhead": "ratio",
    "simulator.saturation_events": "count",
    "simulator.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

COUNT_UNITS = ("count", "B", "flop", "cost")
CLI_COMMANDS = ("solve", "analyze", "sweep")
SIM_KINDS = ("offload_only", "non_idling", "table")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="start another pass only if it fits in this budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problems; without --workload, runs all three")
    ap.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out",
                    help="where the full JSON record of the run is written")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not args.smoke:
        ap.error("--workload is required unless --smoke is given")
    return args


def _physics(smoke: bool):
    import workloads

    return workloads.SMOKE if smoke else workloads.REFERENCE


def _pass_rng(seed: int, k: int):
    import numpy as np

    return np.random.default_rng([seed, k])


# ------------------------------------------------------------------ set-up


def _setup_probe(args) -> int:
    """Fresh-process set-up: import, inputs generated and parsed, tables built."""
    t0 = time.perf_counter()
    import offloadq.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads
    from spans import NoTracer

    wl = workloads.WORKLOADS[args.workload](_physics(args.smoke))
    workdir = ROOT / ".bench_run" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl.prepare(_pass_rng(args.seed, 0), workdir, NoTracer())
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready": ready, "import_s": import_s, "tabulate_s": wl.tabulate_s}))
    return 0


class SetupProbes:
    """Set-up timed in fresh processes, from spawn to inputs ready.

    Host speed drifts over seconds, so the probes are spread over the
    run: probe i is due once ``i / count`` of ``--seconds`` has passed,
    and runs at the next boundary between operations, outside any timing.
    """

    def __init__(self, args, workload: str, count: int, cal):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(args.seed)]
        if args.smoke:
            self.cmd.append("--smoke")
        self.count = count
        self.cal = cal
        self.seconds = args.seconds
        self.start = time.perf_counter()
        self.results: list = []

    def run_one(self) -> None:
        # perf_counter and monotonic both read CLOCK_MONOTONIC, which every
        # process on the host shares
        # the probe runs on this process's core, so no samples during it
        with self.cal.step(during=False) as step:
            t0 = time.monotonic()
            proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["raw_setup_s"] = rec["ready"] - t0
        rec["slowdown"] = step.slowdown
        rec["setup_s"] = rec["raw_setup_s"] / rec["slowdown"]
        self.results.append(rec)

    def maybe_run(self) -> None:
        due = len(self.results) * self.seconds / self.count
        if len(self.results) < self.count and time.perf_counter() - self.start >= due:
            self.run_one()

    def finish(self) -> list:
        while len(self.results) < self.count:
            self.run_one()
        return self.results


# ------------------------------------------------------------------ passes


def _run_pass(wl, rng, workdir: Path, tracer, cal, between):
    """One pass; ``between`` runs after each operation, outside its timing.

    ``cal`` times each operation and records its mean slowdown next to
    its time (see calib.py).
    """
    from workloads import PassRecord

    workdir.mkdir(parents=True)
    wl.prepare(rng, workdir, tracer)
    rec = PassRecord()
    for op in wl.ops(rec, tracer):
        rec.attempted += 1
        try:
            with cal.step() as step:
                out = op.run()
        except Exception:
            rec.op_times.append((op.command, step.seconds))
            rec.slowdowns.append(step.slowdown)
            rec.failures.append(f"{op.command} {op.label}: {traceback.format_exc()}")
            between()
            continue
        rec.op_times.append((op.command, step.seconds))
        rec.slowdowns.append(step.slowdown)
        try:
            problems = op.check(out)
        except Exception:
            problems = [f"check raised: {traceback.format_exc()}"]
        if problems:
            rec.failures.append(f"{op.command} {op.label}: " + "; ".join(problems))
        between()
    shutil.rmtree(workdir, ignore_errors=True)
    return rec


def _run_passes(wl, args, workroot: Path, cal, between) -> list:
    """Closed loop of passes; another starts only if one more fits in --seconds."""
    from calib import NoCalibrator
    from spans import NoTracer, Tracer

    passes = []
    trace_id = f"{wl.name}/seed{args.seed}/pid{os.getpid()}"
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        user = _run_pass(wl, _pass_rng(args.seed, k), workroot / f"p{k}-user", NoTracer(),
                         cal, between)
        traced = None
        if args.trace:
            tracer = Tracer(trace_id)
            rec = _run_pass(wl, _pass_rng(args.seed, k), workroot / f"p{k}-traced", tracer,
                            NoCalibrator(), between)
            traced = (tracer, rec)
        passes.append((user, traced))
        k += 1
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            return passes


# ------------------------------------------------------------------ metrics


def _wall(rec) -> float:
    return sum(t for _, t in rec.op_times)


def _scaled_wall(rec) -> float:
    """The pass's timed part in reference-host seconds."""
    return sum(t / f for (_, t), f in zip(rec.op_times, rec.slowdowns))


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _user_summary(passes) -> dict:
    """Workload-level numbers from the untraced passes."""
    users = [u for u, _ in passes]
    solve_times = [t for u in users for cmd, t in u.op_times if cmd == "solve"]
    sim_time = sum(t for u in users for cmd, t in u.op_times if cmd == "simulate")
    sim_jobs = sum(s["jobs"] for u in users for s in u.sims)
    couple = [t for u in users for cmd, t in u.op_times if cmd == "couple"]
    bounds = [s["error_bound"] for u in users for s in u.solves]
    attempted = sum(u.attempted for u, _ in passes) + sum(
        t[1].attempted for _, t in passes if t)
    failed = sum(len(u.failures) for u, _ in passes) + sum(
        len(t[1].failures) for _, t in passes if t)
    out = {
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
    }
    if solve_times:
        out["solve_s"] = _median(solve_times)
    if sim_time:
        out["sim_jobs_per_s"] = sim_jobs / sim_time
    if couple:
        out["couple_s"] = _median(couple)
    if bounds:
        out["max_error_bound"] = max(bounds)
    return out


def _layer_metrics(user, tracer, rec, probes) -> dict:
    """Per-layer numbers of one traced pass, against its untraced twin."""
    spans = tracer.spans

    def dur(name, **attrs):
        return sum((sp.duration for sp in spans if sp.name == name
                    and all(sp.attrs.get(k) == v for k, v in attrs.items())), 0.0)

    self_s = tracer.self_times()
    solves = rec.solves
    iterations = sum(s["iterations"] for s in solves)
    kernel = max(rec.kernels, key=lambda k: k["states"], default={})
    m = {
        "cli.import_s": _median(p["import_s"] for p in probes),
        "kernel.build_s": dur("build_kernel"),
        "kernel.calls": len(tracer.named("build_kernel")),
        "kernel.states": max(kernel.get("states", 0), rec.states),
        "kernel.nnz": kernel.get("nnz", 0),
        "kernel.csr_bytes": kernel.get("csr_bytes", 0),
        "kernel.self_s": self_s.get("kernel", 0.0),
        "solver.solve_s": _median(sp.duration for sp in tracer.named("value_iterate")),
        "solver.iterations": iterations,
        "solver.iter_ms": 1e3 * dur("value_iterate") / iterations if iterations else 0.0,
        "solver.flops_per_iter": kernel.get("flops_per_iter", 0),
        "solver.bytes_per_iter": kernel.get("bytes_per_iter", 0),
        "solver.residual": max((s["residual"] for s in solves), default=0.0),
        "solver.error_bound": max((s["error_bound"] for s in solves), default=0.0),
        "solver.checkpoint_save_s": dur("save_checkpoint"),
        "solver.checkpoint_load_s": dur("load_checkpoint"),
        "solver.checkpoint_bytes": rec.checkpoint_bytes,
        "solver.self_s": self_s.get("solver", 0.0),
        "structure.checks_s": dur("run_structure_checks"),
        "structure.checked": rec.structure_checked,
        "structure.indeterminate": rec.structure_indeterminate,
        "structure.self_s": self_s.get("structure", 0.0),
        "simulator.tabulate_s": _median(p["tabulate_s"] for p in probes),
        "simulator.jobs": sum(s["jobs"] for s in rec.sims) + rec.couple_jobs,
        "simulator.couple_s": dur("coupled_compare"),
        "simulator.saturation_events": sum(s["saturation"] for s in rec.sims),
        "simulator.self_s": self_s.get("simulator", 0.0),
    }
    for kind in SIM_KINDS:
        t = dur("simulate", policy=kind)
        jobs = sum(s["jobs"] for s in rec.sims if s["kind"] == kind)
        m[f"simulator.jobs_per_s.{kind}"] = jobs / t if t else 0.0
    plain = dur("simulate", policy="offload_only") + dur("simulate", policy="non_idling")
    m["simulator.couple_overhead"] = m["simulator.couple_s"] / plain if plain else 0.0
    for cmd in CLI_COMMANDS:
        cli_time = sum(t for c, t in user.op_times if c == cmd)
        cmd_ids = {sp.span_id for sp in spans if sp.name == cmd and sp.layer == "cli"}
        layers = sum(sp.duration for sp in spans if sp.parent in cmd_ids)
        m[f"cli.overhead_s.{cmd}"] = cli_time - layers if cmd_ids else 0.0
    m["trace.wall_s"] = _wall(rec)
    m["trace.overhead_s"] = _wall(rec) - _wall(user)
    return m


def _stamp(args, workload: str) -> dict:
    import numpy
    import scipy

    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS_USABLE),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _git_rev() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _run_workload(args, name: str) -> dict:
    import workloads
    from calib import Calibrator

    wl = workloads.WORKLOADS[name](_physics(args.smoke))
    cal = Calibrator()
    schedule = SetupProbes(args, name, 1 if args.smoke else SETUP_PROBES, cal)
    schedule.run_one()
    workroot = ROOT / ".bench_run" / f"{name}-{os.getpid()}"
    try:
        passes = _run_passes(wl, args, workroot, cal, schedule.maybe_run)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    probes = schedule.finish()

    summary = _user_summary(passes)
    summary["raw_setup_s"] = _median(p["raw_setup_s"] for p in probes)
    summary["raw_wall_s"] = _median(_wall(u) for u, _ in passes)
    # time-weighted over the run's timed operations
    summary["slowdown"] = (sum(_wall(u) for u, _ in passes)
                           / sum(_scaled_wall(u) for u, _ in passes))
    e2e = {
        "setup_s": _median(p["setup_s"] for p in probes),
        "wall_s": _median(_scaled_wall(u) for u, _ in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer = {}
    if args.trace:
        per_pass = [_layer_metrics(u, t[0], t[1], probes) for u, t in passes]
        # counts come from pass 0, whose inputs the seed alone fixes, so they
        # repeat exactly between runs; timings are medians over the passes
        layer = {
            k: per_pass[0][k] if unit in COUNT_UNITS else _median(p[k] for p in per_pass)
            for k, unit in PER_LAYER.items()
        }
    metrics = layer if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END

    units_all = {**END_TO_END, **SUMMARY, **PER_LAYER}
    for key, value in {**e2e, **summary, **layer}.items():
        print(f"{name} {key}: {_fmt(value)} {units_all[key]}")
    for u, t in passes:
        for failure in u.failures + (t[1].failures if t else []):
            print(f"{name} FAILED {failure}", file=sys.stderr)

    stamp = _stamp(args, name)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "stamp": stamp,
        "result": result,
        "end_to_end": e2e,
        "summary": summary,
        "per_layer": layer,
        "probes": probes,
        "passes": [
            {
                "user": {"op_times": u.op_times, "slowdowns": u.slowdowns,
                         "solves": u.solves, "failures": u.failures},
                "traced": None if t is None else {
                    "op_times": t[1].op_times,
                    "solves": t[1].solves,
                    "failures": t[1].failures,
                    "self_s": t[0].self_times(),
                    "spans": [sp.to_json_dict() for sp in t[0].spans],
                },
            }
            for u, t in passes
        ],
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    tag = "smoke-" if args.smoke else ""
    out = args.out_dir / f"{tag}{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "offloadq" / "__init__.py").is_file():
        print(f"error: no offloadq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args)
    # one core for the run and its set-up probes, so that the calibration
    # samples time the core the measured work runs on
    os.sched_setaffinity(0, {max(CPUS_USABLE)})

    import offloadq

    if Path(offloadq.__file__).resolve().parent != SRC / "offloadq":
        print(f"error: offloadq imported from {offloadq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = {name: _run_workload(args, name) for name in names}
    try:
        (ROOT / ".bench_run").rmdir()  # only when no other run is using it
    except OSError:
        pass
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
