"""The three benchmark workloads: inputs from a seed, operations, output checks.

Every workload is a closed loop: one operation after another in one
process, no threads.  A pass exists in two forms.  The user form runs
what a user runs (``offloadq`` CLI commands in-process, or the Python
API where the workload is defined on it) with tracing off and gives the
end-to-end numbers.  The traced form calls the package's public
functions in the order the CLI calls them, each inside a span, and
gives the per-layer numbers.  Both forms check every output.

The workload seed only generates inputs (config order, simulation
seeds); the package never sees it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

from offloadq import (
    DiscountSpec,
    SimConfig,
    TablePolicy,
    baseline,
    build_kernel,
    build_state_space,
    coupled_compare,
    derive_rates,
    evaluate_policy,
    lambda_from_utilization,
    load_checkpoint,
    mm1_reference,
    run_structure_checks,
    save_checkpoint,
    simulate,
    tabulate_policy,
    uniformization_rate,
    value_iterate,
)
from offloadq.cli import main as cli_main


@dataclass(frozen=True)
class Physics:
    """Problem sizes shared by the workloads."""

    mu0: float = 1.0
    n_max: int = 60
    alpha: float = 0.999
    tol: float = 1e-9
    margin: int = 5
    sim_horizon: float = 5e3
    sim_replications: int = 10
    sweep_horizon: float = 1e4
    sweep_replications: int = 10


REFERENCE = Physics()
# seconds per workload; for the benchmark's own tests, not for timing
SMOKE = Physics(
    n_max=15,
    alpha=0.99,
    tol=1e-6,
    margin=3,
    sim_horizon=2e3,
    sim_replications=4,
    sweep_horizon=2e3,
    sweep_replications=4,
)

# reference configurations a-d: (rho, f, K)
REF_CONFIGS = {
    "a": (0.4, 0.4, 8),
    "b": (0.8, 0.4, 8),
    "c": (0.4, 0.8, 8),
    "d": (0.4, 0.4, 15),
}
SIM_CONFIG = "b"
SWEEP_K = 8
SWEEP_F = 0.4
SWEEP_RHOS = (0.6, 0.7, 0.8)
SWEEP_POLICIES = ("optimal", "offload_only", "non_idling")

# solved values may sit this many error bounds from the exact evaluation
VALUE_BOUNDS = 3.0
# Little's law slack in combined standard errors, as criterion 9 sets it
LITTLE_SE = 4.0
# confidence of the M/M/1 interval; criterion 6 uses the 95% interval,
# which misses for one seed in twenty; every seed here must pass
MM1_CONFIDENCE = 0.9999


@dataclass
class Op:
    """One timed call; ``check`` returns a list of problems with its output."""

    command: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class PassRecord:
    """What one pass did, filled in by its operations and checks."""

    op_times: list = field(default_factory=list)  # (command, seconds)
    slowdowns: list = field(default_factory=list)  # per op, from calibration
    attempted: int = 0
    failures: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    states: int = 0
    solves: list = field(default_factory=list)
    checkpoint_bytes: int = 0
    structure_checked: int = 0
    structure_indeterminate: int = 0
    sims: list = field(default_factory=list)  # {"kind", "jobs", "saturation"}
    couple_jobs: int = 0


def params_of(rho: float, mu0: float, K: float, f: float):
    return derive_rates(lambda_from_utilization(rho, mu0, K), mu0, K, f)


def run_cli(argv: list) -> tuple:
    """One CLI command in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def kernel_sizes(kernel) -> dict:
    """Array sizes of a kernel, and one Bellman sweep's cost computed from them.

    Per sweep: the sparse product reads the CSR arrays (2 flops per
    nonzero); scaling and adding the cost table is 2 flops per
    (action, state) pair; the minimum over actions 3 per state; the
    residual 3 per state.  Bytes count each array once: CSR, cost table,
    and the value vector read and written.  Temporaries and cache misses
    are not counted.
    """
    probs = kernel.probs
    n = kernel.space.size
    csr = probs.data.nbytes + probs.indices.nbytes + probs.indptr.nbytes
    return {
        "states": n,
        "nnz": int(probs.nnz),
        "csr_bytes": csr,
        "flops_per_iter": 2 * probs.nnz + 2 * kernel.costs.size + 6 * n,
        "bytes_per_iter": csr + kernel.costs.nbytes + 2 * 8 * n,
    }


def solve_entry(config: str, table) -> dict:
    return {
        "config": config,
        "iterations": table.iterations,
        "residual": table.residual,
        "error_bound": table.error_bound,
    }


def check_values(kernel, table, policy, label: str) -> list:
    """Solved values against an exact evaluation of the returned policy."""
    exact = evaluate_policy(
        kernel, policy, method="direct", direct_size_limit=kernel.space.size
    )
    gap = float(np.max(np.abs(exact.values - table.values)))
    limit = VALUE_BOUNDS * table.error_bound + 1e-9 * max(
        1.0, float(np.max(np.abs(exact.values)))
    )
    if not gap <= limit:
        return [f"{label}: values {gap:.3e} from exact evaluation, limit {limit:.3e}"]
    return []


def same_report(a, b) -> bool:
    """Bit-identical delay reports.

    ``saturation_events`` is left out: a table clamps states beyond its
    cap and counts it, where the function it tabulates has nothing to clamp.
    """
    for f in dataclasses.fields(a):
        if f.name == "saturation_events":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif not (x == y or (x != x and y != y)):
            return False
    return True


def check_little(rep, label: str) -> list:
    lhs, rhs, se = rep.littles_law()
    if abs(lhs - rhs) > max(LITTLE_SE * se, 1e-9):
        return [f"{label}: Little's law N={lhs:.6g} vs lambda*W={rhs:.6g} (se {se:.3g})"]
    return []


class Workload:
    name = ""

    def __init__(self, phys: Physics):
        self.phys = phys
        self.tabulate_s = 0.0

    def prepare(self, rng: np.random.Generator, workdir: Path, tracer) -> None:
        """Generate and parse this pass's inputs (untimed)."""
        raise NotImplementedError

    def ops(self, rec: PassRecord, tracer) -> list:
        """The timed operations; traced when ``tracer`` records spans."""
        raise NotImplementedError


# ---------------------------------------------------------------- ref-solve


class RefSolve(Workload):
    name = "ref-solve"

    def prepare(self, rng, workdir, tracer):
        ph = self.phys
        self.configs = []
        for key in rng.permutation(sorted(REF_CONFIGS)):
            rho, f, K = REF_CONFIGS[key]
            out_dir = workdir / f"config_{key}"
            doc = {
                "model": {"rho": rho, "mu0": ph.mu0, "K": K, "f": f},
                "solver": {
                    "n_max": ph.n_max,
                    "alpha": ph.alpha,
                    "tol": ph.tol,
                    "margin": ph.margin,
                },
                "output": {"out_dir": str(out_dir)},
            }
            path = workdir / f"config_{key}.json"
            path.write_text(json.dumps(doc))
            model = json.loads(path.read_text())["model"]
            params = params_of(model["rho"], model["mu0"], model["K"], model["f"])
            disc = DiscountSpec.from_alpha(uniformization_rate(params), ph.alpha)
            self.configs.append((str(key), path, out_dir, params, disc))

    def ops(self, rec, tracer):
        out = []
        for key, path, out_dir, params, disc in self.configs:
            if tracer.enabled:
                out.append(self._traced_solve(rec, tracer, key, out_dir, params, disc))
                out.append(self._traced_analyze(rec, tracer, key, out_dir))
            else:
                out.append(self._cli_solve(rec, key, path, out_dir))
                out.append(self._cli_analyze(key, out_dir))
        return out

    def _cli_solve(self, rec, key, path, out_dir):
        def check(result):
            rc, _, err = result
            problems = [] if rc == 0 else [f"solve {key}: exit {rc} {err.strip()}"]
            meta = json.loads((out_dir / "solution.json").read_text())
            if meta["status"] != "converged":
                problems.append(f"solve {key}: status {meta['status']}")
            ck = load_checkpoint(str(out_dir / "solution.npz"))
            kernel = build_kernel(ck.params, ck.space(), ck.table.discount)
            rec.solves.append(
                {
                    "config": key,
                    "iterations": meta["iterations"],
                    "residual": meta["residual"],
                    "error_bound": meta["error_bound"],
                }
            )
            return problems + check_values(kernel, ck.table, ck.policy, f"solve {key}")

        return Op(
            "solve", key, lambda: run_cli(["solve", "--config", path, "--out-dir", out_dir]), check
        )

    def _cli_analyze(self, key, out_dir):
        argv = [
            "analyze",
            "--solution", out_dir / "solution.npz",
            "--margin", self.phys.margin,
            "--out-dir", out_dir,
        ]

        def check(result):
            rc, _, err = result
            return [] if rc == 0 else [f"analyze {key}: exit {rc} {err.strip()}"]

        return Op("analyze", key, lambda: run_cli(argv), check)

    def _traced_solve(self, rec, tr, key, out_dir, params, disc):
        ph = self.phys

        def run():
            with tr.span("solve", "cli", config=key):
                out_dir.mkdir(parents=True, exist_ok=True)
                with tr.span("build_state_space", "kernel"):
                    space = build_state_space(ph.n_max)
                with tr.span("build_kernel", "kernel"):
                    kernel = build_kernel(params, space, disc)
                with tr.span("value_iterate", "solver", config=key):
                    table, policy = value_iterate(kernel, tol=ph.tol)
                path = out_dir / "solution.npz"
                with tr.span("save_checkpoint", "solver"):
                    save_checkpoint(str(path), table, policy, params, ph.n_max)
                meta = {
                    "status": "converged" if table.converged else "not_converged",
                    "iterations": table.iterations,
                    "residual": table.residual,
                    "error_bound": table.error_bound,
                }
                (out_dir / "solution.json").write_text(json.dumps(meta))
            return kernel, table, policy, path.stat().st_size

        def check(result):
            kernel, table, policy, nbytes = result
            rec.kernels.append(kernel_sizes(kernel))
            rec.checkpoint_bytes += nbytes
            rec.solves.append(solve_entry(key, table))
            problems = [] if table.converged else [f"solve {key}: not converged"]
            return problems + check_values(kernel, table, policy, f"solve {key}")

        return Op("solve", key, run, check)

    def _traced_analyze(self, rec, tr, key, out_dir):
        margin = self.phys.margin

        def run():
            with tr.span("analyze", "cli", config=key):
                with tr.span("load_checkpoint", "solver"):
                    ck = load_checkpoint(str(out_dir / "solution.npz"))
                with tr.span("build_state_space", "kernel"):
                    space = build_state_space(ck.n_max)
                with tr.span("build_kernel", "kernel"):
                    kernel = build_kernel(ck.params, space, ck.table.discount)
                with tr.span("run_structure_checks", "structure"):
                    report = run_structure_checks(
                        ck.policy, space, margin=margin, values=ck.table, kernel=kernel
                    )
                (out_dir / "structure.json").write_text(report.to_json() + "\n")
                (out_dir / "structure.txt").write_text(report.to_text())
            return kernel, report

        def check(result):
            kernel, report = result
            rec.kernels.append(kernel_sizes(kernel))
            for res in (report.cloud_first, report.switch_type, report.urgency_monotone):
                rec.structure_checked += res.checked
                rec.structure_indeterminate += res.indeterminate
            return [] if report.all_passed() else [f"analyze {key}: checks failed"]

        return Op("analyze", key, run, check)


# ------------------------------------------------------------ sim-baselines


class SimBaselines(Workload):
    name = "sim-baselines"

    def prepare(self, rng, workdir, tracer):
        ph = self.phys
        rho, f, K = REF_CONFIGS[SIM_CONFIG]
        self.params = params_of(rho, ph.mu0, K, f)
        self.cfg = SimConfig(
            horizon=ph.sim_horizon,
            replications=ph.sim_replications,
            seed=int(rng.integers(2**31 - 1)),
        )
        with tracer.span("build_state_space", "kernel"):
            space = build_state_space(ph.n_max)
        t0 = time.perf_counter()
        with tracer.span("tabulate_policy", "simulator"):
            acts = tabulate_policy(baseline("non_idling"), space)
        with tracer.span("TablePolicy", "simulator"):
            self.table = TablePolicy(acts, ph.n_max)
        self.tabulate_s = time.perf_counter() - t0
        self.space_size = space.size
        self.reports = {}

    def ops(self, rec, tracer):
        rec.states = self.space_size
        p, cfg, reports = self.params, self.cfg, self.reports

        def sim(kind, policy):
            def run():
                with tracer.span("simulate", "simulator", policy=kind):
                    return simulate(policy, p, cfg)

            return run

        def record(kind, rep):
            reports[kind] = rep
            rec.sims.append(
                {"kind": kind, "jobs": rep.jobs_completed, "saturation": rep.saturation_events}
            )
            return check_little(rep, f"simulate {kind}")

        def check_offload(rep):
            problems = record("offload_only", rep)
            exact = mm1_reference(p.lam, p.mu_c1)
            n = rep.replications
            widen = stats.t.ppf(0.5 + MM1_CONFIDENCE / 2, n - 1) / stats.t.ppf(0.975, n - 1)
            limit = rep.ci_halfwidth * widen
            if not abs(rep.mean_sojourn - exact) <= limit:
                problems.append(
                    f"simulate offload_only: mean {rep.mean_sojourn:.6g} vs M/M/1 "
                    f"{exact:.6g}, limit {limit:.3g}"
                )
            return problems

        def check_table(rep):
            problems = record("table", rep)
            if not same_report(rep, reports["non_idling"]):
                problems.append("simulate table: report differs from the non_idling function")
            return problems

        def couple():
            with tracer.span("coupled_compare", "simulator"):
                return coupled_compare(
                    baseline("offload_only"), baseline("non_idling"), p, cfg
                )

        def check_couple(rep):
            rec.couple_jobs += rep.report_a.jobs_completed + rep.report_b.jobs_completed
            problems = []
            if not rep.diff_mean < 0.0:
                problems.append(f"couple: non_idling minus offload_only is {rep.diff_mean:.6g}")
            for name, sub in (("offload_only", rep.report_a), ("non_idling", rep.report_b)):
                if not same_report(sub, reports[name]):
                    problems.append(f"couple: {name} report differs from its plain simulate")
            return problems

        return [
            Op("simulate", "offload_only", sim("offload_only", baseline("offload_only")),
               check_offload),
            Op("simulate", "non_idling", sim("non_idling", baseline("non_idling")),
               lambda rep: record("non_idling", rep)),
            Op("simulate", "table", sim("table", self.table), check_table),
            Op("couple", "baselines", couple, check_couple),
        ]


# -------------------------------------------------------------------- sweep


def check_sweep_rows(rows: list, rhos, policies) -> list:
    """Every row ok; optimal never above a baseline by more than both half-widths."""
    problems = []
    if len(rows) != len(rhos) * len(policies):
        problems.append(f"sweep: {len(rows)} rows, expected {len(rhos) * len(policies)}")
    by_rho: dict = {}
    for row in rows:
        if row["status"] != "ok":
            problems.append(f"sweep: rho={row['rho']} {row['policy']} {row['status']}")
            continue
        by_rho.setdefault(float(row["rho"]), {})[row["policy"]] = (
            float(row["mean_delay"]),
            float(row["ci_halfwidth"]),
        )
    for rho, res in sorted(by_rho.items()):
        if "optimal" not in res:
            continue
        opt, opt_hw = res["optimal"]
        for name, (mean, hw) in res.items():
            if name != "optimal" and opt > mean + opt_hw + hw:
                problems.append(
                    f"sweep: rho={rho:g} optimal {opt:.6g} above {name} {mean:.6g}"
                )
    return problems


class Sweep(Workload):
    name = "sweep"

    def prepare(self, rng, workdir, tracer):
        ph = self.phys
        self.out_dir = workdir / "sweep"
        self.seed = int(rng.integers(2**31 - 1))
        self.argv = [
            "sweep",
            "--mu0", ph.mu0, "--K", SWEEP_K, "--f", SWEEP_F,
            "--rhos", ",".join(f"{r:g}" for r in SWEEP_RHOS),
            "--policies", ",".join(SWEEP_POLICIES),
            "--n-max", ph.n_max, "--alpha", ph.alpha, "--tol", ph.tol,
            "--horizon", ph.sweep_horizon, "--replications", ph.sweep_replications,
            "--seed", self.seed,
            "--out-dir", self.out_dir,
        ]
        self.points = []
        for rho in SWEEP_RHOS:
            params = params_of(rho, ph.mu0, SWEEP_K, SWEEP_F)
            disc = DiscountSpec.from_alpha(uniformization_rate(params), ph.alpha)
            self.points.append((rho, params, disc))
        self.cfg = SimConfig(
            horizon=ph.sweep_horizon, replications=ph.sweep_replications, seed=self.seed
        )

    def ops(self, rec, tracer):
        if tracer.enabled:
            return [Op("sweep", "rhos", lambda: self._traced(rec, tracer),
                       lambda rows: check_sweep_rows(rows, SWEEP_RHOS, SWEEP_POLICIES))]
        return [Op("sweep", "rhos", lambda: run_cli(self.argv), self._check_cli)]

    def _check_cli(self, result):
        rc, _, err = result
        problems = [] if rc == 0 else [f"sweep: exit {rc} {err.strip()}"]
        with open(self.out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return problems + check_sweep_rows(rows, SWEEP_RHOS, SWEEP_POLICIES)

    def _traced(self, rec, tr):
        ph = self.phys
        rows = []
        with tr.span("sweep", "cli"):
            for rho, params, disc in self.points:
                with tr.span("build_state_space", "kernel"):
                    space = build_state_space(ph.n_max)
                with tr.span("build_kernel", "kernel"):
                    kernel = build_kernel(params, space, disc)
                with tr.span("value_iterate", "solver", rho=rho):
                    table, policy = value_iterate(kernel, tol=ph.tol)
                rec.kernels.append(kernel_sizes(kernel))
                rec.solves.append(solve_entry(f"rho={rho:g}", table))
                if not table.converged:
                    raise RuntimeError(f"value iteration did not converge at rho={rho:g}")
                with tr.span("TablePolicy", "simulator"):
                    optimal = TablePolicy(policy.actions, ph.n_max)
                for name in SWEEP_POLICIES:
                    kind = "table" if name == "optimal" else name
                    policy_obj = optimal if name == "optimal" else baseline(name)
                    with tr.span("simulate", "simulator", policy=kind):
                        rep = simulate(policy_obj, params, self.cfg)
                    rec.sims.append(
                        {"kind": kind, "jobs": rep.jobs_completed,
                         "saturation": rep.saturation_events}
                    )
                    rows.append(
                        {
                            "rho": rho,
                            "policy": name,
                            "mean_delay": rep.mean_sojourn,
                            "ci_halfwidth": rep.ci_halfwidth,
                            "status": "ok",
                        }
                    )
            self.out_dir.mkdir(parents=True, exist_ok=True)
            with open(self.out_dir / "sweep.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        return rows


WORKLOADS = {w.name: w for w in (RefSolve, SimBaselines, Sweep)}
