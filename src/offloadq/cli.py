"""Command-line front end: solve, inspect, and simulate dispatching policies.

Subcommands: ``solve`` (policy iteration to artifacts), ``grid`` (policy
slice as CSV), ``analyze`` (structure checks on a solved artifact),
``simulate`` (delay estimate for one policy), ``sweep`` (delay vs
utilization CSV across policies), ``couple`` (paired comparison of two
policies on shared randomness).

Configuration is one JSON document with ``model``, ``solver``, ``sim``
and ``output`` blocks; every CLI flag overrides the corresponding file
value.  The model block needs exactly one of rho/lambda and exactly one
rate parameterization, (mu0, K, f) or (mu_c1, mu_l2, mu_c2); the solver
block accepts at most one of alpha/beta (required when a command has to
solve).  Every model, solver and sim key is a number (an integer for
n_max, max_iters, replications and seed) and ``output.out_dir`` a
string; a null ``sim.warmup`` means 10% of the horizon.  Each command
checks its inputs before its first solve or simulation, the solver's
ranges included (n_max and max_iters at least 1, tol positive), and any
command that reads a config file rejects an invalid ``sim`` block,
``solve`` included.  The output directory resolves flag, then the
OFFLOADQ_OUT_DIR environment variable, then the config file, then the
working directory.

All CSV output is byte-stable for fixed inputs: fixed column order,
numbers at 9 significant digits, lines terminated with "\\n".  JSON
reports carry a ``schema_version`` field.  A simulated table policy that
saturated at its queue cap gets a ``warning:`` line on stderr.  Exit
codes: 0 success (and all checks passed), 1 usage, configuration or
artifact error, 2 structure-check failure, 3 solver non-convergence
(``solve`` still writes its artifacts; ``simulate``, ``sweep`` and
``couple`` stop with one ``error:`` line when the optimal policy they
need did not converge).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .kernel import DiscountSpec, build_kernel, build_state_space, uniformization_rate
from .model import (
    ModelParams,
    derive_rates,
    from_heterogeneous,
    lambda_from_utilization,
    params_close,
)
from .simulator import SimConfig, SimulationError, baseline, coupled_compare, simulate
from .solver import MAX_STEPS, PolicyTable, load_checkpoint, policy_iterate, save_checkpoint
from .structure import run_structure_checks

SCHEMA_VERSION = 1
ENV_OUT_DIR = "OFFLOADQ_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK = 2
EXIT_NO_CONVERGENCE = 3

DEFAULT_N_MAX = 60
DEFAULT_SWEEP_RHOS = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_SWEEP_POLICIES = ("optimal", "offload_only", "non_idling")

# grid CSV alphabet: idle 0, full offload 1, split 2; the composite keeps
# code 1 and raises the companion flag instead
_GRID_ACTION = {0: 0, 1: 1, 2: 2, 3: 1}


class NotConverged(RuntimeError):
    """Policy iteration used up its step budget where an optimal policy is needed."""


def _fmt(x: float) -> str:
    return "%.9g" % float(x)


def _write_csv(path: Path, header: tuple, rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------------ config


# the type of every config key the CLI reads, by block; each flag that
# overrides a key has the key's name as its dest
_CONFIG_KEYS = {
    "model": {"rho": float, "lambda": float, "mu0": float, "K": float, "f": float,
              "mu_c1": float, "mu_l2": float, "mu_c2": float},
    "solver": {"n_max": int, "alpha": float, "beta": float, "tol": float, "max_iters": int},
    "sim": {"horizon": float, "warmup": float, "replications": int, "seed": int},
    "output": {"out_dir": str},
}
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string"}
_SIMPLE_RATES = ("mu0", "K", "f")
_HETERO_RATES = ("mu_c1", "mu_l2", "mu_c2")


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one command invocation."""

    params: ModelParams
    rho: float | None
    n_max: int
    alpha: float | None
    beta: float | None
    tol: float
    max_iters: int
    sim: SimConfig
    out_dir: Path

    def discount_for(self, params: ModelParams) -> DiscountSpec:
        nu = uniformization_rate(params)
        if self.alpha is not None:
            return DiscountSpec.from_alpha(nu, self.alpha)
        if self.beta is not None:
            return DiscountSpec.from_beta(nu, self.beta)
        raise ValueError("solving requires alpha or beta in the solver block")

    def model_dict(self) -> dict:
        p = self.params
        return {
            "lam": p.lam,
            "mu0": p.mu0,
            "K": p.K,
            "f": p.f,
            "mu_c1": p.mu_c1,
            "mu_l2": p.mu_l2,
            "mu_c2": p.mu_c2,
            "utilization": p.utilization,
            "rho": self.rho,
        }


def _load_blocks(config_path: str | None) -> dict[str, dict]:
    """The model, solver, sim and output blocks of the config file, by name."""
    if config_path is None:
        return {name: {} for name in _CONFIG_KEYS}
    try:
        raw = json.loads(Path(config_path).read_text())
    except FileNotFoundError:
        raise ValueError(f"config file not found: {config_path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config file must contain a JSON object")
    blocks = {name: raw.get(name, {}) for name in _CONFIG_KEYS}
    for name, block in blocks.items():
        if not isinstance(block, dict):
            raise ValueError(f"config block {name!r} must be a JSON object")
    return {name: dict(block) for name, block in blocks.items()}


def _has_type(value, kind) -> bool:
    """JSON typing: a number for float, an integral number for int, a string for str."""
    if kind is str:
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return kind is float or isinstance(value, int) or value.is_integer()


def _config_blocks(args) -> dict[str, dict]:
    """The config blocks, each flag replacing its key in the file, each key of its type."""
    blocks = _load_blocks(getattr(args, "config", None))

    def flagged(keys):
        return any(getattr(args, k, None) is not None for k in keys)

    # setting one side of a pair, and not the other, drops the stored other
    for name, one, other in (("model", ("rho",), ("lambda",)),
                             ("model", _SIMPLE_RATES, _HETERO_RATES),
                             ("solver", ("alpha",), ("beta",))):
        for mine, theirs in ((one, other), (other, one)):
            if flagged(mine) and not flagged(theirs):
                for k in theirs:
                    blocks[name].pop(k, None)

    for name, types in _CONFIG_KEYS.items():
        block = blocks[name]
        for key, kind in types.items():
            if getattr(args, key, None) is not None:
                block[key] = getattr(args, key)
            if key not in block or (key == "warmup" and block[key] is None):  # null: default
                continue
            if not _has_type(block[key], kind):
                raise ValueError(f"config key {name}.{key} must be {_TYPE_NAMES[kind]}, "
                                 f"got {json.dumps(block[key])}")
            block[key] = kind(block[key])
    return blocks


def _parse_rates(model: dict) -> tuple[float, float, float]:
    has_simple = any(k in model for k in _SIMPLE_RATES)
    has_hetero = any(k in model for k in _HETERO_RATES)
    if has_simple and has_hetero:
        raise ValueError(
            "model block mixes (mu0, K, f) with (mu_c1, mu_l2, mu_c2); pick one"
        )
    if not has_simple and not has_hetero:
        raise ValueError(
            "model block must provide (mu0, K, f) or (mu_c1, mu_l2, mu_c2)"
        )
    family = _SIMPLE_RATES if has_simple else _HETERO_RATES
    missing = sorted(set(family) - set(model))
    if missing:
        raise ValueError(f"model block is missing {', '.join(missing)}")
    rates = tuple(model[k] for k in family)
    return rates if has_simple else from_heterogeneous(*rates)


def _resolve_out_dir(args, output: dict) -> Path:
    if getattr(args, "out_dir", None) is not None:
        return Path(args.out_dir)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    if "out_dir" in output:
        return Path(output["out_dir"])
    return Path(".")


def _run_config(args, allow_missing_rate: bool = False) -> RunConfig:
    """Every input of a run, typed and validated before any work starts."""
    blocks = _config_blocks(args)
    model, solver, sim = blocks["model"], blocks["solver"], blocks["sim"]

    mu0, K, f = _parse_rates(model)
    if "rho" in model and "lambda" in model:
        raise ValueError("model block must provide exactly one of rho, lambda")
    rho = model.get("rho")
    if rho is not None:
        lam = lambda_from_utilization(rho, mu0, K)
    elif "lambda" in model:
        lam = model["lambda"]
        rho = lam / ((K + 1.0) * mu0)
    elif allow_missing_rate:
        lam = 0.0
    else:
        raise ValueError("model block must provide exactly one of rho, lambda")
    params = derive_rates(lam, mu0, K, f)

    if "alpha" in solver and "beta" in solver:
        raise ValueError("solver block must provide at most one of alpha, beta")
    solver = {"n_max": DEFAULT_N_MAX, "tol": 1e-9, "max_iters": MAX_STEPS, **solver}
    for key, ok, bound in (("n_max", solver["n_max"] >= 1, "at least 1"),
                           ("tol", solver["tol"] > 0.0, "positive"),
                           ("max_iters", solver["max_iters"] >= 1, "at least 1")):
        if not ok:
            raise ValueError(f"solver.{key} must be {bound}, got {solver[key]}")
    return RunConfig(
        params=params,
        rho=rho,
        n_max=solver["n_max"],
        alpha=solver.get("alpha"),
        beta=solver.get("beta"),
        tol=solver["tol"],
        max_iters=solver["max_iters"],
        sim=SimConfig(**{k: sim[k] for k in _CONFIG_KEYS["sim"] if k in sim}),
        out_dir=_resolve_out_dir(args, blocks["output"]),
    )


# ------------------------------------------------------------------ solving


def _solve(params: ModelParams, cfg: RunConfig, pi0: PolicyTable | None = None):
    space = build_state_space(cfg.n_max)
    kernel = build_kernel(params, space, cfg.discount_for(params))
    table, policy = policy_iterate(kernel, tol=cfg.tol, max_iters=cfg.max_iters, pi0=pi0)
    return space, table, policy


def _optimum(params: ModelParams, cfg: RunConfig, pi0: PolicyTable | None = None,
             where: str = "") -> PolicyTable:
    """The solved optimal policy; ``NotConverged`` if the step budget ran out."""
    _, table, policy = _solve(params, cfg, pi0=pi0)
    if not table.converged:
        raise NotConverged(
            f"policy iteration did not converge{where} within {cfg.max_iters} steps"
        )
    return policy


def _resolve_policy(spec: str, cfg: RunConfig):
    """A policy argument is a baseline name, 'optimal', or an artifact path."""
    if spec == "optimal":
        return _optimum(cfg.params, cfg)
    try:
        return baseline(spec)
    except ValueError:
        if not Path(spec).exists():
            raise ValueError(
                f"unknown policy {spec!r}: use 'optimal', a baseline name, "
                "or a solution artifact path"
            ) from None
    ck = load_checkpoint(spec)
    if not params_close(ck.params, cfg.params):
        rates = "lam={0.lam:g}, mu0={0.mu0:g}, K={0.K:g}, f={0.f:g}".format
        raise ValueError(
            f"artifact {spec} was solved for {rates(ck.params)}, "
            f"but the config gives {rates(cfg.params)}"
        )
    return ck.policy


def _resolve_policies(cfg: RunConfig, *specs: str) -> list:
    """The policies the arguments name, each distinct one resolved once.

    'optimal' resolves last, so a bad baseline or artifact fails before the solve.
    """
    order = sorted(dict.fromkeys(specs), key=lambda spec: spec == "optimal")
    resolved = {spec: _resolve_policy(spec, cfg) for spec in order}
    return [resolved[spec] for spec in specs]


# -------------------------------------------------------------- subcommands


def cmd_solve(args) -> int:
    cfg = _run_config(args)
    space, table, policy = _solve(cfg.params, cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    solution = cfg.out_dir / "solution.npz"
    save_checkpoint(str(solution), table, policy, cfg.params, cfg.n_max)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "status": "converged" if table.converged else "not_converged",
        "method": table.method,
        "iterations": table.iterations,
        "residual": table.residual,
        "error_bound": table.error_bound,
        "tol": table.tol,
        "n_max": cfg.n_max,
        "states": space.size,
        "nu": table.discount.nu,
        "alpha": table.discount.alpha,
        "beta": table.discount.beta,
        "model": cfg.model_dict(),
        "artifacts": {"solution": solution.name},
    }
    _write_json(cfg.out_dir / "solution.json", meta)
    print(
        f"{meta['status']}: {table.iterations} policy-iteration steps, "
        f"residual {table.residual:.3e}, artifacts in {cfg.out_dir}"
    )
    return EXIT_OK if table.converged else EXIT_NO_CONVERGENCE


def cmd_grid(args) -> int:
    ck = load_checkpoint(args.solution)
    space = ck.space()
    acts = ck.policy.actions
    rows = []
    for n0 in range(1, space.n_max + 1):
        for n2 in range(0, space.n_max + 1):
            a = int(acts[space.id_of(n0, args.i2, args.i1, n2)])
            rows.append((str(n0), str(n2), str(_GRID_ACTION[a]), str(int(a == 3))))
    out_dir = _resolve_out_dir(args, {})
    out_dir.mkdir(parents=True, exist_ok=True)
    path = Path(args.out) if args.out else out_dir / f"grid_i2{args.i2}_i1{args.i1}.csv"
    _write_csv(path, ("n0", "n2", "action", "also_sm2"), rows)
    print(f"wrote {path} ({len(rows)} states)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    ck = load_checkpoint(args.solution)
    space = ck.space()
    # with the stored model the checks screen violations against their
    # action-value margins instead of trusting tie-broken actions verbatim
    kernel = build_kernel(ck.params, space, ck.table.discount)
    report = run_structure_checks(
        ck.policy, space, margin=args.margin, values=ck.table, kernel=kernel
    )
    out_dir = _resolve_out_dir(args, {})
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "structure.json").write_text(report.to_json() + "\n")
    (out_dir / "structure.txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.all_passed() else EXIT_CHECK


def _write_sim_json(cfg: RunConfig, name: str, report, **policies: str) -> None:
    """One simulation artifact: the policy names, model, sim block and report."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": SCHEMA_VERSION, "model": cfg.model_dict(),
               "sim": asdict(cfg.sim), "report": report.to_json_dict(), **policies}
    _write_json(cfg.out_dir / name, payload)


def _warn_saturation(policy: str, report) -> None:
    if report.saturation_events > 0:
        print(f"warning: policy {policy}: {report.saturation_events} saturation events "
              "(states beyond its table's queue cap were clamped to the cap)",
              file=sys.stderr)


def cmd_simulate(args) -> int:
    cfg = _run_config(args)
    policy = _resolve_policy(args.policy, cfg)
    report = simulate(policy, cfg.params, cfg.sim)
    _warn_saturation(args.policy, report)
    _write_sim_json(cfg, "simulation.json", report, policy=args.policy)
    print(
        f"{args.policy}: mean sojourn {_fmt(report.mean_sojourn)} "
        f"+- {_fmt(report.ci_halfwidth)}, time-avg jobs {_fmt(report.time_avg_jobs)}, "
        f"{report.jobs_completed} completions"
    )
    return EXIT_OK


def _policy_stable(name: str, rho: float, params: ModelParams) -> bool:
    # pure offloading saturates once arrivals outpace the full-offload
    # server; every splitting policy can hold out to total capacity
    if name == "offload_only":
        return params.lam < params.mu_c1
    return rho < 1.0


def cmd_sweep(args) -> int:
    cfg = _run_config(args, allow_missing_rate=True)
    mu0, K, f = cfg.params.mu0, cfg.params.K, cfg.params.f
    try:
        rhos = [float(tok) for tok in args.rhos.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--rhos takes comma-separated numbers, got {args.rhos!r}") from None
    loads = [(rho, derive_rates(lambda_from_utilization(rho, mu0, K), mu0, K, f))
             for rho in rhos]
    policies = [tok.strip() for tok in args.policies.split(",") if tok.strip()]
    if not loads or not policies:
        raise ValueError("sweep needs at least one rho and one policy")
    bases = {name: baseline(name) for name in policies if name != "optimal"}
    if "optimal" in policies:
        cfg.discount_for(cfg.params)  # fail before the long run if unset
    rows = []
    optimum = None  # warm start for the next rho's solve
    for rho, params in loads:
        if "optimal" in policies and _policy_stable("optimal", rho, params):
            optimum = _optimum(params, cfg, pi0=optimum, where=f" at rho={rho:g}")
        for name in policies:
            if not _policy_stable(name, rho, params):
                rows.append((_fmt(rho), name, "", "", "", "unstable"))
                print(f"rho={rho:g} {name}: unstable")
                continue
            policy = optimum if name == "optimal" else bases[name]
            report = simulate(policy, params, cfg.sim)
            _warn_saturation(f"{name} at rho={rho:g}", report)
            rows.append(
                (
                    _fmt(rho),
                    name,
                    _fmt(report.mean_sojourn),
                    _fmt(report.ci_halfwidth),
                    _fmt(report.time_avg_jobs),
                    "ok",
                )
            )
            print(
                f"rho={rho:g} {name}: mean {_fmt(report.mean_sojourn)} "
                f"+- {_fmt(report.ci_halfwidth)}"
            )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "sweep.csv"
    _write_csv(
        path, ("rho", "policy", "mean_delay", "ci_halfwidth", "avg_jobs", "status"), rows
    )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_couple(args) -> int:
    cfg = _run_config(args)
    policy_a, policy_b = _resolve_policies(cfg, args.policy_a, args.policy_b)
    report = coupled_compare(policy_a, policy_b, cfg.params, cfg.sim)
    _warn_saturation(args.policy_a, report.report_a)
    _warn_saturation(args.policy_b, report.report_b)
    _write_sim_json(cfg, "couple.json", report, policy_a=args.policy_a,
                    policy_b=args.policy_b)
    print(
        f"mean sojourn difference (B - A): {_fmt(report.diff_mean)} "
        f"+- {_fmt(report.diff_ci_halfwidth)}; "
        f"dominance fraction {_fmt(report.dominance_fraction)}"
    )
    return EXIT_OK


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _add_model_flags(sub) -> None:
    sub.add_argument("--config", help="JSON config file (model/solver/sim/output)")
    g = sub.add_argument_group("model overrides")
    g.add_argument("--rho", type=float, help="utilization lambda/((K+1) mu0)")
    g.add_argument("--lam", dest="lambda", metavar="LAM", type=float, help="arrival rate")
    g.add_argument("--mu0", type=float, help="local service rate scale")
    g.add_argument("--K", type=float, help="cloud speedup factor (> 1)")
    g.add_argument("--f", type=float, help="local fraction of split work (0, 1)")
    g.add_argument("--mu-c1", dest="mu_c1", type=float, help="full offload rate")
    g.add_argument("--mu-l2", dest="mu_l2", type=float, help="local phase rate")
    g.add_argument("--mu-c2", dest="mu_c2", type=float, help="split remainder rate")


def _add_solver_flags(sub) -> None:
    g = sub.add_argument_group("solver overrides")
    g.add_argument("--n-max", dest="n_max", type=int,
                   help=f"queue cap (default {DEFAULT_N_MAX})")
    g.add_argument("--alpha", type=float, help="discount factor in (0, 1)")
    g.add_argument("--beta", type=float, help="continuous-time discount rate")
    g.add_argument("--tol", type=float, help="sup-norm residual target")
    g.add_argument("--max-iters", dest="max_iters", type=int,
                   help=f"policy-iteration step budget (default {MAX_STEPS})")


def _add_sim_flags(sub) -> None:
    g = sub.add_argument_group("simulation overrides")
    g.add_argument("--horizon", type=float, help="simulated time per replication")
    g.add_argument("--warmup", type=float, help="statistics exclusion prefix")
    g.add_argument("--replications", type=int, help="independent replications")
    g.add_argument("--seed", type=int, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="offloadq",
        description="Solve and simulate two-mode computation-offloading policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run policy iteration and write artifacts")
    _add_model_flags(p)
    _add_solver_flags(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("grid", help="dump a policy slice as CSV")
    p.add_argument("--solution", required=True, help="solution artifact (.npz)")
    p.add_argument("--i2", type=int, choices=(0, 1), required=True,
                   help="local slot occupancy of the slice")
    p.add_argument("--i1", type=int, choices=(0, 1), required=True,
                   help="full-offload slot occupancy of the slice")
    p.add_argument("--out", help="CSV path (default grid_i2<i2>_i1<i1>.csv)")
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("analyze", help="run structure checks on a solved artifact")
    p.add_argument("--solution", required=True, help="solution artifact (.npz)")
    p.add_argument("--margin", type=int, default=5, help="boundary margin")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("simulate", help="estimate delay for one policy")
    _add_model_flags(p)
    _add_solver_flags(p)
    _add_sim_flags(p)
    p.add_argument("--policy", required=True,
                   help="'optimal', a baseline name, or a solution artifact")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("sweep", help="delay vs utilization for several policies")
    _add_model_flags(p)
    _add_solver_flags(p)
    _add_sim_flags(p)
    p.add_argument("--rhos", default=",".join(str(r) for r in DEFAULT_SWEEP_RHOS),
                   help="comma-separated utilization values")
    p.add_argument("--policies", default=",".join(DEFAULT_SWEEP_POLICIES),
                   help="comma-separated policy names")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("couple", help="paired comparison on shared randomness")
    _add_model_flags(p)
    _add_solver_flags(p)
    _add_sim_flags(p)
    p.add_argument("--policy-a", dest="policy_a", required=True)
    p.add_argument("--policy-b", dest="policy_b", required=True)
    p.set_defaults(handler=cmd_couple)

    for p in sub.choices.values():
        p.add_argument("--out-dir", dest="out_dir", help="artifact directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OSError, ValueError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
