"""End-to-end tests of the command-line interface and its file contracts."""

import json

import numpy as np
import pytest

from offloadq.cli import main
from offloadq.kernel import build_kernel, build_state_space
from offloadq.model import Action
from offloadq.simulator import baseline, tabulate_policy
from offloadq.solver import PolicyTable, load_checkpoint, policy_iterate, save_checkpoint

# small instance keeps every solve in this file well under a second
FAST = [
    "--rho", "0.3", "--mu0", "1", "--K", "8", "--f", "0.4",
    "--n-max", "6", "--alpha", "0.9", "--tol", "1e-7",
]
SIM_FAST = ["--horizon", "200", "--replications", "3", "--seed", "7"]


def _solve_fast(tmp_path, extra=()):
    rc = main(["solve", *FAST, *extra, "--out-dir", str(tmp_path)])
    assert rc == 0
    return tmp_path / "solution.npz"


def test_solve_writes_artifacts(tmp_path, capsys):
    sol = _solve_fast(tmp_path)
    assert sol.exists()
    meta = json.loads((tmp_path / "solution.json").read_text())
    assert meta["schema_version"] == 1
    assert meta["status"] == "converged"
    assert meta["method"] == "policy_iteration"
    assert meta["n_max"] == 6
    assert meta["model"]["f"] == 0.4
    assert meta["residual"] <= 1e-7
    ck = load_checkpoint(str(sol))
    assert ck.policy is not None and ck.n_max == 6
    assert "converged" in capsys.readouterr().out


def test_solve_nonconvergence_exits_3_but_writes(tmp_path):
    rc = main(["solve", *FAST, "--max-iters", "1", "--out-dir", str(tmp_path)])
    assert rc == 3
    meta = json.loads((tmp_path / "solution.json").read_text())
    assert meta["status"] == "not_converged"
    assert meta["iterations"] == 1
    assert (tmp_path / "solution.npz").exists()


def test_unfinished_solve_resumes_from_its_policy_to_the_cold_solve(tmp_path):
    args = [*FAST, "--rho", "0.8", "--n-max", "8", "--alpha", "0.99", "--tol", "1e-9"]
    assert main(["solve", *args, "--max-iters", "1", "--out-dir", str(tmp_path / "part")]) == 3
    assert main(["solve", *args, "--out-dir", str(tmp_path / "cold")]) == 0
    part = load_checkpoint(str(tmp_path / "part" / "solution.npz"))
    cold = load_checkpoint(str(tmp_path / "cold" / "solution.npz"))
    kernel = build_kernel(part.params, part.space(), part.table.discount)
    table, policy = policy_iterate(kernel, tol=part.table.tol, pi0=part.policy)
    assert table.converged
    # bit for bit: both runs end by evaluating the same policy the same way
    assert table.values.tobytes() == cold.table.values.tobytes()
    assert policy.actions.tobytes() == cold.policy.actions.tobytes()
    assert table.residual == cold.table.residual


@pytest.mark.parametrize(
    "command, policy, artifact",
    [
        ("simulate", ["--policy", "optimal"], "simulation.json"),
        ("couple", ["--policy-a", "optimal", "--policy-b", "non_idling"], "couple.json"),
        ("sweep", ["--policies", "optimal", "--rhos", "0.3"], "sweep.csv"),
    ],
)
def test_optimal_policy_nonconvergence_exits_3(tmp_path, capsys, command, policy, artifact):
    rc = main([command, *FAST, *SIM_FAST, "--max-iters", "1", *policy,
               "--out-dir", str(tmp_path)])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: policy iteration did not converge")
    assert not (tmp_path / artifact).exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "sweep", "couple"])
def test_solver_flags_have_no_margin(tmp_path, capsys, command):
    extra = {"simulate": [*SIM_FAST, "--policy", "non_idling"],
             "sweep": [*SIM_FAST, "--rhos", "0.3"],
             "couple": [*SIM_FAST, "--policy-a", "non_idling", "--policy-b", "offload_only"]}
    rc = main([command, *FAST, *extra.get(command, []), "--margin", "100",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "unrecognized arguments: --margin 100" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_with_solver_margin_still_loads(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": {"rho": 0.3, "mu0": 1, "K": 8, "f": 0.4},
        "solver": {"n_max": 6, "alpha": 0.9, "tol": 1e-7, "margin": 100},
    }))
    assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert "margin" not in json.loads((tmp_path / "solution.json").read_text())


_OPTIMAL = {"simulate": ["--policy", "optimal"],
            "sweep": ["--rhos", "0.3", "--policies", "optimal"],
            "couple": ["--policy-a", "optimal", "--policy-b", "non_idling"]}
_BAD_SIM = [(["--horizon", "-1"], "horizon must be positive"),
            (["--replications", "0"], "need at least one replication"),
            (["--warmup", "200"], "warmup must lie in [0, horizon)")]  # SIM_FAST horizon 200


def _config_with(block, key, value):
    doc = {"model": {"rho": 0.3, "mu0": 1, "K": 8, "f": 0.4},
           "solver": {"n_max": 6, "alpha": 0.9, "tol": 1e-7},
           "sim": {"horizon": 200, "replications": 3, "seed": 7}, "output": {}}
    doc[block][key] = value
    return doc


@pytest.mark.parametrize(
    "argv, config, message",
    [
        pytest.param(["sweep", *FAST, *SIM_FAST, "--rhos", "0.5,-0.1", "--policies", "optimal"],
                     None, "utilization must be nonnegative, got -0.1", id="sweep-negative-rho"),
        pytest.param(["couple", *FAST, *SIM_FAST, "--policy-a", "optimal", "--policy-b", "bogus"],
                     None, "unknown policy 'bogus'", id="couple-bogus"),
        pytest.param(["sweep", *FAST, *SIM_FAST, "--rhos", "0.5,abc", "--policies", "optimal"],
                     None, "--rhos takes comma-separated numbers, got '0.5,abc'",
                     id="sweep-rhos-not-numbers"),
        pytest.param(["solve", *FAST, "--n-max", "0"], None,
                     "solver.n_max must be at least 1, got 0", id="solve--n-max=0"),
        pytest.param(["solve", *FAST, "--max-iters", "-1"], None,
                     "solver.max_iters must be at least 1, got -1", id="solve--max-iters=-1"),
        pytest.param(["simulate", *FAST, *SIM_FAST, "--tol", "-1", "--policy", "optimal"], None,
                     "solver.tol must be positive, got -1.0", id="simulate--tol=-1"),
        *[pytest.param([cmd, *FAST, *SIM_FAST, *flag, *policy], None, message,
                       id=f"{cmd}{flag[0]}={flag[1]}")
          for cmd, policy in _OPTIMAL.items() for flag, message in _BAD_SIM],
        *[pytest.param(["simulate", "--policy", "optimal"], _config_with(block, key, value),
                       f"config key {block}.{key} must be {kind}, got {json.dumps(value)}",
                       id=f"{block}.{key}={json.dumps(value)}")
          for block, key, kind in (("model", "rho", "a number"),
                                   ("solver", "n_max", "an integer"),
                                   ("sim", "horizon", "a number"))
          for value in (None, [4], {"x": 1})],
    ],
)
def test_bad_input_rejected_before_any_work(tmp_path, capsys, monkeypatch, argv, config,
                                            message):
    monkeypatch.setattr("offloadq.cli.policy_iterate",
                        lambda *a, **k: pytest.fail("solved before the input was checked"))
    monkeypatch.setattr("offloadq.cli.build_kernel",
                        lambda *a, **k: pytest.fail("built a kernel before the input was checked"))
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "c.json")]
    out_dir = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err
    assert not out_dir.exists()


def test_config_keys_take_their_json_type(tmp_path, capsys):
    config = tmp_path / "c.json"

    def run(doc):
        doc["output"].setdefault("out_dir", str(tmp_path))
        config.write_text(json.dumps(doc))
        return main(["simulate", "--config", str(config), "--policy", "offload_only"])

    # a null warmup is the default, and an integral float is an integer
    assert run(_config_with("sim", "warmup", None)) == 0
    assert json.loads((tmp_path / "simulation.json").read_text())["sim"]["warmup"] == 20.0
    assert run(_config_with("sim", "replications", 2.0)) == 0
    capsys.readouterr()
    lam_null = _config_with("model", "lambda", None)
    del lam_null["model"]["rho"]
    for doc, text in (
        (_config_with("sim", "seed", 7.5), "sim.seed must be an integer, got 7.5"),
        (_config_with("model", "f", "0.4"), 'model.f must be a number, got "0.4"'),
        (_config_with("solver", "tol", True), "solver.tol must be a number, got true"),
        (lam_null, "model.lambda must be a number, got null"),
        (_config_with("output", "out_dir", 5), "output.out_dir must be a string, got 5"),
    ):
        assert run(doc) == 1
        assert capsys.readouterr().err == f"error: config key {text}\n"


def test_solve_requires_discount(tmp_path, capsys):
    args = [a for a in FAST if a not in ("--alpha", "0.9")]
    rc = main(["solve", *args, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "alpha or beta" in capsys.readouterr().err


def test_model_block_validation(tmp_path, capsys):
    # missing rates
    assert main(["solve", "--rho", "0.3", "--out-dir", str(tmp_path)]) == 1
    assert "model block" in capsys.readouterr().err
    # mixed rate families in one config file
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"rho": 0.3, "mu0": 1, "K": 8, "f": 0.4, "mu_c1": 8}}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "mixes" in capsys.readouterr().err
    # rho and lambda together
    cfg.write_text(json.dumps({"model": {"rho": 0.3, "lambda": 2.0, "mu0": 1, "K": 8, "f": 0.4}}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["solve", "--config", str(bad)]) == 1
    assert "valid JSON" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main(["solve", "--no-such-flag"]) == 1
    assert main(["analyze"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_flag_overrides_replace_config_counterparts(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"lambda": 1.0, "mu0": 1, "K": 8, "f": 0.4},
                "solver": {"n_max": 6, "beta": 5.0, "tol": 1e-7},
            }
        )
    )
    # --rho must displace the file's lambda, --alpha the file's beta
    rc = main(["solve", "--config", str(cfg), "--rho", "0.3", "--alpha", "0.9",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "solution.json").read_text())
    assert meta["model"]["rho"] == 0.3
    assert meta["model"]["lam"] == pytest.approx(0.3 * 9.0)
    assert meta["alpha"] == 0.9


def test_config_lambda_alias(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"lambda": 2.7, "mu0": 1, "K": 8, "f": 0.4},
                "solver": {"n_max": 6, "alpha": 0.9, "tol": 1e-7},
                "output": {"out_dir": str(tmp_path)},
            }
        )
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    meta = json.loads((tmp_path / "solution.json").read_text())
    assert meta["model"]["lam"] == 2.7
    assert meta["model"]["rho"] == pytest.approx(0.3)


def test_out_dir_resolution_order(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("OFFLOADQ_OUT_DIR", str(env_dir))
    assert main(["solve", *FAST]) == 0
    assert (env_dir / "solution.npz").exists()
    assert main(["solve", *FAST, "--out-dir", str(flag_dir)]) == 0
    assert (flag_dir / "solution.npz").exists()


def test_grid_contract_and_byte_stability(tmp_path):
    space = build_state_space(3)
    acts = tabulate_policy(baseline("non_idling"), space)
    art = tmp_path / "sol.npz"
    from offloadq.kernel import DiscountSpec, uniformization_rate
    from offloadq.model import derive_rates
    from offloadq.solver import ValueTable

    params = derive_rates(2.7, 1.0, 8.0, 0.4)
    table = ValueTable(
        values=np.zeros(space.size),
        discount=DiscountSpec.from_alpha(uniformization_rate(params), 0.9),
    )
    save_checkpoint(str(art), table, PolicyTable(acts), params, n_max=3)
    out = tmp_path / "grid.csv"
    assert main(["grid", "--solution", str(art), "--i2", "0", "--i1", "0",
                 "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["grid", "--solution", str(art), "--i2", "0", "--i1", "0",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first

    lines = first.decode().split("\n")
    assert lines[0] == "n0,n2,action,also_sm2"
    assert lines[-1] == ""  # trailing newline
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert len(rows) == 3 * 4  # n0 in 1..3, n2 in 0..3: queue-empty rows excluded
    assert all(r[0] != "0" for r in rows)
    by_state = {(r[0], r[1]): (r[2], r[3]) for r in rows}
    assert by_state[("1", "0")] == ("1", "0")  # lone job: full offload
    assert by_state[("2", "0")] == ("1", "1")  # composite: offload plus split
    assert by_state[("1", "1")] == ("2", "0")  # cloud busy: split only


def test_grid_default_filename(tmp_path):
    sol = _solve_fast(tmp_path)
    assert main(["grid", "--solution", str(sol), "--i2", "1", "--i1", "0",
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "grid_i21_i10.csv").exists()


def test_analyze_pass_and_artifacts(tmp_path, capsys):
    sol = _solve_fast(tmp_path)
    capsys.readouterr()
    rc = main(["analyze", "--solution", str(sol), "--margin", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "structure.txt").read_text()
    assert "overall            : PASS" in text
    payload = json.loads((tmp_path / "structure.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["all_passed"] is True
    assert payload["margin"] == 2
    assert capsys.readouterr().out == text


def test_analyze_flags_planted_violation_with_exit_2(tmp_path, capsys):
    sol = _solve_fast(tmp_path)
    ck = load_checkpoint(str(sol))
    acts = ck.policy.actions.copy()
    space = ck.space()
    acts[space.id_of(1, 0, 0, 0)] = int(Action.IDLE)
    broken = tmp_path / "broken.npz"
    save_checkpoint(str(broken), ck.table, PolicyTable(acts), ck.params, ck.n_max)
    rc = main(["analyze", "--solution", str(broken), "--margin", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


def test_analyze_rejects_a_margin_that_leaves_no_interior(tmp_path, capsys):
    sol = _solve_fast(tmp_path / "solved")  # n_max 6: the widest margin is 4
    capsys.readouterr()
    rc = main(["analyze", "--solution", str(sol), "--margin", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: margin")
    assert not (tmp_path / "structure.json").exists()
    assert main(["analyze", "--solution", str(sol), "--margin", "4",
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "structure.json").exists()


def test_grid_and_analyze_reject_artifact_whose_cap_disagrees_with_its_table(
    tmp_path, capsys
):
    ck = load_checkpoint(str(_solve_fast(tmp_path)))  # tables for n_max 6
    wrong = tmp_path / "wrong_cap.npz"
    save_checkpoint(str(wrong), ck.table, ck.policy, ck.params, n_max=7)
    capsys.readouterr()
    for argv in (["grid", "--solution", str(wrong), "--i2", "0", "--i1", "0"],
                 ["analyze", "--solution", str(wrong)]):
        assert main([*argv, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: checkpoint values") and "queue cap 7" in err[0]


@pytest.mark.parametrize("code", [7, -1, 1.5, 2.9999, np.nan])
def test_artifact_with_unknown_action_code_rejected(tmp_path, capsys, code):
    sol = _solve_fast(tmp_path / "solved")
    with np.load(sol) as data:
        payload = dict(data)
    payload["policy"] = payload["policy"].astype(type(code))
    payload["policy"][build_state_space(6).id_of(6, 1, 1, 6)] = code
    bad = tmp_path / "bad_code.npz"
    np.savez(bad, **payload)
    out_dir = tmp_path / "out"
    capsys.readouterr()
    for argv in (["grid", "--solution", str(bad), "--i2", "1", "--i1", "1"],
                 ["analyze", "--solution", str(bad)],
                 ["simulate", *FAST, *SIM_FAST, "--policy", str(bad)]):
        assert main([*argv, "--out-dir", str(out_dir)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: policy table holds action code {code} ")
        assert not out_dir.exists()


def test_artifact_without_policy_table_rejected(tmp_path, capsys):
    with np.load(_solve_fast(tmp_path)) as data:
        payload = {k: data[k] for k in data.files if k != "policy"}
    bare = tmp_path / "values_only.npz"
    np.savez(bare, **payload)
    capsys.readouterr()
    for argv in (["grid", "--solution", str(bare), "--i2", "0", "--i1", "0"],
                 ["analyze", "--solution", str(bare)],
                 ["simulate", *FAST, *SIM_FAST, "--policy", str(bare)]):
        assert main([*argv, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: artifact {bare} lacks a stored policy table"]


@pytest.mark.parametrize(
    "fault", ["format_version", "nu", "lam", "n_max", "npy", "text", "truncated", "corrupt",
              "inadmissible"]
)
def test_malformed_artifact_rejected(tmp_path, capsys, fault):
    sol = _solve_fast(tmp_path / "solved")
    with np.load(sol) as data:
        payload = {k: data[k] for k in data.files if k != fault}
    bad = tmp_path / "malformed.npz"
    expected = f"error: artifact {bad} is not an npz archive"
    whole = bytearray(sol.read_bytes())
    if fault == "npy":  # a bare array
        with open(bad, "wb") as fh:
            np.save(fh, payload["values"])
    elif fault == "text":
        bad.write_text("lam,mu0,K,f\n3.6,1,8,0.4\n")
    elif fault == "truncated":  # the first half of a good archive
        bad.write_bytes(whole[: len(whole) // 2])
    elif fault == "corrupt":  # one byte of the stored values flipped: its checksum fails
        whole[whole.index(b"values.npy") + 200] ^= 0xFF
        bad.write_bytes(whole)
    elif fault == "inadmissible":  # full offload with nothing queued, or with the slot busy
        for state in ((3, 0, 1, 0), (0, 0, 0, 0)):
            payload["policy"][build_state_space(6).id_of(*state)] = int(Action.SM1)
        np.savez(bad, **payload)
        expected = ("error: policy prescribes inadmissible action <Action.SM1: 1> "
                    "in state (0, 0, 0, 0)")
    else:  # an archive that lacks one field
        np.savez(bad, **payload)
        expected = f"error: artifact {bad} lacks the field '{fault}'"
    out_dir = tmp_path / "out"
    capsys.readouterr()
    for argv in (["grid", "--solution", str(bad), "--i2", "0", "--i1", "0"],
                 ["analyze", "--solution", str(bad)],
                 ["simulate", *FAST, *SIM_FAST, "--policy", str(bad)],
                 ["couple", *FAST, *SIM_FAST, "--policy-a", str(bad), "--policy-b", "non_idling"]):
        assert main([*argv, "--out-dir", str(out_dir)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [expected]
        assert not out_dir.exists()


def test_simulate_writes_report(tmp_path, capsys):
    rc = main(["simulate", *FAST, *SIM_FAST, "--policy", "offload_only",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "simulation.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["policy"] == "offload_only"
    rep = payload["report"]
    assert rep["replications"] == 3
    assert rep["mean_sojourn"] > 0
    assert rep["ci_halfwidth"] >= 0
    assert "mean sojourn" in capsys.readouterr().out


def test_simulate_solution_artifact_as_policy(tmp_path):
    sol = _solve_fast(tmp_path)
    rc = main(["simulate", *FAST, *SIM_FAST, "--policy", str(sol),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "simulation.json").read_text())
    assert payload["report"]["jobs_completed"] > 0


def test_simulate_rejects_artifact_solved_for_other_rates(tmp_path, capsys):
    sol = _solve_fast(tmp_path)
    other = [a if a != "0.3" else "0.5" for a in FAST]
    rc = main(["simulate", *other, *SIM_FAST, "--policy", str(sol),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "solved for" in capsys.readouterr().err
    assert not (tmp_path / "simulation.json").exists()


def test_saturated_table_warns_on_stderr(tmp_path, capsys):
    heavy = [a if a != "0.3" else "0.9" for a in FAST]
    heavy[heavy.index("--n-max") + 1] = "3"
    assert main(["solve", *heavy, "--out-dir", str(tmp_path)]) == 0
    sol = str(tmp_path / "solution.npz")
    capsys.readouterr()

    rc = main(["simulate", *heavy, *SIM_FAST, "--policy", sol, "--out-dir", str(tmp_path)])
    assert rc == 0
    count = json.loads((tmp_path / "simulation.json").read_text())["report"][
        "saturation_events"]
    assert count > 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("warning: policy ")
    assert sol in err and f" {count} saturation events" in err

    rc = main(["couple", *heavy, *SIM_FAST, "--policy-a", "non_idling",
               "--policy-b", sol, "--out-dir", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and sol in err and "non_idling" not in err

    # both sides run the same table object, and each counts only its own
    rc = main(["couple", *heavy, *SIM_FAST, "--policy-a", sol, "--policy-b", sol,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(f"{sol}: {count} saturation events" in e for e in err)

    rc = main(["sweep", *heavy[2:], *SIM_FAST, "--rhos", "0.9",
               "--policies", "optimal,non_idling", "--out-dir", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "warning: policy optimal at rho=0.9" in err

    # a table whose cap the run never exceeds stays silent
    quiet = _solve_fast(tmp_path / "quiet")
    rc = main(["simulate", *FAST, *SIM_FAST, "--policy", str(quiet),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "simulation.json").read_text())["report"][
        "saturation_events"] == 0
    assert capsys.readouterr().err == ""


def test_simulate_unknown_policy(tmp_path, capsys):
    rc = main(["simulate", *FAST, *SIM_FAST, "--policy", "bogus",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "unknown policy" in capsys.readouterr().err


def test_sweep_marks_unstable_rows(tmp_path, capsys):
    rc = main([
        "sweep", "--mu0", "1", "--K", "8", "--f", "0.4",
        "--n-max", "6", "--alpha", "0.9", "--tol", "1e-7",
        *SIM_FAST,
        "--rhos", "0.2,0.95",
        "--policies", "offload_only,non_idling",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "sweep.csv").read_text().split("\n")
    assert lines[0] == "rho,policy,mean_delay,ci_halfwidth,avg_jobs,status"
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert len(rows) == 4
    # rho = 0.95 exceeds the full-offload server alone: lam = 8.55 > mu_c1 = 8
    unstable = [r for r in rows if r[5] == "unstable"]
    assert [(r[0], r[1]) for r in unstable] == [("0.95", "offload_only")]
    assert unstable[0][2:5] == ["", "", ""]
    ok = [r for r in rows if r[5] == "ok"]
    assert len(ok) == 3
    assert all(float(r[2]) > 0 for r in ok)


def test_sweep_resolves_optimal_per_rho(tmp_path, capsys):
    rc = main([
        "sweep", "--mu0", "1", "--K", "8", "--f", "0.4",
        "--n-max", "6", "--alpha", "0.9", "--tol", "1e-7",
        *SIM_FAST,
        "--rhos", "0.2,0.4",
        "--policies", "optimal",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    capsys.readouterr()
    rows = [ln.split(",") for ln in (tmp_path / "sweep.csv").read_text().split("\n")[1:-1]]
    assert [r[0] for r in rows] == ["0.2", "0.4"]
    assert all(r[5] == "ok" for r in rows)


def test_sweep_rejects_unknown_policy_before_any_work(tmp_path, capsys):
    rc = main(["sweep", *FAST[2:], *SIM_FAST, "--rhos", "0.2,0.4",
               "--policies", "optimal,bogus", "--out-dir", str(tmp_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "unknown baseline 'bogus'" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_requires_discount_only_for_optimal(tmp_path, capsys):
    base = ["sweep", "--mu0", "1", "--K", "8", "--f", "0.4", "--n-max", "6",
            *SIM_FAST, "--rhos", "0.2", "--out-dir", str(tmp_path)]
    assert main([*base, "--policies", "optimal"]) == 1
    assert "alpha or beta" in capsys.readouterr().err
    assert main([*base, "--policies", "offload_only"]) == 0


def test_couple_reports_paired_difference(tmp_path, capsys):
    rc = main([
        "couple", *FAST, *SIM_FAST,
        "--policy-a", "non_idling", "--policy-b", "offload_only",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "couple.json").read_text())
    assert payload["schema_version"] == 1
    rep = payload["report"]
    assert rep["policy_a"]["replications"] == 3
    assert 0.0 <= rep["dominance_fraction"] <= 1.0
    assert "dominance fraction" in capsys.readouterr().out


def test_couple_same_policy_is_exactly_zero(tmp_path, capsys):
    rc = main([
        "couple", *FAST, *SIM_FAST,
        "--policy-a", "offload_only", "--policy-b", "offload_only",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "couple.json").read_text())
    assert payload["report"]["diff_mean"] == 0.0
    assert payload["report"]["dominance_fraction"] == 1.0
