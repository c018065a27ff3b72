"""Policy and value iteration, greedy extraction, and policy-evaluation oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from offloadq.kernel import DiscountSpec, build_kernel, build_state_space, uniformization_rate
from offloadq.model import Action, derive_rates, lambda_from_utilization
from offloadq.solver import (
    PolicyTable,
    ValueTable,
    bellman_backup,
    evaluate_policy,
    load_checkpoint,
    policy_iterate,
    q_table,
    save_checkpoint,
    value_iterate,
)
from offloadq.structure import run_structure_checks
from scalar_model import State, admissible_actions

CONFIG_A = derive_rates(3.6, 1.0, 8.0, 0.4)
CONFIG_B = derive_rates(7.2, 1.0, 8.0, 0.4)
# the reference configurations a-d: (rho, f, K) with mu0 = 1
REFERENCE = {
    "a": (0.4, 0.4, 8),
    "b": (0.8, 0.4, 8),
    "c": (0.4, 0.8, 8),
    "d": (0.4, 0.4, 15),
}


def _kernel(p=CONFIG_A, n_max=3, alpha=0.9):
    space = build_state_space(n_max)
    d = DiscountSpec.from_alpha(uniformization_rate(p), alpha)
    return build_kernel(p, space, d)


def _random_admissible_policy(kernel, rng):
    actions = np.zeros(kernel.space.size, dtype=np.int8)
    for sid in range(kernel.space.size):
        s = State(*kernel.space.state_of(sid))
        actions[sid] = int(rng.choice(admissible_actions(s)))
    return PolicyTable(actions)


def _assert_admissible(kernel, policy):
    assert kernel.admissible[policy.actions, np.arange(kernel.space.size)].all()


def test_backup_of_zero_table():
    k = _kernel()
    table, greedy = bellman_backup(k, np.zeros(k.space.size))
    scale = k.discount.beta + k.discount.nu
    sid = k.space.id_of(1, 0, 0, 0)
    # assignments conserve jobs, so every action costs one holding unit
    assert table.values[sid] == pytest.approx(1.0 / scale, rel=1e-13)
    assert table.values[k.space.id_of(0, 0, 0, 0)] == 0.0
    assert Action(int(greedy.actions[sid])) is Action.SM1


def test_backup_tie_breaking_prefers_composite():
    k = _kernel()
    _, greedy = bellman_backup(k, np.zeros(k.space.size))
    # with a flat table all actions cost the same; ties resolve toward
    # assigning two jobs, then full offload, then split, then idling
    assert Action(int(greedy.actions[k.space.id_of(2, 0, 0, 0)])) is Action.SM1_THEN_SM2
    assert Action(int(greedy.actions[k.space.id_of(2, 1, 0, 0)])) is Action.SM1
    assert Action(int(greedy.actions[k.space.id_of(2, 0, 1, 0)])) is Action.SM2
    assert Action(int(greedy.actions[k.space.id_of(0, 0, 0, 2)])) is Action.IDLE


def test_backup_rejects_wrong_shape():
    k = _kernel()
    with pytest.raises(ValueError, match="shape"):
        bellman_backup(k, np.zeros(k.space.size + 1))


def test_contraction_property():
    k = _kernel(n_max=5, alpha=0.95)
    rng = np.random.default_rng(20240818)
    for _ in range(25):
        u = rng.uniform(0.0, 100.0, size=k.space.size)
        w = rng.uniform(0.0, 100.0, size=k.space.size)
        tu, _ = bellman_backup(k, u)
        tw, _ = bellman_backup(k, w)
        lhs = np.max(np.abs(tu.values - tw.values))
        rhs = k.discount.alpha * np.max(np.abs(u - w))
        assert lhs <= rhs + 1e-12


def test_monotone_iterates_from_zero():
    k = _kernel(n_max=4, alpha=0.95)
    values = np.zeros(k.space.size)
    for _ in range(200):
        table, _ = bellman_backup(k, values)
        assert np.all(table.values >= values - 1e-12)
        values = table.values
    assert np.all(values >= 0.0)
    assert np.all(np.isfinite(values))


def test_value_iterate_converges_geometrically():
    k = _kernel(n_max=2, alpha=0.5)
    table, policy = value_iterate(k, tol=1e-9)
    assert table.converged
    assert table.iterations < 60
    assert table.residual <= 1e-9
    assert table.error_bound <= 1e-9
    # greedy actions admissible everywhere
    _assert_admissible(k, policy)


def test_value_iterate_zero_budget():
    k = _kernel()
    table, _ = value_iterate(k, tol=1e-9, max_iters=0)
    assert not table.converged
    assert table.iterations == 0
    assert np.all(table.values == 0.0)


def test_value_iterate_reports_non_convergence():
    k = _kernel(alpha=0.999)
    table, _ = value_iterate(k, tol=1e-12, max_iters=5)
    assert not table.converged
    assert table.iterations == 5
    assert np.isfinite(table.error_bound)


def test_value_iterate_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="positive"):
        value_iterate(_kernel(), tol=0.0)


def test_checkpoint_stores_policy(tmp_path):
    k = _kernel(n_max=2, alpha=0.5)
    path = str(tmp_path / "sol.npz")
    for solve in (value_iterate, policy_iterate):
        table, policy = solve(k, tol=1e-9)
        save_checkpoint(path, table, policy, k.params, k.space.n_max)
        loaded = load_checkpoint(path)
        assert loaded.table.converged
        # every field of the artifact comes back unchanged
        assert np.array_equal(loaded.table.values, table.values)
        assert loaded.table.values.dtype == table.values.dtype
        for name in ("iterations", "residual", "converged", "tol", "method", "discount"):
            assert getattr(loaded.table, name) == getattr(table, name), name
        assert np.array_equal(loaded.policy.actions, policy.actions)
        assert loaded.policy.actions.dtype == policy.actions.dtype
        assert loaded.params == k.params
        assert loaded.n_max == k.space.n_max


def test_evaluate_policy_oracle_agreement():
    k = _kernel(n_max=3, alpha=0.9)
    rng = np.random.default_rng(7)
    for _ in range(5):
        pi = _random_admissible_policy(k, rng)
        direct = evaluate_policy(k, pi, method="direct")
        iterative = evaluate_policy(k, pi, method="iterative", tol=1e-13)
        assert np.max(np.abs(direct.values - iterative.values)) <= 1e-8


def _greedy_of_zero(kernel):
    _, greedy = bellman_backup(kernel, np.zeros(kernel.space.size))
    return greedy


def test_direct_evaluation_on_post_decision_states_matches_the_full_system():
    k = _kernel(CONFIG_B, n_max=6, alpha=0.999)
    n = k.space.size
    sids = np.arange(n)
    rng = np.random.default_rng(11)
    policies = [_random_admissible_policy(k, rng) for _ in range(3)]
    policies += [PolicyTable(np.zeros(n, dtype=np.int8)), _greedy_of_zero(k)]
    reached = []
    for pi in policies:
        p_pi = k.probs[pi.actions.astype(np.int64) * n + sids]
        c_pi = k.costs[pi.actions, sids]
        full = spla.spsolve((sp.eye(n, format="csr") - k.discount.alpha * p_pi).tocsc(), c_pi)
        reduced = evaluate_policy(k, pi, method="direct").values
        assert np.max(np.abs(reduced - full)) <= 1e-10 * np.max(np.abs(full))
        reached.append(np.unique(k.post[pi.actions, sids]).size)
    assert reached[3] == n  # idling everywhere reaches every state
    assert max(reached[:3] + reached[4:]) < n


def test_factored_q_table_equals_the_stacked_kernel():
    k = _kernel(CONFIG_B, n_max=6, alpha=0.999)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.uniform(0.0, 100.0, size=k.space.size)
        stacked = k.costs + k.discount.alpha * (k.probs @ v).reshape(k.costs.shape)
        assert q_table(k, v).tobytes() == stacked.tobytes()


def _stacked_loop(step, n, tol):
    """Reference residual loop: sweeps, values and residual at the first sweep within tol."""
    values = np.zeros(n)
    sweeps = 0
    while True:
        v_new = step(values)
        sweeps += 1
        residual = float(np.max(np.abs(v_new - values)))
        values = v_new
        if residual <= tol:
            return values, sweeps, residual


def test_value_iterate_equals_the_stacked_kernel_loop():
    k = _kernel(CONFIG_B, n_max=8, alpha=0.99)
    alpha = k.discount.alpha
    values, sweeps, residual = _stacked_loop(
        lambda v: (k.costs + alpha * (k.probs @ v).reshape(k.costs.shape)).min(axis=0),
        k.space.size, 1e-9,
    )
    table, _ = value_iterate(k, tol=1e-9)
    assert table.converged
    assert (table.iterations, table.residual) == (sweeps, residual)
    assert table.values.tobytes() == values.tobytes()


def test_iterative_evaluation_equals_the_stacked_kernel_loop():
    k = _kernel(CONFIG_B, n_max=8, alpha=0.99)
    n = k.space.size
    sids = np.arange(n)
    pi = _random_admissible_policy(k, np.random.default_rng(3))
    p_pi = k.probs[pi.actions.astype(np.int64) * n + sids]
    c_pi = k.costs[pi.actions, sids]
    values, sweeps, residual = _stacked_loop(
        lambda v: c_pi + k.discount.alpha * (p_pi @ v), n, 1e-13
    )
    table = evaluate_policy(k, pi, method="iterative", tol=1e-13)
    assert table.converged
    assert (table.iterations, table.residual) == (sweeps, residual)
    assert table.values.tobytes() == values.tobytes()


def test_evaluate_policy_matches_vi_fixed_point():
    k = _kernel(n_max=3, alpha=0.9)
    tol = 1e-12
    table, policy = value_iterate(k, tol=tol)
    direct = evaluate_policy(k, policy, method="direct")
    assert np.max(np.abs(direct.values - table.values)) <= 10.0 * tol


def test_evaluate_policy_rejects_inadmissible():
    k = _kernel()
    actions = np.zeros(k.space.size, dtype=np.int8)
    actions[k.space.id_of(0, 0, 0, 0)] = int(Action.SM1)
    # the table itself refuses, so no solver can be handed one
    with pytest.raises(ValueError, match="inadmissible"):
        evaluate_policy(k, PolicyTable(actions))


def test_solvers_reject_a_table_of_another_cap():
    k = _kernel(n_max=3)
    other = _random_admissible_policy(_kernel(n_max=4), np.random.default_rng(2))
    for solve in (lambda: evaluate_policy(k, other, method="direct"),
                  lambda: evaluate_policy(k, other, method="iterative"),
                  lambda: policy_iterate(k, pi0=other)):
        with pytest.raises(ValueError, match="policy table has cap 4, kernel has cap 3"):
            solve()


def test_evaluate_policy_direct_size_limit():
    k = _kernel(n_max=3)
    with pytest.raises(ValueError, match="refused"):
        evaluate_policy(k, _random_admissible_policy(k, np.random.default_rng(1)),
                        method="direct", direct_size_limit=10)


def test_positive_arrivals_give_positive_empty_state_value():
    k = _kernel(n_max=3, alpha=0.9)
    table, _ = value_iterate(k, tol=1e-12)
    assert table.values[k.space.id_of(0, 0, 0, 0)] > 0.0


@pytest.mark.parametrize("p", [CONFIG_A, CONFIG_B], ids=["rho0.4", "rho0.8"])
def test_policy_iterate_values_are_the_exact_evaluation(p):
    k = _kernel(p, n_max=10, alpha=0.99)
    table, policy = policy_iterate(k, tol=1e-9)
    assert table.converged
    assert table.residual <= 1e-9
    exact = evaluate_policy(k, policy, method="direct")
    assert np.max(np.abs(exact.values - table.values)) <= 1e-9


@pytest.mark.parametrize("p", [CONFIG_A, CONFIG_B], ids=["rho0.4", "rho0.8"])
def test_policy_iterate_agrees_with_vi_above_its_decision_floor(p):
    k = _kernel(p, n_max=10, alpha=0.99)
    vi_table, vi_policy = value_iterate(k, tol=1e-10)
    _, pi_policy = policy_iterate(k, tol=1e-9)
    floor = run_structure_checks(vi_policy, k.space, values=vi_table, kernel=k).decision_floor
    q = np.sort(q_table(k, vi_table.values), axis=0)
    decided = q[1] - q[0] > floor  # inadmissible rows are +inf, so lone actions count
    assert decided.sum() > k.space.size // 2
    assert np.array_equal(pi_policy.actions[decided], vi_policy.actions[decided])


def test_policy_iterate_warm_start_from_optimum_takes_one_step():
    k = _kernel(CONFIG_B, n_max=8, alpha=0.99)
    cold, policy = policy_iterate(k, tol=1e-9)
    assert cold.iterations > 1
    warm, again = policy_iterate(k, tol=1e-9, pi0=policy)
    assert warm.converged
    assert warm.iterations == 1
    assert np.array_equal(again.actions, policy.actions)


def test_policy_iterate_step_budget_reports_non_convergence():
    k = _kernel(CONFIG_B, n_max=8, alpha=0.99)
    table, policy = policy_iterate(k, tol=1e-9, max_iters=1)
    assert not table.converged
    assert table.iterations == 1
    assert np.isfinite(table.error_bound)
    _assert_admissible(k, policy)


def test_policy_iterate_values_fall_with_each_step():
    k = _kernel(CONFIG_B, n_max=20, alpha=0.999)
    previous = None
    for budget in range(1, 6):
        table, policy = policy_iterate(k, tol=1e-9, max_iters=budget)
        _assert_admissible(k, policy)
        if previous is not None:
            assert np.all(table.values <= previous + 1e-9 * np.abs(previous))
        previous = table.values


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_policy_iterate_step_count_on_reference_configs(name):
    rho, f, K = REFERENCE[name]
    p = derive_rates(lambda_from_utilization(rho, 1.0, K), 1.0, K, f)
    k = _kernel(p, n_max=20, alpha=0.999)
    table, _ = policy_iterate(k, tol=1e-9)
    # one-step (Howard) improvement needs 16-20 steps here
    assert table.converged
    assert table.iterations <= 5
    vi_table, _ = value_iterate(k, tol=1e-9)
    bound = vi_table.error_bound + table.error_bound
    assert np.max(np.abs(table.values - vi_table.values)) <= bound
