"""Policy and value iteration, greedy extraction, and policy-evaluation oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadq import solver
from offloadq.kernel import (
    DiscountSpec,
    build_kernel,
    build_state_space,
    uniformization_rate,
)
from offloadq.model import Action, derive_rates, from_heterogeneous, lambda_from_utilization
from offloadq.solver import (
    LOOKAHEAD,
    PolicyTable,
    ValueTable,
    _bellman,
    _reached,
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
# rates given per service mode: mu_c1 = 4, mu_l2 = 1.5, mu_c2 = 10
HETEROGENEOUS = derive_rates(5.0, *from_heterogeneous(4.0, 1.5, 10.0))
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


def _reference_kernel(name, n_max, rho=None):
    ref_rho, f, K = REFERENCE[name]
    rho = ref_rho if rho is None else rho
    p = derive_rates(lambda_from_utilization(rho, 1.0, K), 1.0, K, f)
    return _kernel(p, n_max=n_max, alpha=0.999)


def _random_admissible_policy(kernel, rng):
    actions = np.zeros(kernel.space.size, dtype=np.int8)
    for sid in range(kernel.space.size):
        s = State(*kernel.space.state_of(sid))
        actions[sid] = int(rng.choice(admissible_actions(s)))
    return PolicyTable(actions)


def _assert_admissible(kernel, policy):
    assert kernel.admissible[policy.actions, np.arange(kernel.space.size)].all()


def _count_sweeps(monkeypatch):
    """Wrap ``solver._bellman`` so that each Bellman sweep appends to the returned list."""
    calls = []

    def counted(kernel, values):
        calls.append(1)
        return _bellman(kernel, values)

    monkeypatch.setattr(solver, "_bellman", counted)
    return calls


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


@pytest.mark.parametrize("method", ["iterative", "direct"])
@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
def test_evaluate_policy_rejects_bad_tolerance(method, tol):
    # an iterative evaluation would otherwise sweep to its 10,000,000-sweep cap
    k = _kernel(n_max=1)
    pi = PolicyTable(np.zeros(k.space.size, dtype=np.int8))
    with pytest.raises(ValueError, match="tolerance must be positive"):
        evaluate_policy(k, pi, method=method, tol=tol)


@pytest.mark.parametrize("n_max", [1, 3])
def test_save_checkpoint_refuses_tables_of_another_cap(tmp_path, n_max):
    # a cap-2 solve saved under another cap would be refused on loading,
    # so nothing is written
    k = _kernel(n_max=2, alpha=0.5)
    table, policy = policy_iterate(k, tol=1e-9)
    path = tmp_path / "sol.npz"
    refused = rf"checkpoint values has shape \(36,\), but its queue cap {n_max} "
    with pytest.raises(ValueError, match=refused):
        save_checkpoint(str(path), table, policy, k.params, n_max)
    assert not path.exists()
    other = PolicyTable(np.zeros(4 * (n_max + 1) ** 2, dtype=np.int8))
    with pytest.raises(ValueError, match=r"checkpoint policy has shape .* but its queue cap 2"):
        save_checkpoint(str(path), table, other, k.params, 2)
    assert not path.exists()


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
    # the last two cases: discount 0.99999, and rates given per service mode
    cases = [(CONFIG_B, 6, 0.999), (CONFIG_B, 20, 0.99999), (HETEROGENEOUS, 20, 0.999)]
    for p, n_max, alpha in cases:
        k = _kernel(p, n_max=n_max, alpha=alpha)
        n = k.space.size
        sids = np.arange(n)
        rng = np.random.default_rng(11)
        policies = [_random_admissible_policy(k, rng) for _ in range(3)]
        policies += [PolicyTable(np.zeros(n, dtype=np.int8)), _greedy_of_zero(k)]
        reached = []
        for pi in policies:
            p_pi = k.probs[pi.actions.astype(np.int64) * n + sids]
            c_pi = k.costs[pi.actions, sids]
            system = (sp.eye(n, format="csr") - k.discount.alpha * p_pi).tocsc()
            full = spla.spsolve(system, c_pi)
            reduced = evaluate_policy(k, pi, method="direct").values
            assert np.max(np.abs(reduced - full)) <= 1e-10 * np.max(np.abs(full))
            reached.append(np.unique(k.post[pi.actions, sids]).size)
        assert reached[3] == n  # idling everywhere reaches every state
        assert max(reached[:3] + reached[4:]) < n


def _reference_system(events, post_pi, alpha):
    """``(X, col, I - alpha * E[X] R_pi)`` as the direct evaluation builds it, written out.

    ``X`` holds the post-decision states the policy reaches and ``col``
    each state's index in ``X``.
    """
    x, col = np.unique(post_pi, return_inverse=True)
    e_x = events[x]
    e_r = sp.csr_matrix((e_x.data, col[e_x.indices], e_x.indptr), shape=(x.size, x.size))
    e_r.sum_duplicates()
    return x, col, sp.eye(x.size, format="csr") - alpha * e_r


def _row_dominance_margins(events, post_pi, alpha):
    """|diagonal| minus the off-diagonal absolute sum, per row of the reduced system."""
    system = _reference_system(events, post_pi, alpha)[2].tocsr()
    diag = np.abs(system.diagonal())
    return diag - (np.asarray(abs(system).sum(axis=1)).ravel() - diag)


@settings(max_examples=60, deadline=None)
@given(
    rates=st.one_of(
        st.tuples(st.just("rho, K, f"), st.floats(0.0, 1.5), st.floats(1.5, 20.0),
                  st.floats(0.0, 1.0)),
        st.tuples(st.just("heterogeneous"), st.floats(0.0, 1.5), st.floats(0.2, 1.0),
                  st.floats(1.01, 10.0)),
    ),
    alpha=st.one_of(st.just(0.99999), st.floats(0.5, 0.99999)),
    n_max=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduced_system_is_diagonally_dominant_by_one_minus_alpha(rates, alpha, n_max, seed):
    # each row of E is a probability vector, so each row of the reduced
    # system beats its off-diagonal sum by exactly 1 - alpha: this is what
    # lets the direct evaluation's LU pivot on the diagonal
    family, rho, a, b = rates
    if family == "heterogeneous":  # a scales mu_l2 < mu_c1 = 1 < mu_c2 = b
        mu0, K, f = from_heterogeneous(1.0, a * 0.99, b)
    else:  # a is K, and b places f in (1/K, 1)
        mu0, K = 1.0, a
        f = 1.0 / K + (1.0 - 1.0 / K) * (0.01 + 0.98 * b)
    p = derive_rates(lambda_from_utilization(rho, mu0, K), mu0, K, f)
    k = _kernel(p, n_max=n_max, alpha=alpha)
    pi = _random_admissible_policy(k, np.random.default_rng(seed))
    post_pi = k.post[pi.actions, np.arange(k.space.size)]
    margins = _row_dominance_margins(k.events, post_pi, k.discount.alpha)
    one_minus_alpha = 1.0 - k.discount.alpha
    assert np.allclose(margins, one_minus_alpha, rtol=0.0, atol=1e-13)
    # a planted row that sums to more than one breaks the equality
    planted = k.events.copy()
    lo, hi = planted.indptr[post_pi[0]], planted.indptr[post_pi[0] + 1]
    planted.data[lo + np.argmax(planted.data[lo:hi])] *= 1.0 + 1e-6
    margins = _row_dominance_margins(planted, post_pi, k.discount.alpha)
    assert not np.allclose(margins, one_minus_alpha, rtol=0.0, atol=1e-13)


# the state grid's slices against the post-action map's gather; at cap 1 no
# state admits the composite move, so its slices of the grid are empty
VIEW_CAPS = (1, 2, 3, 6, 12)
VIEW_RATES = pytest.mark.parametrize("p", [CONFIG_B, HETEROGENEOUS], ids=["b", "heterogeneous"])


@VIEW_RATES
@pytest.mark.parametrize("n_max", VIEW_CAPS)
def test_strided_bellman_step_and_q_table_equal_the_post_map_gather(p, n_max):
    k = _kernel(p, n_max=n_max, alpha=0.999)
    n = k.space.size
    assert k.admissible[int(Action.SM1_THEN_SM2)].any() == (n_max >= 2)
    rng = np.random.default_rng(n_max)
    # random values, a constant table (ties wherever two states hold as
    # many jobs), and values at the 1e12 scale
    for v in (rng.uniform(0.0, 100.0, n), np.full(n, 7.0), rng.uniform(0.0, 1e12, n)):
        w = k.cost0 + k.discount.alpha * (k.events @ v)
        gathered = np.where(k.admissible, w[k.post], np.inf)
        q = q_table(k, v)
        assert q.tobytes() == gathered.tobytes()
        assert _bellman(k, v).tobytes() == q.min(axis=0).tobytes()


@VIEW_RATES
@pytest.mark.parametrize("n_max", VIEW_CAPS)
def test_reached_post_decision_states_equal_np_unique(p, n_max):
    k = _kernel(p, n_max=n_max)
    n = k.space.size
    rng = np.random.default_rng(100 + n_max)
    policies = [_random_admissible_policy(k, rng) for _ in range(5)]
    policies += [PolicyTable(np.zeros(n, dtype=np.int8)), _greedy_of_zero(k)]
    for pi in policies:
        post_pi = k.post[pi.actions, np.arange(n)]
        x, col = _reached(post_pi)
        unique_x, unique_col = np.unique(post_pi, return_inverse=True)
        assert (x.dtype, col.dtype) == (unique_x.dtype, unique_col.dtype)
        assert x.tobytes() == unique_x.tobytes()
        assert col.tobytes() == unique_col.tobytes()


def _reference_direct_values(k, actions):
    """The direct evaluation written out: the reference system, factored and solved."""
    post_pi = k.post[actions, np.arange(k.space.size)]
    x, col, system = _reference_system(k.events, post_pi, k.discount.alpha)
    lu = spla.splu(system.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   panel_size=1, options={"SymmetricMode": True})
    return lu.solve(k.cost0[x])[col]


def _chain_policies(k, seed):
    """Random admissible policies, the myopic start and the optimum of ``k``."""
    rng = np.random.default_rng(seed)
    policies = [_random_admissible_policy(k, rng) for _ in range(3)]
    return policies + [_greedy_of_zero(k), policy_iterate(k, tol=1e-9)[1]]


@pytest.mark.parametrize("n_max", [12, 40])
def test_direct_evaluation_equals_the_written_out_construction(n_max):
    k = _kernel(CONFIG_B, n_max=n_max, alpha=0.999)
    for pi in _chain_policies(k, n_max):
        got = solver._evaluate_direct(k, pi.actions)
        assert got.tobytes() == _reference_direct_values(k, pi.actions).tobytes()


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_direct_evaluation_has_a_small_backward_error(name):
    # whatever the LU's settings, the values it returns solve the reduced
    # system to working precision: 4.5e-16 to 9.5e-16 relative here
    k = _reference_kernel(name, n_max=40)
    for pi in (_greedy_of_zero(k), policy_iterate(k, tol=1e-9)[1]):
        x, col, p_x = solver._chain(k, pi.actions)
        u = np.empty(x.size)
        u[col] = solver._evaluate_direct(k, pi.actions)
        residual = u - k.discount.alpha * (p_x @ u) - k.cost0[x]
        assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(u))


@VIEW_RATES
@pytest.mark.parametrize("n_max", [3, 12])
def test_post_decision_chain_is_row_stochastic_and_moves_values_as_the_events_do(p, n_max):
    k = _kernel(p, n_max=n_max, alpha=0.999)
    n = k.space.size
    rng = np.random.default_rng(200 + n_max)
    for pi in _chain_policies(k, n_max):
        x, col, p_x = solver._chain(k, pi.actions)
        unique_x, unique_col = np.unique(k.post[pi.actions, np.arange(n)], return_inverse=True)
        assert x.tobytes() == unique_x.tobytes() and col.tobytes() == unique_col.tobytes()
        assert p_x.format == "csr" and p_x.shape == (x.size, x.size)
        assert p_x.has_canonical_format and (p_x.data > 0.0).all()
        assert np.allclose(p_x.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
        for u in (rng.uniform(0.0, 1.0, x.size), rng.uniform(0.0, 1e12, x.size)):
            np.testing.assert_allclose(p_x @ u, (k.events @ u[col])[x], rtol=1e-14, atol=0.0)


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


@VIEW_RATES
def test_value_iterate_equals_the_stacked_kernel_loop(p):
    k = _kernel(p, n_max=12, alpha=0.99)
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
                  lambda: evaluate_policy(k, other, method="iterative")):
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


def test_policy_iterate_step_budget_reports_non_convergence(monkeypatch):
    k = _kernel(CONFIG_B, n_max=8, alpha=0.99)
    calls = _count_sweeps(monkeypatch)
    table, policy = policy_iterate(k, tol=1e-9, max_iters=1)
    assert calls == []  # no lookahead runs once the budget is spent
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
    k = _reference_kernel(name, n_max=20)
    table, _ = policy_iterate(k, tol=1e-9)
    # one-step (Howard) improvement needs 16-20 steps here
    assert table.converged
    assert table.iterations <= 5
    vi_table, _ = value_iterate(k, tol=1e-9)
    bound = vi_table.error_bound + table.error_bound
    assert np.max(np.abs(table.values - vi_table.values)) <= bound


@pytest.mark.parametrize("n_max", [20, 30])
@pytest.mark.parametrize("name", [*sorted(REFERENCE), "heterogeneous"])
def test_long_first_lookahead_changes_only_the_route(monkeypatch, name, n_max):
    if name == "heterogeneous":
        k = _kernel(HETEROGENEOUS, n_max=n_max, alpha=0.999)
    else:
        k = _reference_kernel(name, n_max)
    table, policy = policy_iterate(k, tol=1e-9)
    monkeypatch.setattr(solver, "COLD_SWEEPS_PER_LEVEL", 0)  # LOOKAHEAD on every step
    short, short_policy = policy_iterate(k, tol=1e-9)
    assert table.converged and short.converged
    assert table.iterations <= short.iterations
    # bit for bit: both routes end by evaluating the same policy the same way
    assert table.values.tobytes() == short.values.tobytes()
    assert table.residual == short.residual
    assert policy.actions.tobytes() == short_policy.actions.tobytes()


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_configs_converge_cold_in_two_evaluations(name):
    table, _ = policy_iterate(_reference_kernel(name, n_max=60), tol=1e-9)
    assert table.converged
    assert table.iterations == 2


def test_only_the_first_improvement_looks_ahead_across_the_cap(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    table, _ = policy_iterate(_reference_kernel("b", n_max=60, rho=0.7), tol=1e-9)
    assert table.converged and table.iterations > 1
    long_first = solver.COLD_SWEEPS_PER_LEVEL * 60
    assert long_first > LOOKAHEAD
    assert len(calls) == long_first - 2 + (LOOKAHEAD - 2) * (table.iterations - 2)
