"""Parameter derivation, transition operators, and action admissibility."""

import math
import random

import pytest

from offloadq.model import Action, derive_rates, from_heterogeneous, lambda_from_utilization
from scalar_model import (
    Op,
    State,
    admissible_actions,
    apply_action,
    apply_operator,
    total_jobs,
)


def test_derived_rates_reference_point():
    p = derive_rates(3.6, 1.0, 8.0, 0.4)
    assert p.mu_c1 == pytest.approx(8.0, rel=1e-15)
    assert p.mu_l2 == pytest.approx(2.5, rel=1e-15)
    assert p.mu_c2 == pytest.approx(40.0 / 3.0, rel=1e-15)
    assert p.utilization == pytest.approx(0.4, rel=1e-15)


def test_derived_rates_second_point():
    p = derive_rates(6.6, 1.0, 10.0, 0.6)
    assert p.mu_c1 == pytest.approx(10.0, rel=1e-15)
    assert p.mu_l2 == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert p.mu_c2 == pytest.approx(25.0, rel=1e-15)


def test_parameter_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        derive_rates(-1.0, 1.0, 8.0, 0.4)
    with pytest.raises(ValueError, match="positive"):
        derive_rates(1.0, 0.0, 8.0, 0.4)
    with pytest.raises(ValueError, match="exceed 1"):
        derive_rates(1.0, 1.0, 1.0, 0.4)
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        derive_rates(1.0, 1.0, 8.0, 1.0)
    # local fraction at or below 1/K puts the local stage ahead of the cloud
    with pytest.raises(ValueError, match="slow-local"):
        derive_rates(1.0, 1.0, 8.0, 0.125)
    with pytest.raises(ValueError, match="slow-local"):
        derive_rates(1.0, 1.0, 8.0, 0.1)


@pytest.mark.parametrize("field", ["lam", "mu0", "K"])
def test_infinite_rates_rejected_by_name(field):
    # at lam = inf every arrival gap is 0.0, so a simulation would never end
    rates = {"lam": 1.0, "mu0": 1.0, "K": 8.0, "f": 0.4, field: math.inf}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
        derive_rates(**rates)


def test_infinite_utilization_and_service_rates_rejected():
    with pytest.raises(ValueError, match="^utilization must be finite, got inf$"):
        lambda_from_utilization(math.inf, 1.0, 8.0)
    for i, name in enumerate(("mu_c1", "mu_l2", "mu_c2")):
        rates = [8.0, 2.5, 40.0 / 3.0]
        rates[i] = math.inf
        with pytest.raises(ValueError, match=f"^service rate {name} must be positive and finite"):
            from_heterogeneous(*rates)


def test_from_heterogeneous_reference_points():
    mu0, K, f = from_heterogeneous(8.0, 2.5, 40.0 / 3.0)
    assert mu0 == pytest.approx(1.0, rel=1e-12)
    assert K == pytest.approx(8.0, rel=1e-12)
    assert f == pytest.approx(0.4, rel=1e-12)

    mu0, K, f = from_heterogeneous(10.0, 5.0 / 3.0, 25.0)
    assert mu0 == pytest.approx(1.0, rel=1e-12)
    assert K == pytest.approx(10.0, rel=1e-12)
    assert f == pytest.approx(0.6, rel=1e-12)


def test_from_heterogeneous_rejects_bad_orderings():
    with pytest.raises(ValueError, match="must exceed full-offload"):
        from_heterogeneous(8.0, 2.5, 8.0)
    with pytest.raises(ValueError, match="slow-local"):
        from_heterogeneous(2.0, 2.5, 8.0)
    with pytest.raises(ValueError, match="positive"):
        from_heterogeneous(0.0, 2.5, 8.0)


def test_round_trip_random_parameters():
    rng = random.Random(20240817)
    for _ in range(200):
        K = rng.uniform(1.05, 40.0)
        f = rng.uniform(1.0 / K + 1e-6, 1.0 - 1e-6)
        mu0 = rng.uniform(0.01, 50.0)
        lam = rng.uniform(0.0, 10.0)
        p = derive_rates(lam, mu0, K, f)
        mu0_r, K_r, f_r = from_heterogeneous(p.mu_c1, p.mu_l2, p.mu_c2)
        assert math.isclose(mu0_r, mu0, rel_tol=1e-12)
        assert math.isclose(K_r, K, rel_tol=1e-12)
        assert math.isclose(f_r, f, rel_tol=1e-12)


def test_lambda_from_utilization():
    assert lambda_from_utilization(0.4, 1.0, 8.0) == pytest.approx(3.6, rel=1e-15)
    assert lambda_from_utilization(0.8, 1.0, 8.0) == pytest.approx(7.2, rel=1e-15)
    assert lambda_from_utilization(0.4, 1.0, 15.0) == pytest.approx(6.4, rel=1e-15)


def test_total_jobs():
    assert total_jobs(State(0, 0, 0, 0)) == 0
    assert total_jobs(State(2, 1, 0, 3)) == 6
    assert total_jobs(State(5, 1, 1, 0)) == 7


def test_operator_actions_on_states():
    assert apply_operator(Op.ARRIVAL, State(2, 0, 1, 3)) == State(3, 0, 1, 3)
    assert apply_operator(Op.CLOUD_SM1_DONE, State(2, 0, 1, 3)) == State(2, 0, 0, 3)
    assert apply_operator(Op.CLOUD_SM2_DONE, State(2, 0, 1, 3)) == State(2, 0, 1, 2)
    assert apply_operator(Op.LOCAL_DONE, State(1, 1, 0, 2)) == State(1, 0, 0, 3)
    assert apply_operator(Op.START_SM1, State(3, 0, 0, 2)) == State(2, 0, 1, 2)
    assert apply_operator(Op.START_SM2, State(3, 0, 1, 0)) == State(2, 1, 1, 0)


def test_operator_domain_errors():
    with pytest.raises(ValueError, match="no full-offload job"):
        apply_operator(Op.CLOUD_SM1_DONE, State(2, 0, 0, 3))
    with pytest.raises(ValueError, match="no split jobs"):
        apply_operator(Op.CLOUD_SM2_DONE, State(2, 0, 1, 0))
    with pytest.raises(ValueError, match="local slot is empty"):
        apply_operator(Op.LOCAL_DONE, State(1, 0, 0, 2))
    with pytest.raises(ValueError, match="base queue is empty"):
        apply_operator(Op.START_SM1, State(0, 0, 0, 0))
    with pytest.raises(ValueError, match="already occupied"):
        apply_operator(Op.START_SM1, State(3, 0, 1, 2))
    with pytest.raises(ValueError, match="already occupied"):
        apply_operator(Op.START_SM2, State(3, 1, 0, 2))


def _all_states(limit: int):
    for n0 in range(limit + 1):
        for i2 in (0, 1):
            for i1 in (0, 1):
                for n2 in range(limit + 1):
                    yield State(n0, i2, i1, n2)


def test_operator_job_conservation_exhaustive():
    deltas = {
        Op.ARRIVAL: 1,
        Op.CLOUD_SM1_DONE: -1,
        Op.CLOUD_SM2_DONE: -1,
        Op.LOCAL_DONE: 0,
        Op.START_SM1: 0,
        Op.START_SM2: 0,
    }
    checked = 0
    for s in _all_states(4):
        for op, delta in deltas.items():
            try:
                s2 = apply_operator(op, s)
            except ValueError:
                continue
            assert total_jobs(s2) - total_jobs(s) == delta
            assert s2.n0 >= 0 and s2.n2 >= 0
            assert s2.i1 in (0, 1) and s2.i2 in (0, 1)
            checked += 1
    assert checked > 100


def test_admissible_actions_cases():
    # empty base queue: only idling, regardless of the slots
    for i2 in (0, 1):
        for i1 in (0, 1):
            assert admissible_actions(State(0, i2, i1, 2)) == (Action.IDLE,)
    # both slots free, two or more queued jobs: everything including composite
    assert set(admissible_actions(State(3, 0, 0, 0))) == {
        Action.IDLE,
        Action.SM1,
        Action.SM2,
        Action.SM1_THEN_SM2,
    }
    # both slots free, a single queued job: no composite
    assert set(admissible_actions(State(1, 0, 0, 5))) == {
        Action.IDLE,
        Action.SM1,
        Action.SM2,
    }
    # local busy: full offload only
    assert set(admissible_actions(State(2, 1, 0, 0))) == {Action.IDLE, Action.SM1}
    # cloud full-offload slot busy: split assignment only
    assert set(admissible_actions(State(2, 0, 1, 0))) == {Action.IDLE, Action.SM2}
    # both busy
    assert admissible_actions(State(2, 1, 1, 4)) == (Action.IDLE,)


def test_admissibility_iff_conditions():
    for s in _all_states(3):
        acts = admissible_actions(s)
        assert Action.IDLE in acts
        assert (Action.SM1 in acts) == (s.n0 >= 1 and s.i1 == 0)
        assert (Action.SM2 in acts) == (s.n0 >= 1 and s.i2 == 0)
        assert (Action.SM1_THEN_SM2 in acts) == (
            s.n0 >= 2 and s.i1 == 0 and s.i2 == 0
        )


def test_apply_action():
    assert apply_action(Action.IDLE, State(2, 1, 1, 0)) == State(2, 1, 1, 0)
    assert apply_action(Action.SM1, State(3, 0, 0, 1)) == State(2, 0, 1, 1)
    assert apply_action(Action.SM2, State(3, 0, 1, 0)) == State(2, 1, 1, 0)
    assert apply_action(Action.SM1_THEN_SM2, State(3, 0, 0, 0)) == State(1, 1, 1, 0)


def test_apply_action_conserves_jobs():
    for s in _all_states(3):
        for a in admissible_actions(s):
            assert total_jobs(apply_action(a, s)) == total_jobs(s)


def test_apply_action_rejects_inadmissible():
    with pytest.raises(ValueError, match="not admissible"):
        apply_action(Action.SM1, State(0, 0, 0, 0))
    with pytest.raises(ValueError, match="not admissible"):
        apply_action(Action.SM1, State(2, 0, 1, 0))
    with pytest.raises(ValueError, match="not admissible"):
        apply_action(Action.SM2, State(2, 1, 0, 0))
    with pytest.raises(ValueError, match="not admissible"):
        apply_action(Action.SM1_THEN_SM2, State(1, 0, 0, 0))
