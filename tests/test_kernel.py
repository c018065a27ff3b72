"""State-space enumeration and the uniformized transition kernel."""

import numpy as np
import pytest

from offloadq.kernel import (
    DiscountSpec,
    build_kernel,
    build_state_space,
    uniformization_rate,
)
from offloadq.model import Action, derive_rates
from scalar_model import (
    Op,
    State,
    admissible_actions,
    apply_action,
    apply_operator,
    total_jobs,
)

CONFIG_A = derive_rates(3.6, 1.0, 8.0, 0.4)
CONFIG_B = derive_rates(7.2, 1.0, 8.0, 0.4)


def _kernel(p=CONFIG_A, n_max=5, alpha=0.9):
    space = build_state_space(n_max)
    d = DiscountSpec.from_alpha(uniformization_rate(p), alpha)
    return build_kernel(p, space, d)


def _dist(k, sid, action):
    """Next-state distribution of one admissible (state, action) pair."""
    assert k.admissible[int(action), sid]
    row = k.events.getrow(k.post[int(action), sid])
    return {int(j): float(v) for j, v in zip(row.indices, row.data)}


def test_space_sizes():
    assert build_state_space(1).size == 16
    assert build_state_space(60).size == 14_884
    assert build_state_space(300).size == 362_404


def test_space_rejects_zero_cap():
    with pytest.raises(ValueError, match="at least 1"):
        build_state_space(0)


def test_index_round_trip():
    space = build_state_space(3)
    seen = set()
    for n0 in range(4):
        for i2 in (0, 1):
            for i1 in (0, 1):
                for n2 in range(4):
                    sid = space.id_of(n0, i2, i1, n2)
                    assert space.state_of(sid) == (n0, i2, i1, n2)
                    seen.add(sid)
    assert seen == set(range(space.size))
    # the stored component arrays agree with the scalar decoder
    for sid in range(space.size):
        assert space.state_of(sid) == (
            space.n0[sid],
            space.i2[sid],
            space.i1[sid],
            space.n2[sid],
        )


def test_index_ordering_is_lexicographic():
    space = build_state_space(3)
    comps = np.stack([space.n0, space.i2, space.i1, space.n2], axis=1)
    assert all(tuple(comps[i]) < tuple(comps[i + 1]) for i in range(space.size - 1))


def test_index_rejects_out_of_range():
    space = build_state_space(3)
    with pytest.raises(ValueError, match="outside"):
        space.id_of(4, 0, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        space.state_of(space.size)


def test_uniformization_rate():
    assert uniformization_rate(CONFIG_A) == pytest.approx(3.6 + 2.5 + 40.0 / 3.0, rel=1e-15)
    p_b = derive_rates(7.2, 1.0, 8.0, 0.4)
    assert uniformization_rate(p_b) == pytest.approx(7.2 + 2.5 + 40.0 / 3.0, rel=1e-15)
    p_0 = derive_rates(0.0, 1.0, 8.0, 0.4)
    assert uniformization_rate(p_0) == pytest.approx(2.5 + 40.0 / 3.0, rel=1e-15)


def test_discount_spec_consistency():
    nu = uniformization_rate(CONFIG_A)
    d = DiscountSpec.from_alpha(nu, 0.999)
    assert d.alpha == pytest.approx(nu / (nu + d.beta), rel=1e-13)
    d2 = DiscountSpec.from_beta(nu, d.beta)
    assert d2.alpha == pytest.approx(d.alpha, rel=1e-13)
    with pytest.raises(ValueError, match="inconsistent"):
        DiscountSpec(nu=nu, alpha=0.9, beta=1.0)
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        DiscountSpec.from_alpha(nu, 1.0)


def test_kernel_rejects_mismatched_discount():
    space = build_state_space(3)
    d = DiscountSpec.from_alpha(uniformization_rate(CONFIG_A) + 1.0, 0.9)
    with pytest.raises(ValueError, match="uniformization rate"):
        build_kernel(CONFIG_A, space, d)


def test_distribution_empty_state_idle():
    k = _kernel()
    space = k.space
    nu = k.discount.nu
    dist = _dist(k, space.id_of(0, 0, 0, 0), Action.IDLE)
    assert dist == pytest.approx(
        {
            space.id_of(1, 0, 0, 0): 3.6 / nu,
            space.id_of(0, 0, 0, 0): (2.5 + 40.0 / 3.0) / nu,
        }
    )


def test_distribution_lone_offload_job_idle():
    k = _kernel()
    space = k.space
    nu = k.discount.nu
    dist = _dist(k, space.id_of(1, 0, 1, 0), Action.IDLE)
    assert dist == pytest.approx(
        {
            space.id_of(2, 0, 1, 0): 3.6 / nu,
            space.id_of(1, 0, 0, 0): 8.0 / nu,
            space.id_of(1, 0, 1, 0): (2.5 + 40.0 / 3.0 - 8.0) / nu,
        }
    )


def test_distribution_all_events_active():
    k = _kernel()
    space = k.space
    nu = k.discount.nu
    dist = _dist(k, space.id_of(1, 1, 0, 1), Action.IDLE)
    assert dist == pytest.approx(
        {
            space.id_of(2, 1, 0, 1): 3.6 / nu,
            space.id_of(1, 0, 0, 2): 2.5 / nu,
            space.id_of(1, 1, 0, 0): (40.0 / 3.0) / nu,
        }
    )
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-15)


def test_distribution_reflects_action():
    k = _kernel()
    space = k.space
    nu = k.discount.nu
    # assigning the lone job for split execution, then the local stage runs
    dist = _dist(k, space.id_of(1, 0, 0, 0), Action.SM2)
    assert dist == pytest.approx(
        {
            space.id_of(1, 1, 0, 0): 3.6 / nu,
            space.id_of(0, 0, 0, 1): 2.5 / nu,
            space.id_of(0, 1, 0, 0): (40.0 / 3.0) / nu,
        }
    )


def test_stage_costs_match_post_action_jobs():
    k = _kernel(n_max=4)
    space = k.space
    scale = k.discount.beta + k.discount.nu
    for sid in range(space.size):
        s = State(*space.state_of(sid))
        for a in Action:
            if a in admissible_actions(s):
                expected = total_jobs(apply_action(a, s)) / scale
                assert k.costs[int(a), sid] == pytest.approx(expected, rel=1e-14)
            else:
                assert np.isinf(k.costs[int(a), sid])


@pytest.mark.parametrize(
    "p", [CONFIG_A, CONFIG_B, derive_rates(0.0, 1.0, 8.0, 0.4)], ids=["a", "b", "lam0"]
)
def test_transitions_match_scalar_model_exhaustive(p):
    k = _kernel(p, n_max=4)
    space = k.space
    m = space.n_max
    nu = k.discount.nu
    p_loc, p_c2, p_c1 = p.mu_l2 / nu, p.mu_c2 / nu, p.mu_c1 / nu

    def target(op, s):
        return space.id_of(*apply_operator(op, s))

    for sid in range(space.size):
        s = State(*space.state_of(sid))
        allowed = admissible_actions(s)
        for a in Action:
            assert k.admissible[int(a), sid] == (a in allowed)
            post = space.id_of(*apply_action(a, s)) if a in allowed else sid
            assert k.post[int(a), sid] == post

        expected: dict[int, float] = {}

        def add(tgt, prob):
            expected[tgt] = expected.get(tgt, 0.0) + prob

        # an arrival at the cap is blocked
        add(target(Op.ARRIVAL, s) if s.n0 < m else sid, p.lam / nu)
        # an idle local slot, or a completion into a full cloud queue, self-loops
        add(target(Op.LOCAL_DONE, s) if s.i2 == 1 and s.n2 < m else sid, p_loc)
        if s.n2 >= 1:
            add(target(Op.CLOUD_SM2_DONE, s), p_c2)
        elif s.i1 == 1:
            add(target(Op.CLOUD_SM1_DONE, s), p_c1)
            add(sid, p_c2 - p_c1)  # the slower full-offload job is in service
        else:
            add(sid, p_c2)
        expected = {j: v for j, v in expected.items() if v > 0.0}

        row = k.events.getrow(sid)
        got = dict(zip(row.indices.tolist(), row.data.tolist()))
        assert got.keys() == expected.keys(), s
        for j, v in expected.items():
            assert got[j] == pytest.approx(v, rel=1e-14, abs=1e-16), (s, j)


def test_row_stochastic_exhaustive():
    k = _kernel(n_max=10)
    sums = np.asarray(k.probs.sum(axis=1)).ravel()
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert k.probs.min() >= 0.0


def test_split_jobs_served_before_offload_job():
    k = _kernel(n_max=4)
    space = k.space
    nu = k.discount.nu
    for sid in range(space.size):
        n0, i2, i1, n2 = space.state_of(sid)
        if n2 >= 1 and i1 == 1:
            dist = _dist(k, sid, Action.IDLE)
            assert dist.get(space.id_of(n0, i2, 0, n2), 0.0) == 0.0
            assert dist[space.id_of(n0, i2, i1, n2 - 1)] == pytest.approx(
                (40.0 / 3.0) / nu
            )


def test_blocked_arrivals_self_loop():
    k = _kernel(n_max=4)
    space = k.space
    nu = k.discount.nu
    sid = space.id_of(4, 0, 0, 0)
    dist = _dist(k, sid, Action.IDLE)
    # arrival mass folds into the self-loop alongside the idle local/cloud rates
    assert dist[sid] == pytest.approx((3.6 + 2.5 + 40.0 / 3.0) / nu)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_full_cloud_queue_resamples_local_stage():
    k = _kernel(n_max=4)
    space = k.space
    nu = k.discount.nu
    sid = space.id_of(2, 1, 0, 4)
    dist = _dist(k, sid, Action.IDLE)
    # the finished preprocessing job cannot enter the full cloud queue
    assert dist[sid] == pytest.approx(2.5 / nu)


def test_no_out_of_space_targets():
    k = _kernel(n_max=3)
    assert k.probs.indices.min() >= 0
    assert k.probs.indices.max() < k.space.size


def test_kernel_build_deterministic():
    k1 = _kernel(n_max=6)
    k2 = _kernel(n_max=6)
    assert k1.probs.data.tobytes() == k2.probs.data.tobytes()
    assert k1.probs.indices.tobytes() == k2.probs.indices.tobytes()
    assert k1.probs.indptr.tobytes() == k2.probs.indptr.tobytes()
    assert k1.costs[np.isfinite(k1.costs)].tobytes() == k2.costs[np.isfinite(k2.costs)].tobytes()


def test_zero_arrival_rate_kernel():
    p = derive_rates(0.0, 1.0, 8.0, 0.4)
    space = build_state_space(3)
    d = DiscountSpec.from_alpha(uniformization_rate(p), 0.9)
    k = build_kernel(p, space, d)
    sums = np.asarray(k.probs.sum(axis=1)).ravel()
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    dist = _dist(k, space.id_of(0, 0, 0, 0), Action.IDLE)
    assert dist == {space.id_of(0, 0, 0, 0): pytest.approx(1.0)}
