"""The public names of the package."""

import offloadq

# the scalar statement of the dynamics is a test oracle, not package API
SCALAR_MODEL = ("State", "Op", "total_jobs", "apply_operator", "admissible_actions",
                "apply_action")


def test_every_exported_name_resolves():
    assert len(set(offloadq.__all__)) == len(offloadq.__all__)
    for name in offloadq.__all__:
        assert getattr(offloadq, name) is not None, name


def test_scalar_model_is_not_exported():
    for name in SCALAR_MODEL:
        assert name not in offloadq.__all__, name
        assert not hasattr(offloadq, name), name


def test_one_policy_table_type():
    # the simulator's older name for the table is the solver's type itself
    from offloadq import kernel, simulator, solver

    assert offloadq.TablePolicy is offloadq.PolicyTable
    assert simulator.TablePolicy is solver.PolicyTable is kernel.PolicyTable
