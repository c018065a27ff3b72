"""Optimal job dispatching between a local server and a faster cloud.

Jobs arrive at a single dispatch queue and can be served whole at the
cloud, or split so a fixed fraction runs locally while the remainder runs
at the cloud.  The package builds the uniformized discounted-cost decision
process on a truncated state space, solves it by policy iteration (value
iteration stays available as the oracle), checks the solved policy for the
expected switching structure, and cross-checks policies against a
continuous-time discrete-event simulator.

Typical flow: ``derive_rates`` or ``ModelParams`` -> ``build_kernel`` ->
``policy_iterate`` -> ``run_structure_checks`` / ``simulate``.  The same
pipeline is scriptable through the ``offloadq`` command line (see
``offloadq.cli``).
"""

from .kernel import (
    DiscountSpec,
    PolicyTable,
    StateSpace,
    TransitionKernel,
    build_kernel,
    build_state_space,
    uniformization_rate,
)
from .model import (
    Action,
    ModelParams,
    derive_rates,
    from_heterogeneous,
    lambda_from_utilization,
)
from .simulator import (
    CoupledReport,
    DelayReport,
    SimConfig,
    TablePolicy,
    baseline,
    coupled_compare,
    mm1_reference,
    simulate,
    tabulate_policy,
)
from .solver import (
    Checkpoint,
    ValueTable,
    bellman_backup,
    evaluate_policy,
    load_checkpoint,
    policy_iterate,
    q_table,
    save_checkpoint,
    value_iterate,
)
from .structure import (
    StructureReport,
    ThresholdProfile,
    extract_thresholds,
    profile_leq,
    run_structure_checks,
)

__all__ = [
    "Action",
    "Checkpoint",
    "CoupledReport",
    "DelayReport",
    "DiscountSpec",
    "ModelParams",
    "PolicyTable",
    "SimConfig",
    "StateSpace",
    "StructureReport",
    "TablePolicy",
    "ThresholdProfile",
    "TransitionKernel",
    "ValueTable",
    "baseline",
    "bellman_backup",
    "build_kernel",
    "build_state_space",
    "coupled_compare",
    "derive_rates",
    "evaluate_policy",
    "extract_thresholds",
    "from_heterogeneous",
    "lambda_from_utilization",
    "load_checkpoint",
    "mm1_reference",
    "policy_iterate",
    "profile_leq",
    "q_table",
    "run_structure_checks",
    "save_checkpoint",
    "simulate",
    "tabulate_policy",
    "uniformization_rate",
    "value_iterate",
]
