"""Core model of the two-stage computation-offloading queue.

A single dispatching station feeds two execution paths for every job:

* full offload ("SM1"): the job is shipped to the cloud and served there
  at rate ``mu_c1``;
* split execution ("SM2"): a preprocessing stage runs on the local server
  at rate ``mu_l2``, after which the remainder is shipped to the cloud and
  served at rate ``mu_c2``.

The local server holds at most one job in its preprocessing slot, and the
cloud holds at most one full-offload job.  System state is the tuple
``(n0, i2, i1, n2)``: jobs waiting in the base queue, the local slot
indicator, the cloud full-offload indicator, and the number of split jobs
queued at the cloud.  This module defines the parameterization and the
action type.  The dynamics live in :mod:`offloadq.kernel`, as the
truncated uniformized chain, and in :mod:`offloadq.simulator`, as an
event loop over the untruncated system.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Action(enum.IntEnum):
    """Dispatching actions available at transition instants.

    Values 0/1/2 match the on-disk policy-grid encoding; the composite
    action assigns the head-of-queue job for full offload and the next
    job to the local preprocessing slot in the same instant.
    """

    IDLE = 0
    SM1 = 1
    SM2 = 2
    SM1_THEN_SM2 = 3


@dataclass(frozen=True)
class ModelParams:
    """Arrival-and-service parameterization.

    ``lam`` is the Poisson arrival rate, ``mu0`` the local server's base
    service rate, ``K`` the cloud speedup factor, and ``f`` the fraction of
    work kept local under split execution.  Service rates for the two modes
    follow from these: ``mu_c1 = K * mu0`` (full offload at the cloud),
    ``mu_l2 = mu0 / f`` (local preprocessing), and
    ``mu_c2 = K * mu0 / (1 - f)`` (split-job remainder at the cloud).

    Requires ``f > 1/K``, i.e. the cloud serves a full job faster than the
    local server finishes a preprocessing stage (``mu_c1 > mu_l2``).
    """

    lam: float
    mu0: float
    K: float
    f: float

    def __post_init__(self) -> None:
        for name in ("mu0", "K", "lam"):  # no chain or sample path has an infinite rate
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.lam >= 0.0:
            raise ValueError(f"arrival rate must be nonnegative, got {self.lam}")
        if not self.mu0 > 0.0:
            raise ValueError(f"base service rate must be positive, got {self.mu0}")
        if not self.K > 1.0:
            raise ValueError(f"cloud speedup factor must exceed 1, got {self.K}")
        if not 0.0 < self.f < 1.0:
            raise ValueError(f"local work fraction must lie in (0, 1), got {self.f}")
        if not self.f * self.K > 1.0:
            raise ValueError(
                "slow-local regime required: local fraction f must exceed 1/K "
                f"so that mu_c1 > mu_l2 (got f={self.f}, K={self.K})"
            )

    @property
    def mu_c1(self) -> float:
        """Cloud service rate for a fully offloaded job."""
        return self.K * self.mu0

    @property
    def mu_l2(self) -> float:
        """Local preprocessing rate for a split job."""
        return self.mu0 / self.f

    @property
    def mu_c2(self) -> float:
        """Cloud service rate for the remainder of a split job."""
        return self.K * self.mu0 / (1.0 - self.f)

    @property
    def utilization(self) -> float:
        """Offered load relative to the pooled capacity (K + 1) * mu0."""
        return self.lam / ((self.K + 1.0) * self.mu0)


def derive_rates(lam: float, mu0: float, K: float, f: float) -> ModelParams:
    """Validate the primitive parameters and bundle them with derived rates."""
    return ModelParams(lam=lam, mu0=mu0, K=K, f=f)


def from_heterogeneous(mu_c1: float, mu_l2: float, mu_c2: float) -> tuple[float, float, float]:
    """Recover ``(mu0, K, f)`` from the three service rates.

    The map is a bijection onto the admissible region, which requires
    ``mu_c2 > mu_c1`` (the split remainder is lighter than a full job) and
    ``mu_c1 > mu_l2`` (slow-local regime).
    """
    for name, rate in (("mu_c1", mu_c1), ("mu_l2", mu_l2), ("mu_c2", mu_c2)):
        if not 0.0 < rate < math.inf:
            raise ValueError(f"service rate {name} must be positive and finite, got {rate}")
    if not mu_c2 > mu_c1:
        raise ValueError(
            f"split remainder rate mu_c2={mu_c2} must exceed full-offload rate mu_c1={mu_c1}"
        )
    if not mu_c1 > mu_l2:
        raise ValueError(
            f"slow-local regime required: mu_c1={mu_c1} must exceed mu_l2={mu_l2}"
        )
    f = (mu_c2 - mu_c1) / mu_c2
    mu0 = mu_l2 * f
    K = mu_c1 / mu0
    return mu0, K, f


def lambda_from_utilization(rho: float, mu0: float, K: float) -> float:
    """Arrival rate that loads the pooled capacity ``(K + 1) * mu0`` at level rho."""
    if not rho >= 0.0:
        raise ValueError(f"utilization must be nonnegative, got {rho}")
    if math.isinf(rho):
        raise ValueError(f"utilization must be finite, got {rho}")
    return rho * (K + 1.0) * mu0


def params_close(a: ModelParams, b: ModelParams, rel: float = 1e-12) -> bool:
    """Relative closeness of two parameterizations, rate by rate."""
    pairs = [
        (a.lam, b.lam),
        (a.mu0, b.mu0),
        (a.K, b.K),
        (a.f, b.f),
        (a.mu_c1, b.mu_c1),
        (a.mu_l2, b.mu_l2),
        (a.mu_c2, b.mu_c2),
    ]
    return all(math.isclose(x, y, rel_tol=rel, abs_tol=0.0) for x, y in pairs)
