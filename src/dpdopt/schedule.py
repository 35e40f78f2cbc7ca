"""Geometric stepsize and Laplace noise schedules, and the privacy ledger.

The stepsize decays as alpha_k = gamma q1^(k-1) while the injected Laplace
scale decays strictly slower, nu_k = gamma*delta*q2/(eps(q2-q1)) q2^(k-1)
with q1 < q2. The per-iteration leak is then delta*alpha_k/nu_k and the
total spend telescopes to eps(1 - (q1/q2)^K), approaching eps from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ScheduleError

__all__ = [
    "ScheduleParams",
    "stepsize",
    "noise_scale",
    "laplace_from_uniform",
    "privacy_spent",
    "spend_from_sensitivities",
]


@dataclass(frozen=True)
class ScheduleParams:
    gamma: float  # initial stepsize
    beta: float  # correction gain; gamma*beta <= 1
    q1: float  # stepsize decay, in (0, 1)
    q2: float  # noise decay, in (q1, 1)
    epsilon: float  # privacy budget, > 0
    delta: float  # adjacency bound on the L1 gradient gap, >= 0

    def __post_init__(self):
        problems = [f"{name} must be finite, got {value}"
                    for name, value in vars(self).items() if not np.isfinite(value)]
        if self.gamma <= 0:
            problems.append(f"gamma must be > 0, got {self.gamma}")
        if self.beta < 0:
            problems.append(f"beta must be >= 0, got {self.beta}")
        if self.gamma > 0 and self.gamma * self.beta > 1.0 + 1e-12:
            problems.append(f"gamma*beta must be <= 1, got {self.gamma * self.beta}")
        if not 0.0 < self.q1 < 1.0:
            problems.append(f"q1 must be in (0, 1), got {self.q1}")
        if not self.q1 < self.q2 < 1.0:
            problems.append(f"q2 must be in (q1, 1), got {self.q2}")
        if self.epsilon <= 0:
            problems.append(f"epsilon must be > 0, got {self.epsilon}")
        if self.delta < 0:
            problems.append(f"delta must be >= 0, got {self.delta}")
        if problems:
            raise ScheduleError("; ".join(problems))


def _check_iteration(k) -> np.ndarray:
    k = np.asarray(k)
    if not np.issubdtype(k.dtype, np.integer):
        raise ScheduleError(f"iteration index must be integer, got dtype {k.dtype}")
    if np.any(k < 1):
        raise ScheduleError("iteration index starts at 1")
    return k


def stepsize(sp: ScheduleParams, k) -> np.ndarray | float:
    """alpha_k = gamma q1^(k-1), for scalar or array k >= 1."""
    k = _check_iteration(k)
    out = sp.gamma * sp.q1 ** (k - 1).astype(float)
    return float(out) if out.ndim == 0 else out


def noise_scale(sp: ScheduleParams, k) -> np.ndarray | float:
    """nu_k = gamma*delta*q2 / (eps*(q2-q1)) * q2^(k-1); zero when delta=0."""
    k = _check_iteration(k)
    nu1 = sp.gamma * sp.delta * sp.q2 / (sp.epsilon * (sp.q2 - sp.q1))
    out = nu1 * sp.q2 ** (k - 1).astype(float)
    return float(out) if out.ndim == 0 else out


def laplace_from_uniform(u01, scale) -> np.ndarray:
    """Inverse-CDF Laplace transform of uniforms already drawn on [0, 1):
    u = u01 - 1/2, then -scale * sign(u) * ln(1 - 2|u|). Per-entry variance
    is 2*scale^2; scale broadcasts and zero scale gives exact zeros.

    The transform is pinned here, rather than delegated to rng.laplace, so
    the draw-for-draw stream layout is a documented contract: the engine
    preallocates one uniform block per chunk of trials and transforms it in
    place step by step, and simulation and sensitivity audit consume the
    same noise column by column.
    """
    u = np.asarray(u01) - 0.5
    # u = -0.5 has probability 2^-53; clamp so log never sees exact zero
    inner = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    return -np.asarray(scale) * np.sign(u) * np.log(inner)


def privacy_spent(sp: ScheduleParams, K: int | None) -> float:
    """Privacy consumed by the first K iterations under the worst-case leak
    delta*alpha_k per release. K=None (or an infinite float) means the whole
    horizon, where the geometric series sums to exactly epsilon.

    For finite K, evaluates the closed form eps * (1 - (q1/q2)^K) and
    cross-checks it against the materialized schedule on a geometric ladder
    of probe iterations, refusing to answer on disagreement.
    """
    if K is None or (isinstance(K, float) and np.isinf(K) and K > 0):
        return 0.0 if sp.delta == 0.0 else sp.epsilon
    if K < 0:
        raise ScheduleError(f"K must be >= 0, got {K}")
    if K == 0 or sp.delta == 0.0:
        return 0.0
    # Probing keeps the accountant O(1) in K; the external identity
    # sum_k delta*alpha_k/nu_k = eps*(1-(q1/q2)^K) is pure geometric-series
    # algebra once alpha_k/nu_k matches the scaled ratio below at every k.
    probes = np.unique(np.geomspace(1, K, num=min(int(K), 64)).astype(np.int64))
    leaks = sp.delta * np.asarray(stepsize(sp, probes))
    nus = np.asarray(noise_scale(sp, probes))
    # A positive leak with an underflowed noise scale cannot happen for
    # q1 < q2 and sane magnitudes; refuse rather than divide by zero.
    if np.any((leaks > 0) & (nus == 0.0)):
        raise BudgetError("positive leak with zero noise scale")
    # The ratio alpha_k/nu_k stays O(1)-representable long after alpha_k and
    # nu_k themselves have decayed into (or past) the subnormal range, where
    # the materialized arrays keep only a few significand bits; compare in
    # scaled form and only where both arrays are still normal floats.
    r = sp.q1 / sp.q2
    nu1 = sp.gamma * sp.delta * sp.q2 / (sp.epsilon * (sp.q2 - sp.q1))
    terms = (sp.delta * sp.gamma / nu1) * r ** (probes - 1).astype(float)
    floor = np.finfo(float).tiny
    ok = (leaks >= floor) & (nus >= floor)
    direct = np.divide(leaks, nus, out=np.zeros_like(leaks), where=ok)
    # The two forms round apart: fl(q1/q2) is off by up to eps/2 relative,
    # which r^(k-1) raises (k - 1)-fold; the three powers (a few ulp each,
    # at most 4 in numpy) and the seven products and quotients add under
    # 16 eps. So (k + 16) eps bounds the gap at probe k with room to spare,
    # while a constant relative error shows at k = 1, whose bound is 17 eps.
    tol = (probes + 16) * np.finfo(float).eps
    if np.any(np.abs(direct[ok] - terms[ok]) > tol[ok] * terms[ok]):
        raise BudgetError("schedule arrays disagree with the scaled leak ratio")
    return sp.epsilon * (1.0 - r**K)


def spend_from_sensitivities(delta_hat: np.ndarray, nus: np.ndarray) -> float:
    """Accounting against audited per-iteration sensitivities: sum of
    delta_hat(k)/nu_k. A positive sensitivity with a zero noise scale is an
    infinite spend and raises."""
    delta_hat = np.asarray(delta_hat, dtype=float)
    nus = np.asarray(nus, dtype=float)
    if delta_hat.shape != nus.shape:
        raise BudgetError(f"shape mismatch: {delta_hat.shape} vs {nus.shape}")
    if np.any(delta_hat < 0) or np.any(nus < 0):
        raise BudgetError("sensitivities and noise scales must be >= 0")
    leaky = delta_hat > 0
    if np.any(leaky & (nus == 0.0)):
        raise BudgetError("positive sensitivity with zero noise: infinite privacy spend")
    out = np.zeros_like(delta_hat)
    np.divide(delta_hat, nus, out=out, where=leaky)
    return float(np.sum(out))
