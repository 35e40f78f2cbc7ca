"""Quadratic sensor-fusion costs and adjacent problem pairs.

Each agent i holds f_i(x) = ||v_i - M_i x||^2 + omega_i ||x||^2 + bias_i^T x
with M_i an m x p observation matrix. The bias term is zero for nominal
instances; adjacency perturbations shift exactly one agent's bias, which
changes that agent's gradient by a constant vector and nothing else.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ProblemError
from .rng import substream

__all__ = [
    "QuadraticCost",
    "Problem",
    "AdjacentPair",
    "optimum",
    "random_problem",
    "make_adjacent",
]


@dataclass(frozen=True)
class QuadraticCost:
    """One agent's cost. Curvature bounds are precomputed on construction."""

    M: np.ndarray
    v: np.ndarray
    omega: float
    bias: np.ndarray

    # derived, filled in __post_init__
    hess: np.ndarray = field(init=False, repr=False)
    lin: np.ndarray = field(init=False, repr=False)
    smoothness: float = field(init=False)
    strong_convexity: float = field(init=False)

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        bias = np.atleast_1d(np.asarray(self.bias, dtype=float))
        if M.shape[0] != v.shape[0]:
            raise ProblemError(f"M has {M.shape[0]} rows but v has {v.shape[0]} entries")
        if M.shape[1] != bias.shape[0]:
            raise ProblemError(f"M has {M.shape[1]} columns but bias has {bias.shape[0]}")
        gram_evals = np.linalg.eigvalsh(M.T @ M)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "bias", bias)
        # gradient(x) = hess @ x + lin
        object.__setattr__(self, "hess", 2.0 * (M.T @ M + self.omega * np.eye(M.shape[1])))
        object.__setattr__(self, "lin", -2.0 * M.T @ v + bias)
        object.__setattr__(self, "smoothness", float(2.0 * gram_evals[-1] + 2.0 * self.omega))
        object.__setattr__(self, "strong_convexity", float(2.0 * gram_evals[0] + 2.0 * self.omega))

    @property
    def p(self) -> int:
        return self.M.shape[1]

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        r = self.v - self.M @ x
        return float(r @ r + self.omega * (x @ x) + self.bias @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.hess @ np.asarray(x, dtype=float) + self.lin


@dataclass(frozen=True)
class Problem:
    """A network cost: one QuadraticCost per agent, common dimension p."""

    costs: tuple[QuadraticCost, ...]
    p: int

    hess_stack: np.ndarray = field(init=False, repr=False)
    lin_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.costs:
            raise ProblemError("a problem needs at least one agent cost")
        for i, c in enumerate(self.costs):
            if c.p != self.p:
                raise ProblemError(f"cost {i} has dimension {c.p}, expected {self.p}")
        object.__setattr__(self, "costs", tuple(self.costs))
        object.__setattr__(self, "hess_stack", np.stack([c.hess for c in self.costs]))
        object.__setattr__(self, "lin_stack", np.stack([c.lin for c in self.costs]))

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def smoothness(self) -> float:
        """Largest per-agent smoothness constant."""
        return max(c.smoothness for c in self.costs)

    @property
    def strong_convexity(self) -> float:
        """Smallest per-agent strong convexity modulus (a valid modulus for
        the average cost as well)."""
        return min(c.strong_convexity for c in self.costs)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Per-agent gradients, broadcast over leading axes.

        X has shape (..., n, p): row i is the point agent i evaluates at.
        lin_stack broadcasts over leading axes too, so a problem whose
        lin_stack stacks the linear terms of several problems that share
        hess_stack, (m, 1, n, p), gives each one's gradients at the same X
        along a leading axis of m (the sensitivity audit's replay does).
        For p <= 2 each entry is its products and linear term added in
        einsum's order, so it gives einsum's bits.
        """
        X = np.asarray(X, dtype=float)
        H = self.hess_stack
        lin = self.lin_stack
        if self.p > 2:
            # einsum's summation order follows its SIMD lanes and so the
            # machine; a column loop would round differently
            return np.einsum("nij,...nj->...ni", H, X) + lin
        # this skips einsum's per-call set-up; on the x86-64 build it was
        # measured on, one or two products and adds per entry equal einsum
        # bit for bit (test_gradients_equal_einsum_bitwise guards it). Each
        # output column is built from the (..., n) views X[..., j], so numpy's
        # inner loops run over trials and agents rather than over the columns
        # of a broadcast
        G = np.empty(X.shape if lin.ndim == 2 else np.broadcast(X, lin).shape)
        for k in range(self.p):
            g = H[:, k, 0] * X[..., 0]
            for j in range(1, self.p):
                g += H[:, k, j] * X[..., j]
            np.add(g, lin[..., k], out=G[..., k])
        return G


@dataclass(frozen=True)
class AdjacentPair:
    """Base and perturbed problems differing only in agent i0's bias, with
    gradient gap ||grad f'_i0 - grad f_i0||_1 = delta everywhere."""

    base: Problem
    perturbed: Problem
    i0: int
    delta: float


def _stacked(pair: AdjacentPair) -> Problem:
    """pair.base with the member-stacked (2, 1, n, p) lin_stack of the base
    and the perturbed problem: its gradients at a shared (trials, n, p) point
    or at a (2, trials, n, p) pair of states are the base problem's as member
    0 and the perturbed problem's as member 1, bit for bit. The sensitivity
    audit steps both runs of the pair with it."""
    base, perturbed = pair.base, pair.perturbed
    if not np.array_equal(base.hess_stack, perturbed.hess_stack):
        raise ProblemError("an adjacent pair's problems must share their curvature")
    stacked = copy.copy(base)
    object.__setattr__(stacked, "lin_stack",
                       np.stack((base.lin_stack, perturbed.lin_stack))[:, None])
    return stacked


def optimum(pr: Problem) -> np.ndarray:
    """Minimizer of the average cost, from the stationarity system

        sum_i (M_i^T M_i + omega_i I) x = sum_i M_i^T v_i - (1/2) sum_i bias_i.
    """
    H = sum(c.M.T @ c.M + c.omega * np.eye(pr.p) for c in pr.costs)
    rhs = sum(c.M.T @ c.v - 0.5 * c.bias for c in pr.costs)
    try:
        x = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError as exc:
        raise ProblemError(f"stationarity system is singular: {exc}") from exc
    resid = float(np.linalg.norm(H @ x - rhs))
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if resid > 1e-10 * scale:
        raise ProblemError(f"stationarity residual {resid:.3e} too large")
    return x


def random_problem(
    n: int,
    m: int,
    p: int,
    omega_range: tuple[float, float],
    seed: int,
    max_tries: int = 50,
) -> Problem:
    """Sample a strongly convex instance: M, v standard normal entries,
    omega uniform in omega_range, zero bias."""
    lo, hi = omega_range
    if lo > hi:
        raise ProblemError(f"bad omega range ({lo}, {hi})")
    rng = substream(seed, "problem")
    for _ in range(max_tries):
        costs = []
        for _i in range(n):
            M = rng.standard_normal((m, p))
            v = rng.standard_normal(m)
            omega = float(rng.uniform(lo, hi))
            costs.append(QuadraticCost(M, v, omega, np.zeros(p)))
        pr = Problem(tuple(costs), p)
        if pr.strong_convexity > 0.0:
            return pr
    raise ProblemError(
        f"no strongly convex instance in {max_tries} tries; omega range {omega_range}"
    )


def make_adjacent(
    pr: Problem,
    i0: int,
    delta: float,
    seed: int,
    direction: np.ndarray | None = None,
) -> AdjacentPair:
    """Perturb agent i0's bias by a vector c with ||c||_1 = delta.

    The direction is random by default; pass one explicitly to pin it (it is
    rescaled to L1 norm delta). delta = 0 returns an identical twin.
    """
    if not 0 <= i0 < pr.n:
        raise ProblemError(f"agent index {i0} out of range for n={pr.n}")
    if not (np.isfinite(delta) and delta >= 0):
        raise ProblemError(f"adjacency bound must be finite and >= 0, got {delta}")
    if direction is None:
        rng = substream(seed, "adjacent", i0)
        raw = rng.standard_normal(pr.p)
        # a standard normal vector is never exactly zero, but guard anyway
        while np.sum(np.abs(raw)) == 0.0:
            raw = rng.standard_normal(pr.p)
    else:
        raw = np.asarray(direction, dtype=float)
        if np.sum(np.abs(raw)) == 0.0:
            raise ProblemError("perturbation direction must be nonzero")
    c = raw * (delta / np.sum(np.abs(raw))) if delta > 0 else np.zeros(pr.p)
    old = pr.costs[i0]
    bumped = QuadraticCost(old.M, old.v, old.omega, old.bias + c)
    costs = list(pr.costs)
    costs[i0] = bumped
    return AdjacentPair(pr, Problem(tuple(costs), pr.p), i0, float(delta))
