"""Undirected communication graphs and consensus weight matrices.

Agents sit on the nodes of a simple undirected graph and average with their
neighbors through a symmetric doubly stochastic weight matrix. Everything
here is dense numpy: the intended sizes are tens to a few hundred agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError
from .rng import substream

__all__ = [
    "Graph",
    "WeightMatrix",
    "ring",
    "connected_erdos_renyi",
    "metropolis_weights",
    "spectral_constants",
]

_ROWSUM_TOL = 1e-12


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with a canonical edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise TopologyError(f"graph needs at least one node, got n={self.n}")
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise TopologyError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise TopologyError(f"self-loop ({i}, {j}) not allowed")
            if i > j:
                raise TopologyError(f"edge ({i}, {j}) not in canonical i<j order")
            if (i, j) in seen:
                raise TopologyError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    @property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric doubly stochastic mixing matrix, validated on construction."""

    W: np.ndarray = field(repr=False)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        object.__setattr__(self, "W", W)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise TopologyError(f"weight matrix must be square, got shape {W.shape}")
        if W.size == 0:
            raise TopologyError("weight matrix needs at least one agent, got shape (0, 0)")
        if not np.isfinite(W).all():
            raise TopologyError("weight matrix has non-finite entries")
        if not np.array_equal(W, W.T):
            if np.max(np.abs(W - W.T)) > _ROWSUM_TOL:
                raise TopologyError("weight matrix is not symmetric")
        if np.min(W) < -_ROWSUM_TOL:
            raise TopologyError("weight matrix has negative entries")
        rows = W.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > _ROWSUM_TOL:
            raise TopologyError("weight matrix rows do not sum to 1")

    @property
    def n(self) -> int:
        return self.W.shape[0]


def ring(n: int) -> Graph:
    """Cycle graph on n >= 3 nodes (n = 3 degenerates to the triangle)."""
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got n={n}")
    edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return Graph(n, tuple(edges))


def erdos_renyi(n: int, p_edge: float, seed: int) -> Graph:
    """G(n, p) sample with a pinned draw order.

    One uniform is drawn per pair (i, j), i < j, in lexicographic order, and
    the edge is present iff the draw is < p_edge. The pinned order makes the
    sample a pure function of (n, p_edge, seed).
    """
    if n < 1:
        raise TopologyError(f"need n >= 1, got n={n}")
    if not 0.0 <= p_edge <= 1.0:
        raise TopologyError(f"edge probability must be in [0, 1], got {p_edge}")
    rng = substream(seed, "erdos-renyi")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    draws = rng.random(len(pairs))
    edges = tuple(pair for pair, u in zip(pairs, draws) if u < p_edge)
    return Graph(n, edges)


def connected_erdos_renyi(n: int, p_edge: float, seed: int, max_tries: int = 100) -> Graph:
    """Resample erdos_renyi with fresh sub-seeds until connected."""
    for attempt in range(max_tries):
        g = erdos_renyi(n, p_edge, seed + attempt * 7919)
        if is_connected(g):
            return g
    raise TopologyError(
        f"no connected G({n}, {p_edge}) sample in {max_tries} tries from seed {seed}"
    )


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from node 0."""
    if g.n == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Metropolis-Hastings weights: W_ij = 1/(1 + max(deg_i, deg_j)) on edges,
    diagonal takes up the slack. Symmetric and doubly stochastic by
    construction; requires a connected graph."""
    if not is_connected(g):
        raise TopologyError("metropolis weights need a connected graph")
    deg = g.degrees
    W = np.zeros((g.n, g.n))
    for i, j in g.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = W[j, i] = w
    offdiag = W.sum(axis=1)
    np.fill_diagonal(W, 1.0 - offdiag)
    return WeightMatrix(W)


def spectral_constants(wm: WeightMatrix) -> tuple[float, float]:
    """Return (sigma, ||W - I||), both spectral norms.

    sigma = ||W - (1/n) 11^T||_2, the contraction factor of the consensus
    step on the disagreement subspace. A disconnected graph would give
    sigma = 1 and is rejected.
    """
    W = wm.W
    n = wm.n
    evals = np.linalg.eigvalsh(W - np.full((n, n), 1.0 / n))
    sigma = float(np.max(np.abs(evals)))
    if sigma >= 1.0 - 1e-10:
        raise TopologyError(
            f"consensus does not contract (sigma = {sigma}); graph is likely disconnected"
        )
    w_evals = np.linalg.eigvalsh(W)
    w_minus_i_norm = float(np.max(np.abs(w_evals - 1.0)))
    return sigma, w_minus_i_norm
