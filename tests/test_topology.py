"""Graphs, Metropolis weights, spectral constants, and file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdopt import (
    Graph,
    TopologyError,
    WeightMatrix,
    connected_erdos_renyi,
    metropolis_weights,
    ring,
    spectral_constants,
)
from dpdopt.topology import erdos_renyi, is_connected


def test_ring_structure():
    g = ring(5)
    assert g.n == 5
    assert len(g.edges) == 5
    assert np.all(g.degrees == 2)
    assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert ring(3).edges == ((0, 1), (0, 2), (1, 2))


def test_ring_rejects_tiny():
    with pytest.raises(TopologyError):
        ring(2)


@pytest.mark.parametrize(
    "edges",
    [((0, 3),), ((1, 1),), ((2, 1),), ((0, 1), (0, 1))],
    ids=["out-of-range", "self-loop", "unordered", "duplicate"],
)
def test_graph_validation(edges):
    with pytest.raises(TopologyError):
        Graph(3, edges)


def test_erdos_renyi_pinned():
    a = erdos_renyi(12, 0.3, seed=7)
    b = erdos_renyi(12, 0.3, seed=7)
    assert a.edges == b.edges
    assert erdos_renyi(6, 0.0, seed=1).edges == ()
    full = erdos_renyi(6, 1.0, seed=1)
    assert len(full.edges) == 15
    with pytest.raises(TopologyError):
        erdos_renyi(5, 1.5, seed=0)


def test_connected_erdos_renyi():
    g = connected_erdos_renyi(10, 0.35, seed=0)
    assert is_connected(g)
    with pytest.raises(TopologyError):
        connected_erdos_renyi(4, 0.0, seed=0, max_tries=3)


def test_is_connected():
    assert is_connected(Graph(1, ()))
    assert is_connected(Graph(3, ((0, 1), (1, 2))))
    assert not is_connected(Graph(4, ((0, 1), (2, 3))))


def test_metropolis_weights_ring4():
    wm = metropolis_weights(ring(4))
    # every node has degree 2, so each edge weight is 1/3 and the diagonal
    # absorbs the remaining 1/3
    expect = np.array(
        [
            [1 / 3, 1 / 3, 0.0, 1 / 3],
            [1 / 3, 1 / 3, 1 / 3, 0.0],
            [0.0, 1 / 3, 1 / 3, 1 / 3],
            [1 / 3, 0.0, 1 / 3, 1 / 3],
        ]
    )
    assert np.allclose(wm.W, expect, atol=1e-15)


def test_metropolis_requires_connected():
    with pytest.raises(TopologyError):
        metropolis_weights(Graph(4, ((0, 1), (2, 3))))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 20), p_edge=st.floats(0.3, 0.9), seed=st.integers(0, 10_000))
def test_metropolis_weights_properties(n, p_edge, seed):
    g = connected_erdos_renyi(n, p_edge, seed)
    wm = metropolis_weights(g)
    W = wm.W
    assert np.array_equal(W, W.T)
    assert np.min(W) >= 0.0
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)
    deg = g.degrees
    edges = set(g.edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in edges:
                assert W[i, j] == 1.0 / (1.0 + max(deg[i], deg[j]))
            else:
                assert W[i, j] == 0.0


def test_spectral_constants_ring4():
    wm = metropolis_weights(ring(4))
    sigma, w_minus_i = spectral_constants(wm)
    # eigenvalues of the ring-4 matrix are 1, 1/3, -1/3, 1/3
    assert abs(sigma - 1 / 3) < 1e-14
    assert abs(w_minus_i - 4 / 3) < 1e-14


def test_spectral_constants_match_eigensolve(er10):
    _, wm = er10
    sigma, w_minus_i = spectral_constants(wm)
    n = wm.n
    evals = np.linalg.eigvalsh(wm.W)
    # sigma is the largest |eigenvalue| after removing the consensus mode
    off = np.linalg.eigvalsh(wm.W - np.ones((n, n)) / n)
    assert abs(sigma - np.max(np.abs(off))) < 1e-14
    assert abs(w_minus_i - np.max(np.abs(evals - 1.0))) < 1e-14
    assert 0.0 < sigma < 1.0
    assert w_minus_i <= 2.0 + 1e-12


def test_spectral_constants_reject_disconnected():
    W = np.zeros((4, 4))
    W[:2, :2] = 0.5
    W[2:, 2:] = 0.5
    with pytest.raises(TopologyError):
        spectral_constants(WeightMatrix(W))


@pytest.mark.parametrize(
    "W",
    [
        np.ones((2, 3)),
        np.array([[0.5, 0.5], [0.4, 0.6]]),
        np.array([[1.5, -0.5], [-0.5, 1.5]]),
        np.array([[0.5, 0.4], [0.4, 0.5]]),
    ],
    ids=["non-square", "asymmetric", "negative", "bad-rowsum"],
)
def test_weight_matrix_validation(W):
    with pytest.raises(TopologyError):
        WeightMatrix(W)


def _third_with(value, at=(0, 0)):
    W = np.full((3, 3), 1.0 / 3.0)
    W[at] = value
    return W


@pytest.mark.parametrize(
    "W",
    [np.full((3, 3), np.nan), _third_with(np.nan), _third_with(np.inf),
     _third_with(-np.inf, at=(1, 1))],
    ids=["all-nan", "one-nan", "+inf", "-inf"],
)
def test_weight_matrix_rejects_non_finite(W):
    # NaN fails none of the symmetry, sign and row-sum comparisons, so the
    # finite check is the one that must name it
    with pytest.raises(TopologyError, match="^weight matrix has non-finite entries$"):
        WeightMatrix(W)
