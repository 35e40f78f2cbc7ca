"""Quadratic costs, optimums, and one-agent bias perturbations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdopt import (
    AdjacentPair,
    Problem,
    ProblemError,
    QuadraticCost,
    make_adjacent,
    optimum,
    random_problem,
)
from dpdopt.objective import _stacked


def _finite_diff(cost, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (cost.value(x + e) - cost.value(x - e)) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    cost = QuadraticCost(rng.standard_normal((4, 3)), rng.standard_normal(4), 0.7, rng.standard_normal(3))
    x = rng.standard_normal(3)
    assert np.allclose(cost.gradient(x), _finite_diff(cost, x), atol=1e-5)
    # closed form: 2 M^T (M x - v) + 2 omega x + bias
    expect = 2 * cost.M.T @ (cost.M @ x - cost.v) + 2 * cost.omega * x + cost.bias
    assert np.allclose(cost.gradient(x), expect, atol=1e-12)


def test_value_formula():
    rng = np.random.default_rng(1)
    cost = QuadraticCost(rng.standard_normal((5, 2)), rng.standard_normal(5), 0.3, rng.standard_normal(2))
    x = rng.standard_normal(2)
    r = cost.v - cost.M @ x
    assert np.isclose(cost.value(x), r @ r + 0.3 * x @ x + cost.bias @ x)


def test_curvature_constants_are_hessian_eigenvalues():
    rng = np.random.default_rng(2)
    cost = QuadraticCost(rng.standard_normal((6, 4)), rng.standard_normal(6), 0.9, np.zeros(4))
    evals = np.linalg.eigvalsh(cost.hess)
    assert np.isclose(cost.strong_convexity, evals[0], rtol=1e-12)
    assert np.isclose(cost.smoothness, evals[-1], rtol=1e-12)
    assert cost.strong_convexity >= 2 * 0.9 - 1e-12


def test_cost_shape_validation():
    with pytest.raises(ProblemError):
        QuadraticCost(np.ones((3, 2)), np.ones(4), 0.1, np.zeros(2))
    with pytest.raises(ProblemError):
        QuadraticCost(np.ones((3, 2)), np.ones(3), 0.1, np.zeros(3))


def test_problem_batched_gradients(problem10):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, problem10.n, problem10.p))
    G = problem10.gradients(X)
    assert G.shape == X.shape
    for t in range(5):
        for i, c in enumerate(problem10.costs):
            assert np.allclose(G[t, i], c.gradient(X[t, i]), atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize(
    "lead, sliced",
    [((), False), ((7,), False), ((1,), False), ((200,), False), ((3, 64), False),
     ((200,), True)],
    ids=["n-p", "t-n-p", "1-n-p", "200-n-p", "3-64-n-p", "slice-of-4d"],
)
def test_gradients_equal_einsum_bitwise(p, lead, sliced):
    # the p = 2 column path reads the strided views X[..., j]; the larger
    # leading shapes give it long inner loops, and the slice makes X itself
    # non-contiguous
    pr = random_problem(9, 3, p, (0.1, 1.0), seed=p)
    rng = np.random.default_rng(p)
    if sliced:
        X = rng.standard_normal((lead[0], 5, pr.n, p))[:, 2]
        assert not X.flags.c_contiguous
    else:
        X = rng.standard_normal((*lead, pr.n, p))
    before = [a.copy() for a in (X, pr.hess_stack, pr.lin_stack)]
    G = pr.gradients(X)
    want = np.einsum("nij,...nj->...ni", pr.hess_stack, X) + pr.lin_stack
    assert G.shape == want.shape
    assert G.tobytes() == want.tobytes()
    for a, b in zip((X, pr.hess_stack, pr.lin_stack), before):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 26, 200])
def test_member_stacked_gradients_are_each_problems(p, trials):
    # the audit's replay stacks the base and perturbed linear terms as
    # (2, 1, n, p); at a shared point or at a pair of states, member m of
    # the gradients is problem m's own, bit for bit, and nothing is written
    pr = random_problem(10, 3, p, (0.5, 1.5), seed=p)
    pair = make_adjacent(pr, i0=3, delta=1.0, seed=1)
    stacked = _stacked(pair)
    assert stacked.lin_stack.shape == (2, 1, pr.n, p)
    assert pair.base.lin_stack.shape == (pr.n, p)
    rng = np.random.default_rng(trials)
    shared = rng.standard_normal((trials, pr.n, p))
    pairs = rng.standard_normal((2, trials, pr.n, p))
    before = [a.copy() for a in (shared, pairs, stacked.lin_stack)]
    G = stacked.gradients(shared)
    assert G.shape == (2, trials, pr.n, p)
    assert G[0].tobytes() == pair.base.gradients(shared).tobytes()
    assert G[1].tobytes() == pair.perturbed.gradients(shared).tobytes()
    G = stacked.gradients(pairs)
    assert G.shape == (2, trials, pr.n, p)
    assert G[0].tobytes() == pair.base.gradients(pairs[0]).tobytes()
    assert G[1].tobytes() == pair.perturbed.gradients(pairs[1]).tobytes()
    for a, b in zip((shared, pairs, stacked.lin_stack), before):
        assert a.tobytes() == b.tobytes()


def test_stacking_needs_shared_curvature():
    pr = random_problem(4, 3, 2, (0.5, 1.5), seed=0)
    other = random_problem(4, 3, 2, (0.5, 1.5), seed=1)
    with pytest.raises(ProblemError, match="share their curvature"):
        _stacked(AdjacentPair(pr, other, 0, 1.0))


def test_problem_validation():
    with pytest.raises(ProblemError):
        Problem((), 2)
    c1 = QuadraticCost(np.ones((2, 2)), np.ones(2), 0.5, np.zeros(2))
    c2 = QuadraticCost(np.ones((2, 3)), np.ones(2), 0.5, np.zeros(3))
    with pytest.raises(ProblemError):
        Problem((c1, c2), 2)


def test_optimum_is_stationary(problem10):
    xstar = optimum(problem10)
    total = problem10.gradients(np.broadcast_to(xstar, (problem10.n, problem10.p))).sum(axis=0)
    assert np.linalg.norm(total) < 1e-10


def test_optimum_singular_raises():
    flat = QuadraticCost(np.zeros((2, 2)), np.zeros(2), 0.0, np.zeros(2))
    with pytest.raises(ProblemError):
        optimum(Problem((flat, flat), 2))


def test_random_problem_reproducible():
    a = random_problem(6, 3, 2, (0.5, 1.5), seed=11)
    b = random_problem(6, 3, 2, (0.5, 1.5), seed=11)
    for ca, cb in zip(a.costs, b.costs):
        assert np.array_equal(ca.M, cb.M)
        assert np.array_equal(ca.v, cb.v)
        assert ca.omega == cb.omega
    assert a.strong_convexity > 0.0
    assert all(0.5 <= c.omega <= 1.5 for c in a.costs)
    assert all(np.all(c.bias == 0.0) for c in a.costs)


def test_random_problem_errors():
    with pytest.raises(ProblemError):
        random_problem(3, 2, 2, (1.5, 0.5), seed=0)
    with pytest.raises(ProblemError):
        random_problem(3, 2, 2, (-100.0, -100.0), seed=0, max_tries=3)


def test_make_adjacent_gradient_gap(problem10):
    pair = make_adjacent(problem10, i0=4, delta=0.75, seed=9)
    assert pair.base is problem10
    assert pair.i0 == 4 and pair.delta == 0.75
    c = pair.perturbed.costs[4].bias - pair.base.costs[4].bias
    assert np.isclose(np.abs(c).sum(), 0.75, rtol=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(5):
        X = rng.standard_normal((problem10.n, problem10.p))
        d = pair.perturbed.gradients(X) - pair.base.gradients(X)
        # only agent i0 moves, by the bias gap c at every point (up to the
        # last-ulp wobble of summing c into gradients of varying magnitude)
        assert np.all(d[np.arange(problem10.n) != 4] == 0.0)
        assert np.allclose(d[4], c, atol=1e-12)


def test_make_adjacent_pinned_direction(problem10):
    d0 = np.array([2.0, 0.0])
    pair = make_adjacent(problem10, i0=0, delta=0.5, seed=0, direction=d0)
    c = pair.perturbed.costs[0].bias - pair.base.costs[0].bias
    assert np.allclose(c, [0.5, 0.0], atol=1e-15)


def test_make_adjacent_zero_delta_twin(problem10):
    pair = make_adjacent(problem10, i0=1, delta=0.0, seed=0)
    assert np.array_equal(pair.perturbed.costs[1].bias, pair.base.costs[1].bias)


def test_make_adjacent_errors(problem10):
    with pytest.raises(ProblemError):
        make_adjacent(problem10, i0=10, delta=1.0, seed=0)
    with pytest.raises(ProblemError):
        make_adjacent(problem10, i0=0, delta=-1.0, seed=0)
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ProblemError, match="must be finite"):
            make_adjacent(problem10, i0=0, delta=delta, seed=0)
    with pytest.raises(ProblemError):
        make_adjacent(problem10, i0=0, delta=1.0, seed=0, direction=np.zeros(2))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 500), data=st.data())
def test_gradient_monotonicity_bounds(seed, data):
    pr = random_problem(4, 3, 2, (0.2, 1.0), seed=seed)
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    x = rng.standard_normal(pr.p)
    y = rng.standard_normal(pr.p)
    mu, L = pr.strong_convexity, pr.smoothness
    for c in pr.costs:
        inner = float((c.gradient(x) - c.gradient(y)) @ (x - y))
        nsq = float((x - y) @ (x - y))
        assert inner >= mu * nsq - 1e-9
        assert inner <= L * nsq + 1e-9
