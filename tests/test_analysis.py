"""Sensitivity audits, gain-system bounds, the spectral test, and tuning."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dpdopt import (
    AUDIT_ALGORITHMS,
    AdjacentPair,
    Problem,
    QuadraticCost,
    ScheduleError,
    ScheduleParams,
    accuracy_bound,
    atilde,
    audit_sensitivity,
    build_gain_system,
    compare_sensitivities,
    make_adjacent,
    q1_bound,
    rho_less_than,
    stepsize,
    trial_seed,
    tune,
)
from dpdopt import engine
from dpdopt.engine import _obs_step, _schedule_arrays, _trajectory
from dpdopt.objective import _stacked
from dpdopt.rng import draw_rows


@pytest.fixture(scope="module")
def audit_setup(request):
    _, wm = request.getfixturevalue("er10")
    pr = request.getfixturevalue("problem10")
    pair = make_adjacent(pr, i0=3, delta=1.0, seed=1)
    sp = ScheduleParams(gamma=0.05, beta=10.0, q1=0.97, q2=0.99, epsilon=1.0, delta=1.0)
    return pair, wm, sp


def test_audit_envelope_equals_bound_for_alg1(audit_setup):
    pair, wm, sp = audit_setup
    env = audit_sensitivity(pair, "alg1", wm.W, sp, T=40, trials=50, seed=11)
    # the bias gap enters scaled by alpha_k and the coupled replay cancels
    # everything else, so the envelope equals delta*alpha_k to rounding
    assert np.allclose(env.delta_hat, env.bound, rtol=1e-12, atol=1e-14)
    assert env.off_target_max == 0.0
    assert abs(env.delta_hat[0] - pair.delta * sp.gamma) < 1e-13


def test_audit_envelope_equals_bound_for_dpdgd(audit_setup):
    pair, wm, sp = audit_setup
    env = audit_sensitivity(pair, "dp-dgd", wm.W, sp, T=40, trials=50, seed=11)
    assert np.allclose(env.delta_hat, env.bound, rtol=1e-12, atol=1e-14)
    assert env.off_target_max == 0.0


def two_call_replay(pair, algorithm, W, sp, T, seeds, Zs):
    """The coupled replay as two separate runs on one batch of trials: the
    base and the perturbed problem each step through _obs_step on the shared
    observations Zs[k] (the base run's own states when Zs is None). Returns
    the (base, perturbed) states after each step, the per-k maximum over
    trials of the L1 gap and the largest gap off row i0."""
    alphas = np.asarray(stepsize(sp, np.arange(1, T + 1)))
    others = np.arange(pair.base.n) != pair.i0
    X0 = draw_rows([(np.asarray(seeds), "init")], np.random.Generator.standard_normal,
                   out=np.empty((len(seeds), pair.base.n, pair.base.p)))
    Xb, Xp = X0.copy(), X0.copy()
    Yb, Yp = np.zeros_like(X0), np.zeros_like(X0)
    states, dh, off = [], np.zeros(T), 0.0
    for k in range(T):
        Z = Xb if Zs is None else Zs[k]
        Xb, Yb, _ = _obs_step(algorithm, Xb, Yb, None, Z, W, pair.base, alphas[k], sp.beta)
        Xp, Yp, _ = _obs_step(algorithm, Xp, Yp, None, Z, W, pair.perturbed, alphas[k],
                              sp.beta)
        states.append((Xb, Xp))
        D = np.abs(Xb - Xp)
        dh[k] = D.sum(axis=(1, 2)).max()
        off = max(off, float(D[:, others, :].max()))
    return states, dh, off


def test_audit_base_trajectory_is_engine_trajectory(audit_setup):
    # the audit replays the exact simulator trajectory: rebuild delta_hat
    # from the engine's own yields and a replay of the perturbed problem on
    # them, and require bitwise agreement for every audited dynamic, with
    # and without noise. The stacked trajectory the audit steps must hold
    # the two runs as its members, bit for bit. At n = 10 and p = 2 a batch
    # of 26 trials is 4 160 B and a stacked pair 8 320 B, on either side of
    # the agent sum's 8 KB switch; 1 and 200 trials sit below and above both.
    pair, wm, sp = audit_setup
    T, seed = 12, 123
    stacked = _stacked(pair)
    for params in (sp, replace(sp, delta=0.0)):
        for algorithm in AUDIT_ALGORITHMS:
            for trials in (1, 26, 200):
                where = (params.delta, algorithm, trials)
                env = audit_sensitivity(pair, algorithm, wm.W, params, T, trials, seed)
                seeds = [trial_seed(seed, t) for t in range(trials)]
                schedule = (*_schedule_arrays(params, T), params.beta)
                steps = list(_trajectory(pair.base, wm.W, algorithm, *schedule, seeds))
                Zs = [step[3] for step in steps[1:]] if params.delta > 0.0 else None
                states, dh, off = two_call_replay(pair, algorithm, wm.W, params, T, seeds, Zs)
                pairs = list(_trajectory(stacked, wm.W, algorithm, *schedule, seeds))
                assert np.array_equal(pairs[0][0], steps[0][0]), where
                for k, (base, perturbed) in enumerate(states):
                    assert np.array_equal(base, steps[k + 1][0]), (*where, k)
                    X = pairs[k + 1][0]
                    assert X.shape == (2, *base.shape), (*where, k)
                    assert np.array_equal(X[0], base), (*where, k)
                    assert np.array_equal(X[1], perturbed), (*where, k)
                assert np.array_equal(dh, env.delta_hat), where
                assert off == env.off_target_max == 0.0, where


def test_audit_steps_through_the_engine_generator(audit_setup, monkeypatch):
    # every replayed step is one stacked call of the engine's kernel, the
    # call _trajectory makes: four dynamics, T steps, each chunk on its own
    pair, wm, sp = audit_setup
    T, trials, seed = 9, 20, 5
    calls = []

    def counted(*args):
        calls.append(len(args[4]))  # the trials of the observation Z
        return _obs_step(*args)

    monkeypatch.setattr(engine, "_chunk_size", lambda *args: 7)
    monkeypatch.setattr(engine, "_obs_step", counted)
    compare_sensitivities(pair, wm.W, sp, T, trials, seed)
    assert len(calls) == 4 * T * 3
    assert sorted(calls) == [6] * (4 * T) + [7] * (2 * 4 * T)


def test_audit_schedule_without_noise_is_a_plain_replay(audit_setup, monkeypatch):
    # schedule delta = 0 draws no noise: both runs consume the base run's own
    # states, and every envelope equals a two-call replay bit for bit
    pair, wm, sp = audit_setup
    sp0 = replace(sp, delta=0.0)
    T, trials, seed = 12, 30, 8
    drawn = []

    def counted(entropies, *args, **kwargs):
        drawn.extend(entropy[1] for entropy in entropies)
        return draw_rows(entropies, *args, **kwargs)

    monkeypatch.setattr(engine, "draw_rows", counted)
    rep = compare_sensitivities(pair, wm.W, sp0, T, trials, seed)
    assert drawn == ["trial", "init"]
    seeds = [trial_seed(seed, t) for t in range(trials)]
    bound = pair.delta * np.asarray(stepsize(sp0, np.arange(1, T + 1)))
    for alg in AUDIT_ALGORITHMS:
        _, dh, off = two_call_replay(pair, alg, wm.W, sp0, T, seeds, None)
        env = rep.envelopes[alg]
        assert np.array_equal(env.delta_hat, dh)
        assert env.off_target_max == off
        assert np.array_equal(env.bound, bound)


def test_audit_sees_a_second_moved_agent(audit_setup):
    # a pair whose perturbed problem also moves agent 7's bias is not
    # adjacent; the untouched-row check must see it for every dynamic, so
    # the stacked replay keeps the rows other than i0 live
    pair, wm, sp = audit_setup
    costs = list(pair.perturbed.costs)
    old = costs[7]
    costs[7] = QuadraticCost(old.M, old.v, old.omega, old.bias + np.array([0.3, -0.2]))
    moved = AdjacentPair(pair.base, Problem(tuple(costs), pair.base.p), pair.i0, pair.delta)
    rep = compare_sensitivities(moved, wm.W, sp, T=10, trials=20, seed=2)
    seeds = [trial_seed(2, t) for t in range(20)]
    for alg, env in rep.envelopes.items():
        assert env.off_target_max > 0.0
        steps = list(_trajectory(moved.base, wm.W, alg, *_schedule_arrays(sp, 10), sp.beta,
                                 seeds))
        _, dh, off = two_call_replay(moved, alg, wm.W, sp, 10, seeds,
                                     [step[3] for step in steps[1:]])
        assert np.array_equal(env.delta_hat, dh)
        assert env.off_target_max == off


def test_audit_validation(audit_setup):
    pair, wm, sp = audit_setup
    with pytest.raises(ValueError):
        audit_sensitivity(pair, "gt-noiseless", wm.W, sp, 5, 2, 0)
    with pytest.raises(ValueError):
        audit_sensitivity(pair, "alg1", wm.W, sp, 0, 2, 0)
    # the trial-count and weight-shape faults give the simulator's messages
    trials = "^need at least one trial, got 0$"
    shape = rf"^weight matrix shape \(3, 3\) does not match n={pair.base.n}$"
    with pytest.raises(ValueError, match=trials):
        audit_sensitivity(pair, "alg1", wm.W, sp, 5, 0, 0)
    with pytest.raises(ValueError, match=shape):
        audit_sensitivity(pair, "alg1", np.eye(3), sp, 5, 2, 0)
    with pytest.raises(ValueError, match=trials):
        compare_sensitivities(pair, wm.W, sp, 5, 0, 0)
    with pytest.raises(ValueError, match=shape):
        compare_sensitivities(pair, np.eye(3), sp, 5, 2, 0)


def test_compare_shares_streams_bitwise(audit_setup, monkeypatch):
    # the four replays share one draw of the trial seeds, initial states and
    # noise block, and each envelope equals an audit of its own
    pair, wm, sp = audit_setup
    T, trials, seed = 15, 20, 4
    alone = {alg: audit_sensitivity(pair, alg, wm.W, sp, T, trials, seed)
             for alg in AUDIT_ALGORITHMS}
    draws = []

    def counted(*args, **kwargs):
        draws.append(1)
        return draw_rows(*args, **kwargs)

    monkeypatch.setattr(engine, "draw_rows", counted)
    rep = compare_sensitivities(pair, wm.W, sp, T, trials, seed)
    assert len(draws) == 3
    for alg, env in alone.items():
        shared = rep.envelopes[alg]
        assert np.array_equal(shared.delta_hat, env.delta_hat)
        assert np.array_equal(shared.bound, env.bound)
        assert shared.off_target_max == env.off_target_max
        assert shared.trials == env.trials


def test_compare_report_structure(audit_setup):
    pair, wm, sp = audit_setup
    rep = compare_sensitivities(pair, wm.W, sp, T=15, trials=20, seed=4)
    assert set(rep.envelopes) == set(AUDIT_ALGORITHMS)
    assert set(rep.ordering_gap) == {
        "alg1<=dp-dgd",
        "alg1<=dgd-true-consensus",
        "alg1<=dgd-true-gradient",
        "dp-dgd<=dgd-true-consensus",
        "dp-dgd<=dgd-true-gradient",
    }
    assert set(rep.recursion_gap) == {"dgd-true-consensus", "dgd-true-gradient"}
    # gaps are recomputable from the envelopes they came from
    gap = rep.envelopes["alg1"].delta_hat - rep.envelopes["dp-dgd"].delta_hat
    assert rep.ordering_gap["alg1<=dp-dgd"] == float(np.max(gap))
    assert rep.ordering_holds("alg1<=dp-dgd") == (rep.ordering_gap["alg1<=dp-dgd"] <= 1e-12)
    # the noisy-everything dynamics coincide with the bound, so this leg holds
    assert rep.ordering_holds("alg1<=dp-dgd")
    # the true-consensus recursion is contractive around its own envelope
    assert rep.recursion_holds("dgd-true-consensus")


def test_gain_system_frozen_values():
    gs = build_gain_system(
        mu=1.0, L=1.0, sigma=0.5, q1=0.5, alpha_next=0.1, alpha_k=0.2,
        nu_k=1.0, nu_next=2.0, n=2, p=3, w_minus_i_norm=1.5,
    )
    expect_A = np.array(
        [
            [0.9, 0.05, 0.0],
            [0.24, 0.87, 0.81],
            [0.26 / 0.75, 9.9233333333333333, 0.9425],
        ]
    )
    expect_b = np.array([31.2, 686.304, 1005.088])
    assert np.allclose(gs.A, expect_A, rtol=1e-13)
    assert np.allclose(gs.b, expect_b, rtol=1e-13)
    assert np.all(gs.A >= 0.0) and np.all(gs.b >= 0.0)
    assert gs.A[0, 2] == 0.0


def test_gain_system_validation():
    ok = dict(
        mu=1.0, L=1.0, sigma=0.5, q1=0.5, alpha_next=0.1, alpha_k=0.2,
        nu_k=1.0, nu_next=2.0, n=2, p=3, w_minus_i_norm=1.5,
    )
    for bad in (
        {"sigma": 1.0},
        {"sigma": -0.1},
        {"mu": 0.0},
        {"L": -1.0},
        {"q1": 1.0},
        {"alpha_k": -0.1},
        {"n": 0},
        {"w_minus_i_norm": -1.0},
        {"alpha_next": 1.5},
    ):
        with pytest.raises(ValueError):
            build_gain_system(**{**ok, **bad})
    # a complete graph's Metropolis weights are exactly 11^T/n: sigma = 0
    build_gain_system(**{**ok, "sigma": 0.0})


def test_atilde_frozen_values():
    # sigma = 1/3, ||W - I|| = 4/3 (the 4-cycle): exact rational entries
    A = atilde(1 / 3, 0.05, 4 / 3)
    expect = np.array([[19 / 27, 19 * 0.05**2 / 8], [56 / 9, 7 / 9]])
    assert np.allclose(A, expect, rtol=1e-14)
    # and it is exactly the lower-right block of the full system at alpha = 0
    gs = build_gain_system(1.0, 1.0, 1 / 3, 0.05, 0.0, 0.0, 0.0, 0.0, 1, 1, 4 / 3)
    assert np.array_equal(A, gs.A[1:, 1:])
    assert np.all(gs.b == 0.0)


def test_rho_less_than_matches_eigensolve():
    rng = np.random.default_rng(123)
    for _ in range(500):
        d = int(rng.integers(2, 4))
        M = rng.random((d, d)) * rng.uniform(0.2, 3.0)
        lam = float(np.max(np.diag(M))) + rng.uniform(0.05, 2.0)
        want = np.max(np.abs(np.linalg.eigvals(M))) < lam
        assert rho_less_than(M, lam) == want


def test_rho_less_than_edge_cases():
    assert rho_less_than(np.zeros((2, 2)), 0.5)
    aa = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert not rho_less_than(aa, 1.0)  # rho = 2
    assert rho_less_than(aa, 2.5)
    with pytest.raises(ValueError):
        rho_less_than(np.zeros((4, 4)), 1.0)
    with pytest.raises(ValueError):
        rho_less_than(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        rho_less_than(np.array([[0.1, -0.2], [0.0, 0.1]]), 1.0)
    with pytest.raises(ValueError):
        rho_less_than(np.array([[1.0, 0.0], [0.0, 0.1]]), 1.0)


def test_q1_bound_formula():
    sigma, theta, w = 1 / 3, 2.0, 4 / 3
    got = q1_bound(sigma, theta, w)
    om = 1 - sigma**2
    want = math.sqrt(om**4 / (48 * (theta + 1) * (2 + sigma**2) * (3 + sigma**2) * w**2))
    assert got == want
    assert abs(got - 0.019269110433869332) < 1e-18
    # tighter mixing certifies a larger q1
    assert q1_bound(0.1) > q1_bound(0.9)


def test_accuracy_bound_structure():
    kw = dict(epsilon=1.0, delta=1.0, mu=1.0, L=4.0, n=10, p=2, c1=1.0, c2=1.0)
    b = accuracy_bound(0.05, 0.9, 0.95, **kw)
    assert b > 0
    # scales down as the budget loosens
    assert accuracy_bound(0.05, 0.9, 0.95, **{**kw, "epsilon": 10.0}) < b
    # the noiseless bound keeps only the forgetting and bias terms
    b0 = accuracy_bound(0.05, 0.9, 0.95, **{**kw, "delta": 0.0})
    want = math.exp(-1.0 * 0.05 / 0.1) * 1.0 + 0.05 * 16.0 / (10 * 1.0 * 0.1)
    assert np.isclose(b0, want, rtol=1e-12)
    with pytest.raises(Exception):
        accuracy_bound(0.05, 0.95, 0.9, **kw)
    with pytest.raises(Exception):
        accuracy_bound(-0.05, 0.9, 0.95, **kw)
    with pytest.raises(ScheduleError, match="q1 must be in"):
        accuracy_bound(0.05, 1.0, 1.5, **kw)
    for bad in ({"c1": -1.0}, {"n": 0}):
        with pytest.raises(ValueError):
            accuracy_bound(0.05, 0.9, 0.95, **{**kw, **bad})
    for name in ("epsilon", "delta", "mu", "L", "c1", "c2"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"must be finite, got {name}={value}"):
                accuracy_bound(0.05, 0.9, 0.95, **{**kw, name: value})
            with pytest.raises(ValueError, match=f"must be finite, got {name}={value}"):
                tune(**{**kw, name: value}, restarts=1)
    with pytest.raises(ValueError, match="must be finite, got gamma=nan"):
        accuracy_bound(float("nan"), 0.9, 0.95, **kw)


def test_accuracy_bound_is_inf_when_a_power_overflows():
    # L**2, or gamma**2 and gamma**3, leave the floats and raise OverflowError
    # in Python; the bound is then inf, as when the noise term overflows
    for args in ((0.1, 0.5, 0.9, 1.0, 0.0, 1.0, 1e200, 3, 1, 1.0, 1.0),
                 (0.1, 0.5, 0.9, 1.0, 0.0, 1e-300, 1e160, 3, 1, 1.0, 1.0),
                 (1e200, 0.5, 0.9, 1.0, 1.0, 1.0, 2.0, 3, 1, 1.0, 1.0)):
        assert accuracy_bound(*args) == math.inf


def test_tune_reproducible_and_not_beaten_by_probes():
    args = dict(epsilon=1.0, delta=1.0, mu=0.8, L=6.0, n=10, p=2, c1=1.0, c2=1.0)
    g, a, b, val = tune(**args, restarts=3, seed=0)
    assert (g, a, b, val) == tune(**args, restarts=3, seed=0)
    assert 1e-6 <= g <= 2.0 / (0.8 + 6.0)
    assert 1e-4 <= a < b <= 0.9999
    assert np.isclose(val, accuracy_bound(g, a, b, **args), rtol=1e-12)
    rng = np.random.default_rng(99)
    for _ in range(200):
        gg = rng.uniform(1e-6, 2.0 / 6.8)
        aa = rng.uniform(1e-4, 0.99)
        bb = rng.uniform(aa + 1e-4, 0.9999)
        assert val <= accuracy_bound(gg, aa, bb, **args) + 1e-15
    with pytest.raises(ValueError):
        tune(**args, restarts=0)


def test_audit_chunks_are_bitwise_one_block(audit_setup, monkeypatch):
    # the audit replays the simulator's _chunk_size chunks; one trial per chunk
    # gives the same envelopes, untouched-row maxima and checks bit for bit
    pair, wm, sp = audit_setup
    T, trials, seed = 12, 5, 6
    whole = compare_sensitivities(pair, wm.W, sp, T, trials, seed)
    one_whole = audit_sensitivity(pair, "dgd-true-gradient", wm.W, sp, T, trials, seed)
    monkeypatch.setattr(engine, "_chunk_size", lambda *args: 1)
    chunked = compare_sensitivities(pair, wm.W, sp, T, trials, seed)
    for alg, env in whole.envelopes.items():
        other = chunked.envelopes[alg]
        assert np.array_equal(other.delta_hat, env.delta_hat)
        assert np.array_equal(other.bound, env.bound)
        assert other.off_target_max == env.off_target_max
        assert other.trials == env.trials == trials
    assert chunked.ordering_gap == whole.ordering_gap
    assert chunked.recursion_gap == whole.recursion_gap
    one_chunked = audit_sensitivity(pair, "dgd-true-gradient", wm.W, sp, T, trials, seed)
    assert np.array_equal(one_chunked.delta_hat, one_whole.delta_hat)
    assert one_chunked.off_target_max == one_whole.off_target_max
