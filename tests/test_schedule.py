"""Stepsize/noise schedules, the Laplace transform, and budget accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpdopt import (
    BudgetError,
    ScheduleError,
    ScheduleParams,
    laplace_from_uniform,
    noise_scale,
    privacy_spent,
    spend_from_sensitivities,
    stepsize,
    substream,
)
from dpdopt import schedule


def test_schedule_params_collects_all_problems():
    with pytest.raises(ScheduleError) as exc:
        ScheduleParams(gamma=-1.0, beta=2.0, q1=1.2, q2=0.5, epsilon=0.0, delta=-3.0)
    msg = str(exc.value)
    for frag in ("gamma", "q1", "q2", "epsilon", "delta"):
        assert frag in msg


SCHEDULE = dict(gamma=0.05, beta=10.0, q1=0.97, q2=0.99, epsilon=1.0, delta=1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", list(SCHEDULE))
def test_schedule_params_reject_non_finite(name, value):
    # NaN fails every comparison, so each field is checked as finite on its
    # own: a NaN delta would draw no noise while the ledger reports a spend
    with pytest.raises(ScheduleError, match=f"{name} must be finite, got {value}"):
        ScheduleParams(**{**SCHEDULE, name: value})


def test_schedule_params_non_finite_collected_with_the_rest():
    with pytest.raises(ScheduleError) as exc:
        ScheduleParams(**{**SCHEDULE, "beta": float("nan"), "epsilon": float("inf"), "q1": 2.0})
    msg = str(exc.value)
    for part in ("beta must be finite", "epsilon must be finite", "q1 must be in (0, 1)"):
        assert part in msg


def test_schedule_params_gamma_beta_product():
    with pytest.raises(ScheduleError):
        ScheduleParams(gamma=0.5, beta=3.0, q1=0.9, q2=0.95, epsilon=1.0, delta=1.0)
    # exactly 1 is allowed
    ScheduleParams(gamma=0.5, beta=2.0, q1=0.9, q2=0.95, epsilon=1.0, delta=1.0)


def test_stepsize_and_noise_formulas(sched):
    ks = np.arange(1, 8)
    alpha = stepsize(sched, ks)
    assert np.allclose(alpha, sched.gamma * sched.q1 ** (ks - 1), rtol=1e-15)
    nu = noise_scale(sched, ks)
    nu1 = sched.gamma * sched.delta * sched.q2 / (sched.epsilon * (sched.q2 - sched.q1))
    assert np.allclose(nu, nu1 * sched.q2 ** (ks - 1), rtol=1e-15)
    assert isinstance(stepsize(sched, 3), float)
    # the noise scale must decay strictly slower than the stepsize
    assert np.all(np.diff(alpha / nu) < 0)


def test_iteration_index_validation(sched):
    with pytest.raises(ScheduleError):
        stepsize(sched, 0)
    with pytest.raises(ScheduleError):
        noise_scale(sched, np.array([1, -2]))
    with pytest.raises(ScheduleError):
        stepsize(sched, 1.5)


def test_laplace_matches_inverse_cdf():
    u = np.linspace(0.001, 0.999, 199)
    got = laplace_from_uniform(u, 2.5)
    want = stats.laplace.ppf(u, scale=2.5)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_laplace_zero_scale_and_broadcast():
    u = np.random.default_rng(0).random((4, 3))
    assert np.all(laplace_from_uniform(u, 0.0) == 0.0)
    scales = np.array([0.5, 1.0, 2.0])
    out = laplace_from_uniform(u, scales)
    assert np.array_equal(out, laplace_from_uniform(u, 1.0) * scales)


def test_laplace_sample_moments():
    draws = laplace_from_uniform(substream(1, "m").random(200_000), 3.0)
    assert abs(np.mean(draws)) < 0.05
    assert np.isclose(np.var(draws), 2 * 3.0**2, rtol=0.02)


def test_privacy_spent_closed_form(sched):
    for K in (1, 5, 50):
        spent = privacy_spent(sched, K)
        manual = sum(
            sched.delta * stepsize(sched, k) / noise_scale(sched, k)
            for k in range(1, K + 1)
        )
        assert np.isclose(spent, manual, rtol=1e-12)
        assert np.isclose(spent, sched.epsilon * (1 - (sched.q1 / sched.q2) ** K), rtol=1e-15)


def test_privacy_spent_edge_cases(sched):
    assert privacy_spent(sched, None) == sched.epsilon
    assert privacy_spent(sched, float("inf")) == sched.epsilon
    assert privacy_spent(sched, 0) == 0.0
    noiseless = ScheduleParams(0.05, 10.0, 0.97, 0.99, 1.0, 0.0)
    assert privacy_spent(noiseless, 100) == 0.0
    assert privacy_spent(noiseless, None) == 0.0
    with pytest.raises(ScheduleError):
        privacy_spent(sched, -1)


def test_privacy_spent_underflow_tail(sched):
    # far beyond stepsize underflow (q1^k hits exact zero near k ~ 2.4e4 here)
    spent = privacy_spent(sched, 10**6)
    assert spent <= sched.epsilon
    assert np.isclose(spent, sched.epsilon, rtol=1e-12)


def test_privacy_spent_long_schedule(monkeypatch):
    # fl(q1/q2)^(k-1) and q1^(k-1)/q2^(k-1) round apart about linearly in k:
    # 1.9e-12 relative at k = 1e5 here, which a flat 1e-12 tolerance refused
    sp = ScheduleParams(0.01, 1.0, 0.999, 0.9999, 1.0, 1.0)
    assert privacy_spent(sp, 10**5) == sp.epsilon * (1.0 - (sp.q1 / sp.q2) ** 10**5)
    # a noise scale off by 1e-9 relative is still refused, at any horizon
    monkeypatch.setattr(schedule, "noise_scale", lambda sp, k: noise_scale(sp, k) * (1 + 1e-9))
    for K in (10, 10**6):
        with pytest.raises(BudgetError, match="disagree with the scaled leak ratio"):
            privacy_spent(sp, K)


@settings(max_examples=50, deadline=None)
@given(
    q1=st.floats(0.05, 0.95),
    gap=st.floats(0.001, 0.04),
    eps=st.floats(0.1, 10.0),
    K=st.integers(0, 400),
)
def test_privacy_spent_monotone_and_capped(q1, gap, eps, K):
    q2 = min(q1 + gap, 0.999)
    sp = ScheduleParams(0.1, 5.0, q1, q2, eps, 1.0)
    a = privacy_spent(sp, K)
    b = privacy_spent(sp, K + 1)
    assert 0.0 <= a <= b <= eps
    assert b <= privacy_spent(sp, None)
    # strict increase whenever the true increment is resolvable in floats
    ratio = q1 / q2
    if eps * ratio**K * (1.0 - ratio) > 1e-12:
        assert b > a


def test_spend_from_sensitivities(sched):
    ks = np.arange(1, 21)
    dh = sched.delta * np.asarray(stepsize(sched, ks))
    nus = np.asarray(noise_scale(sched, ks))
    assert np.isclose(spend_from_sensitivities(dh, nus), privacy_spent(sched, 20), rtol=1e-12)
    # halving every sensitivity halves the spend
    assert np.isclose(
        spend_from_sensitivities(dh / 2, nus), privacy_spent(sched, 20) / 2, rtol=1e-12
    )


def test_spend_from_sensitivities_errors():
    with pytest.raises(BudgetError):
        spend_from_sensitivities(np.ones(3), np.ones(4))
    with pytest.raises(BudgetError):
        spend_from_sensitivities(np.array([1.0, -1.0]), np.ones(2))
    with pytest.raises(BudgetError):
        spend_from_sensitivities(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    # zero sensitivity with zero noise is fine and contributes nothing
    assert spend_from_sensitivities(np.zeros(3), np.zeros(3)) == 0.0
