"""Shared fixtures and a suite-wide gate on trajectory invariants.

Every simulated trajectory must satisfy the structural identities of its
update rule (zero-sum auxiliary rows, the mean-state recursion, the unrolled
running-sum form, gradient tracking) to 1e-12 at every step.  The engine
already measures the worst violation per run; wrapping its batch kernel here
enforces the bound on every run launched by any test in the suite, not just
the ones that think to ask. A residual-only run checks no invariant, so the
gate runs its trajectory again in full, checks that run's invariants and
requires the two residuals to be equal bit for bit.
"""

import concurrent.futures

import numpy as np
import pytest

import dpdopt
from dpdopt import ScheduleParams, engine

INVARIANT_TOL = 1e-12


@pytest.fixture(autouse=True, scope="session")
def invariant_gate():
    orig = engine._batched

    def gated(*args, **kwargs):
        trace = orig(*args, **kwargs)
        full = orig(*args) if kwargs.get("residual_only") else trace
        for key, per_trial in full.diagnostics.items():
            worst = float(per_trial.max())
            assert worst <= INVARIANT_TOL, (
                f"{trace.algorithm}: {key} = {worst:.3e} exceeds {INVARIANT_TOL:g}"
            )
        assert trace.residual.tobytes() == full.residual.tobytes(), (
            f"{trace.algorithm}: the residual-only residual differs from the full run's"
        )
        return trace

    engine._batched = gated
    yield
    engine._batched = orig


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands a pool in for concurrent.futures.ProcessPoolExecutor that runs
    each task in this process as it is submitted, so no worker process
    starts. Returns the pools made in the test, in order, each with its
    max_workers, its task count and whether it was shut down."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers, self.tasks, self.shut = max_workers, 0, False
            pools.append(self)

        def submit(self, fn, *args):
            self.tasks += 1
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            self.shut = True

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools


@pytest.fixture(scope="session")
def er10():
    g = dpdopt.connected_erdos_renyi(10, 0.35, seed=0)
    return g, dpdopt.metropolis_weights(g)


@pytest.fixture(scope="session")
def problem10():
    return dpdopt.random_problem(10, 3, 2, (0.5, 1.5), seed=0)


@pytest.fixture
def sched():
    return ScheduleParams(
        gamma=0.05, beta=10.0, q1=0.97, q2=0.99, epsilon=1.0, delta=1.0
    )


def all_close(a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.all(np.abs(a - b) <= tol)
