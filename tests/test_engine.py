"""Simulation engine: determinism, stream layout, metrics, and step kernels."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdopt import (
    ALGORITHMS,
    AUDIT_ALGORITHMS,
    DivergenceError,
    ScheduleError,
    ScheduleParams,
    connected_erdos_renyi,
    engine,
    laplace_from_uniform,
    metropolis_weights,
    monte_carlo,
    noise_scale,
    optimum,
    random_problem,
    run,
    stepsize,
    substream,
    trial_seed,
)
from dpdopt.engine import _obs_step, _trajectory
from dpdopt.rng import draw_rows

NOISELESS = ScheduleParams(gamma=0.002, beta=500.0, q1=0.97, q2=0.99, epsilon=1.0, delta=0.0)


@pytest.fixture(scope="module")
def setup(request):
    er10 = request.getfixturevalue("er10")
    problem10 = request.getfixturevalue("problem10")
    _, wm = er10
    sp = ScheduleParams(gamma=0.05, beta=10.0, q1=0.97, q2=0.99, epsilon=1.0, delta=1.0)
    return problem10, wm, sp


def trajectory(pr, W, sp, algorithm, T, seeds, schedule=None):
    """The engine's generator on schedule, its (alphas, nus), or else on the
    arrays a run of sp steps."""
    constant = engine._DYNAMICS[algorithm].constant
    alphas, nus = schedule or engine._schedule_arrays(sp, T, constant)
    return _trajectory(pr, W, algorithm, alphas, nus, sp.beta, seeds)


def one_trial(pr, W, sp, algorithm, T, seed, schedule=None):
    """The engine's yields for one trial: lists of X(k), Y(k) for k = 0..T
    and of the observation Z step k consumed, for k = 1..T."""
    X, Y, Z = [], [], []
    for Xk, Yk, _, Zk, _ in trajectory(pr, W, sp, algorithm, T, [seed], schedule):
        X.append(Xk[0])
        Y.append(Yk[0])
        if Zk is not None:
            Z.append(Zk[0])
    return X, Y, Z


def test_run_deterministic(setup):
    pr, wm, sp = setup
    a = run(pr, wm.W, sp, "alg1", 20, seed=5)
    b = run(pr, wm.W, sp, "alg1", 20, seed=5)
    assert np.array_equal(a.residual, b.residual)
    assert np.array_equal(a.step_norm, b.step_norm)
    c = run(pr, wm.W, sp, "alg1", 20, seed=6)
    assert not np.array_equal(a.residual, c.residual)


SERIES = ("residual", "consensus_err", "mean_err", "step_norm")


def test_trace_layout(setup):
    # one trial-major record: C-contiguous (trials, T + 1) series and one
    # (trials,) array per diagnostic; run gives the one-row record
    pr, wm, sp = setup
    trace = monte_carlo(pr, wm.W, sp, "alg1", 15, trials=4, seed=77)
    single = run(pr, wm.W, sp, "alg1", 15, seed=5)
    for tr, trials in ((trace, 4), (single, 1)):
        assert len(tr) == trials
        for name in SERIES:
            series = getattr(tr, name)
            assert series.shape == (trials, 16)
            assert series.flags.c_contiguous
        assert set(tr.diagnostics) == {"y_mean_abs_max", "mean_dynamics_resid_max"}
        for per_trial in tr.diagnostics.values():
            assert per_trial.shape == (trials,)
    assert (trace.algorithm, trace.iterations) == ("alg1", 15)


def test_trace_equality_is_identity(setup):
    # numpy fields make a field-wise == ambiguous; traces compare by identity
    pr, wm, sp = setup
    first = run(pr, wm.W, sp, "alg1", 15, seed=5)
    second = run(pr, wm.W, sp, "alg1", 15, seed=5)
    assert (first == second) is False
    assert first == first
    assert first != second
    for name in SERIES:
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_monte_carlo_matches_run(setup):
    pr, wm, sp = setup
    trace = monte_carlo(pr, wm.W, sp, "alg1", 15, trials=4, seed=77)
    for t in range(len(trace)):
        single = run(pr, wm.W, sp, "alg1", 15, seed=trial_seed(77, t))
        for name in SERIES:
            assert np.array_equal(getattr(trace, name)[t], getattr(single, name)[0])


def assert_same_trace(a, b):
    for name in SERIES:
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert getattr(b, name).flags.c_contiguous
    assert a.diagnostics.keys() == b.diagnostics.keys()
    for key, per_trial in a.diagnostics.items():
        assert np.array_equal(per_trial, b.diagnostics[key])


def test_monte_carlo_jobs_and_chunks(setup, monkeypatch):
    # the parts of an ensemble run in several chunks, serially or over a
    # process pool (jobs = 3 with one trial per chunk), join into the record
    # one chunk gives; chunks of 4 leave a last part of 2
    pr, wm, sp = setup
    base = monte_carlo(pr, wm.W, sp, "dp-dgd", 10, trials=6, seed=3)
    assert_same_trace(base, monte_carlo(pr, wm.W, sp, "dp-dgd", 10, trials=6, seed=3, jobs=2))
    for chunk, jobs in ((2, 1), (4, 1), (1, 3)):
        monkeypatch.setattr(engine, "_chunk_size", lambda *args, chunk=chunk: chunk)
        alt = monte_carlo(pr, wm.W, sp, "dp-dgd", 10, trials=6, seed=3, jobs=jobs)
        assert_same_trace(base, alt)


def assert_split(pieces, seeds, chunk, jobs):
    """The one-level split: the seeds in order, in min(trials, max(jobs,
    ceil(trials / chunk))) pieces of at most chunk trials, their lengths
    within one of each other."""
    trials = len(seeds)
    assert [s for piece in pieces for s in piece] == seeds
    assert len(pieces) == min(trials, max(jobs, -(-trials // chunk)))
    lengths = [len(piece) for piece in pieces]
    assert max(lengths) <= chunk
    assert max(lengths) - min(lengths) <= 1


@pytest.mark.parametrize(
    "trials,chunk,jobs",
    [(7, 7, 1), (7, 7, 3), (7, 2, 3), (7, 4, 3), (3, 3, 64), (6, 4, 1), (10, 4, 2)],
)
def test_ensemble_pieces(setup, monkeypatch, trials, chunk, jobs):
    # the trials split once, into as many pieces as the jobs or the chunks
    # need, whichever is more: 7 trials in chunks of 4 for 3 jobs are 3, 2, 2
    pr, wm, sp = setup
    monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
    _, pieces = engine._ensemble(pr, wm.W, sp, "alg1", 5, trials, 3, pieces=jobs)
    assert_split(pieces, [trial_seed(3, t) for t in range(trials)], chunk, jobs)
    if (trials, chunk, jobs) == (7, 4, 3):
        assert [len(piece) for piece in pieces] == [3, 2, 2]


@settings(max_examples=200, deadline=None)
@given(trials=st.integers(1, 80), chunk=st.integers(1, 90), jobs=st.integers(1, 100))
def test_ensemble_split_rule(setup, trials, chunk, jobs):
    pr, wm, sp = setup
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_chunk_size", lambda *args: chunk)
        _, pieces = engine._ensemble(pr, wm.W, sp, "alg1", 5, trials, 3, pieces=jobs)
    assert_split(pieces, engine._trial_seeds(3, trials), chunk, jobs)


def test_pool_shuts_down_when_a_piece_raises(setup, monkeypatch, inline_pool):
    pr, wm, sp = setup

    def failing(*args, **kwargs):
        raise MemoryError("no room for the noise block")

    monkeypatch.setattr(engine, "_batched", failing)
    with pytest.raises(MemoryError):
        monte_carlo(pr, wm.W, sp, "alg1", 5, trials=4, seed=3, jobs=2)
    assert [(pool.max_workers, pool.tasks, pool.shut) for pool in inline_pool] == [(1, 1, True)]


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_residual_only_trace(p, chunk, er10, monkeypatch, inline_pool):
    # a residual-only ensemble holds the full run's residual bit for bit and
    # nothing else, however its trials are chunked and split over jobs
    _, wm = er10
    pr = random_problem(10, 3, p, (0.5, 1.5), seed=0)
    if chunk is not None:
        monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
    for algorithm in ALGORITHMS:
        sp = NOISELESS if algorithm in engine._CONSTANT_STEP else replace(NOISELESS, delta=1.0)
        for jobs in (1, 3):
            full = monte_carlo(pr, wm.W, sp, algorithm, 12, trials=5, seed=8, jobs=jobs)
            lean = monte_carlo(pr, wm.W, sp, algorithm, 12, trials=5, seed=8, jobs=jobs,
                               residual_only=True)
            assert lean.residual.tobytes() == full.residual.tobytes()
            assert lean.residual.flags.c_contiguous
            assert (lean.consensus_err, lean.mean_err, lean.step_norm) == (None, None, None)
            assert lean.diagnostics == {}


def test_state_divergence_outranks_series_overflow(setup, monkeypatch):
    # one batch raises at its first non-finite state at once, and only a run
    # whose states all stay finite reports an overflowing series, at its
    # end; so a split ensemble raises a piece's state divergence before an
    # earlier series overflow of another piece
    pr, wm, sp = setup
    errors = {0: DivergenceError("series", iteration=3, trial=0, series="residual"),
              1: DivergenceError("state", iteration=9, trial=0),
              2: DivergenceError("later state", iteration=9, trial=0)}
    seeds = engine._trial_seeds(3, 3)

    def raising(pr, W, sp, algorithm, T, piece, *args, **kwargs):
        raise errors[seeds.index(piece[0])]

    monkeypatch.setattr(engine, "_chunk_size", lambda *args: 1)
    monkeypatch.setattr(engine, "_batched", raising)
    with pytest.raises(DivergenceError, match="^state$") as caught:
        monte_carlo(pr, wm.W, sp, "alg1", 20, trials=3, seed=3)
    assert caught.value.trial == 1


def test_trace_metric_definitions(setup):
    pr, wm, sp = setup
    tr = run(pr, wm.W, sp, "alg1", 8, seed=1)
    X, _, _ = one_trial(pr, wm.W, sp, "alg1", 8, seed=1)
    assert len(X) == 9
    for k in range(9):
        diff = X[k] - tr.xstar
        assert np.isclose(tr.residual[0, k], np.sum(diff * diff), rtol=1e-13)
        xbar = X[k].mean(axis=0)
        dev = X[k] - xbar
        assert np.isclose(tr.consensus_err[0, k], np.sum(dev * dev), rtol=1e-13)
        assert np.isclose(tr.mean_err[0, k], np.sum((xbar - tr.xstar) ** 2), rtol=1e-13)
        if k:
            sd = X[k] - X[k - 1]
            assert np.isclose(tr.step_norm[0, k], np.sum(sd * sd), rtol=1e-13)
    assert tr.step_norm[0, 0] == 0.0
    assert tr.iterations == 8
    assert tr.algorithm == "alg1"


def test_noise_stream_layout(setup):
    pr, wm, sp = setup
    seed = 41
    X, _, Z = one_trial(pr, wm.W, sp, "alg1", 6, seed)
    # the observation at iteration k+1 is X(k) plus Laplace noise drawn by
    # inverse CDF from column k of one preallocated uniform block; the noise
    # scales come from the vectorized schedule (numpy's vector pow can differ
    # from the scalar one in the last ulp, so index the array form)
    U = substream(seed, "noise").random((6, pr.n, pr.p))
    nus = np.asarray(noise_scale(sp, np.arange(1, 7)))
    for k in range(6):
        Xi = laplace_from_uniform(U[k], nus[k])
        assert np.array_equal(Z[k], X[k] + Xi)
    X0 = substream(seed, "init").standard_normal((pr.n, pr.p))
    assert np.array_equal(X[0], X0)


@pytest.mark.parametrize("chunk", [None, 3])
def test_noise_block_is_each_trials_laplace_stream(setup, monkeypatch, chunk):
    # row k of trial s's noise is laplace_from_uniform of row k of
    # substream(s, "noise"), bit for bit, in one chunk or in chunks of 3
    pr, wm, sp = setup
    T, trials = 5, 7
    if chunk is not None:
        monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
    _, chunks = engine._ensemble(pr, wm.W, sp, "alg1", T, trials, seed=3)
    assert len(chunks) == (1 if chunk is None else 3)
    nus = np.asarray(noise_scale(sp, np.arange(1, T + 1)))
    for seeds in chunks:
        X0, noise = engine._draw_streams(seeds, pr.n, pr.p, nus)
        assert noise.shape == (len(seeds), T, pr.n, pr.p)
        assert not noise.flags.writeable
        for t, s in enumerate(seeds):
            U = substream(s, "noise").random((T, pr.n, pr.p))
            for k in range(T):
                assert noise[t, k].tobytes() == laplace_from_uniform(U[k], nus[k]).tobytes()
            assert X0[t].tobytes() == substream(s, "init").standard_normal((pr.n, pr.p)).tobytes()
        assert engine._draw_streams(seeds, pr.n, pr.p, None)[1] is None


def test_noise_block_is_the_drawn_buffer(setup, monkeypatch):
    # the Laplace transform runs in place, one step's slice at a time: the
    # block returned is the one draw_rows filled, and the call never holds a
    # second block-sized array
    pr, _, sp = setup
    T, seeds = 40, list(range(50))
    nus = np.asarray(noise_scale(sp, np.arange(1, T + 1)))
    draw_rows, filled = engine.draw_rows, []

    def recorded(entropies, draw, out=None):
        filled.append(out)
        return draw_rows(entropies, draw, out=out)

    monkeypatch.setattr(engine, "draw_rows", recorded)
    tracemalloc.start()
    try:
        X0, noise = engine._draw_streams(seeds, pr.n, pr.p, nus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert noise is filled[1]
    assert noise.base is None and noise.flags.c_contiguous
    block = len(seeds) * T * pr.n * pr.p * 8
    assert noise.nbytes == block
    # the block, the initial states and a few slice-sized temporaries
    assert peak < block + X0.nbytes + 10 * block // T


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_noiseless_runs_draw_no_noise(setup, algorithm, monkeypatch):
    # a run at delta = 0 draws no "noise" stream, a noisy row's as much as a
    # constant row's; a noisy row at delta > 0 draws one
    pr, wm, sp = setup
    drawn = []

    def recorded(entropies, *args, **kwargs):
        drawn.extend(entropy[1] for entropy in entropies)
        return draw_rows(entropies, *args, **kwargs)

    monkeypatch.setattr(engine, "draw_rows", recorded)
    monte_carlo(pr, wm.W, NOISELESS, algorithm, 5, trials=3, seed=2)
    assert drawn == ["trial", "init"]
    if not engine._DYNAMICS[algorithm].constant:
        drawn.clear()
        monte_carlo(pr, wm.W, sp, algorithm, 5, trials=3, seed=2)
        assert drawn == ["trial", "init", "noise"]


def test_zero_iterations(setup):
    pr, wm, sp = setup
    tr = run(pr, wm.W, sp, "alg1", 0, seed=0)
    assert tr.residual.shape == (1, 1)
    assert tr.step_norm[0, 0] == 0.0


def test_validation_errors(setup):
    pr, wm, sp = setup
    with pytest.raises(ValueError):
        run(pr, wm.W, sp, "sgd", 5, seed=0)
    # the audit and the attacker view give these same two messages
    shape = r"^weight matrix shape \(4, 4\) does not match n=10$"
    with pytest.raises(ValueError, match=shape):
        run(pr, np.eye(4), sp, "alg1", 5, seed=0)
    with pytest.raises(ValueError, match=shape):
        monte_carlo(pr, np.eye(4), sp, "alg1", 5, trials=2, seed=0)
    with pytest.raises(ValueError, match="^need at least one trial, got 0$"):
        monte_carlo(pr, wm.W, sp, "alg1", 5, trials=0, seed=0)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"^need at least one job, got {jobs}$"):
            monte_carlo(pr, wm.W, sp, "alg1", 5, trials=2, seed=0, jobs=jobs)
    with pytest.raises(ValueError):
        run(pr, wm.W, sp, "alg1", -1, seed=0)
    # constant-step noiseless dynamics refuse a noisy schedule
    for alg in ("gt-noiseless", "alg1-noiseless-constant", "dgd-noiseless-constant"):
        with pytest.raises(ScheduleError):
            run(pr, wm.W, sp, alg, 5, seed=0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernel_matches_batched(setup, algorithm):
    # step the kernel by hand from the generator's initial state, building
    # each observation from the documented streams, and require the engine's
    # Z, X and Y bitwise at every step: on the run's own schedule, and on an
    # arbitrary one given as data (a linearly falling alpha, nu from a fixed
    # stream, noisy for every row)
    pr, wm, sp = setup
    if algorithm in engine._CONSTANT_STEP:
        sp = NOISELESS
    seed, T = 13, 7
    U = substream(seed, "noise").random((T, pr.n, pr.p))
    ks = np.arange(1, T + 1)
    # the oracle's own rule: the noiseless dynamics step with alpha = gamma
    constant = algorithm.endswith(("noiseless", "noiseless-constant"))
    own = (np.full(T, sp.gamma) if constant else np.asarray(stepsize(sp, ks)),
           np.asarray(noise_scale(sp, ks)))
    arbitrary = (np.linspace(0.05, 0.005, T), substream(5, "nu").uniform(0.0, 0.5, T))
    # (the oracle's schedule, the one given to the engine, whether Z = X)
    for (alphas, nus), schedule, noiseless in ((own, None, constant),
                                               (arbitrary, arbitrary, False)):
        Xs, Ys, Zs = one_trial(pr, wm.W, sp, algorithm, T, seed, schedule)
        X = Xs[0].copy()
        G = pr.gradients(X) if algorithm == "gt-noiseless" else None
        Y = np.zeros_like(X) if G is None else G
        assert np.array_equal(Y, Ys[0])
        for k in range(T):
            Z = X if noiseless else X + laplace_from_uniform(U[k], nus[k])
            assert np.array_equal(Z, Zs[k])
            X, Y, G = _obs_step(algorithm, X, Y, G, Z, wm.W, pr, float(alphas[k]), sp.beta)
            assert np.array_equal(X, Xs[k + 1])
            assert np.array_equal(Y, Ys[k + 1])


def test_noiseless_constant_observations_are_states(setup):
    pr, wm, _ = setup
    X, _, Z = one_trial(pr, wm.W, NOISELESS, "alg1-noiseless-constant", 5, 3)
    for k in range(5):
        assert np.array_equal(Z[k], X[k])


# criterion 4's instance: its constant rows reach a state they already
# visited after about a thousand steps, and from there on cycle through it
CRITERION_4 = ScheduleParams(1.0 / 256.0, 256.0, 0.97, 0.99, 1.0, 0.0)
CONSTANT_ROWS = ("alg1-noiseless-constant", "gt-noiseless", "dgd-noiseless-constant")


@pytest.fixture(scope="module")
def criterion4():
    wm = metropolis_weights(connected_erdos_renyi(10, 0.5, 3))
    return random_problem(10, 5, 3, (0.5, 1.5), 42), wm.W


def noiseless_oracle(pr, W, sp, algorithm, T, X0, alphas=None):
    """The yields of a noiseless run from X0, stepped out by hand: one kernel
    call per step with Z = X and alpha = alphas[k - 1], or else gamma."""
    G = pr.gradients(X0) if algorithm == "gt-noiseless" else None
    X, Y = X0, np.zeros_like(X0) if G is None else G
    steps = [(X, Y, G, None, None)]
    for a_k in np.full(T, sp.gamma) if alphas is None else alphas:
        Z = X
        X, Y, G = _obs_step(algorithm, X, Y, G, Z, W, pr, float(a_k), sp.beta)
        steps.append((X, Y, G, Z, None))
    return steps


def repeats_within(steps, keep):
    """Whether some state (X, Y, G) after step 1 equals, byte for byte, the
    state at most keep steps before it."""
    keys = [b"".join(a.tobytes() for a in step[:3]) for step in steps[1:]]
    return any(keys[k] == keys[k - d] for k in range(len(keys)) for d in range(1, keep + 1)
               if k >= d)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("algorithm", CONSTANT_ROWS)
def test_constant_rows_replay_their_cycle_exactly(criterion4, algorithm, trials, monkeypatch):
    # every yield equals the oracle's bit for bit, whether the run replays
    # its cycle or steps out every iteration; a one-trial run replays
    pr, W = criterion4
    T = 2000
    seeds = [trial_seed(4, t) for t in range(trials)]
    calls = []

    def counted(*args):
        calls.append(1)
        return _obs_step(*args)

    monkeypatch.setattr(engine, "_obs_step", counted)
    got = list(trajectory(pr, W, CRITERION_4, algorithm, T, seeds))
    want = noiseless_oracle(pr, W, CRITERION_4, algorithm, T, got[0][0])
    assert len(got) == len(want) == T + 1
    for k, (step, ref) in enumerate(zip(got, want)):
        for a, b in zip(step, ref):
            assert (a is None and b is None) or (
                a.shape == b.shape and a.tobytes() == b.tobytes()), (algorithm, k)
    keep = engine._BLOCK_BYTES // (3 * got[0][0].nbytes)
    if trials == 1:
        assert len(calls) < T
    if (algorithm, trials) == ("alg1-noiseless-constant", 3):
        # this batch's period is longer than keep: it pays for the check and
        # still steps out all T iterations
        assert not repeats_within(want, keep)
        assert len(calls) == T


def test_a_changing_stepsize_replays_nothing(criterion4, monkeypatch):
    # a noiseless run maps (X, Y, G) alone only at one stepsize: on a
    # schedule that halves the stepsize after the state has begun to cycle
    # (near step 1 070), every step is stepped out and equals the hand loop
    pr, W = criterion4
    T = 1500
    alphas = np.full(T, CRITERION_4.gamma)
    alphas[1200:] /= 2
    calls = []

    def counted(*args):
        calls.append(1)
        return _obs_step(*args)

    monkeypatch.setattr(engine, "_obs_step", counted)
    got = list(_trajectory(pr, W, "gt-noiseless", alphas, None, CRITERION_4.beta, [4]))
    want = noiseless_oracle(pr, W, CRITERION_4, "gt-noiseless", T, got[0][0], alphas)
    assert len(calls) == T
    for k, (step, ref) in enumerate(zip(got, want)):
        for a, b in zip(step, ref):
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), k


def test_replayed_pieces_join_as_one(criterion4, monkeypatch, inline_pool):
    # pieces of 2 and 1 trials reach their cycles at other steps than the
    # 3-trial batch, and each replays; the ensemble comes out the same
    pr, W = criterion4
    calls = []  # the trial count of each kernel call's batch

    def counted(algorithm, X, *args):
        calls.append(len(X))
        return _obs_step(algorithm, X, *args)

    monkeypatch.setattr(engine, "_obs_step", counted)
    base = monte_carlo(pr, W, CRITERION_4, "gt-noiseless", 2000, trials=3, seed=4)
    assert calls.count(3) == len(calls) < 2000
    calls.clear()
    split = monte_carlo(pr, W, CRITERION_4, "gt-noiseless", 2000, trials=3, seed=4, jobs=2)
    assert len(inline_pool) == 1
    assert 0 < calls.count(2) < 2000 and 0 < calls.count(1) < 2000
    assert calls.count(2) != calls.count(1)
    assert_same_trace(base, split)


INVARIANTS = {
    "alg1": {"y_mean_abs_max", "mean_dynamics_resid_max"},
    "dp-dgd": set(),
    "dgd-true-consensus": set(),
    "dgd-true-gradient": set(),
    "gt-noiseless": {"tracking_resid_max"},
    "alg1-noiseless-constant": {"y_mean_abs_max", "mean_dynamics_resid_max",
                                "unrolled_runsum_resid_max"},
    "dgd-noiseless-constant": set(),
}


def test_diagnostics_keys(setup):
    # a trace holds exactly the invariants its row names, each checked; a
    # check that never ran (none do at T = 0) leaves no key, not a 0
    pr, wm, sp = setup
    for algorithm in ALGORITHMS:
        params = NOISELESS if algorithm in engine._CONSTANT_STEP else sp
        assert set(engine._DYNAMICS[algorithm].invariants) == INVARIANTS[algorithm]
        trace = run(pr, wm.W, params, algorithm, 3, seed=0)
        assert set(trace.diagnostics) == INVARIANTS[algorithm]
        assert run(pr, wm.W, params, algorithm, 0, seed=0).diagnostics == {}


def test_unknown_invariant_is_absent_not_zero(setup, monkeypatch):
    # _batched keys a diagnostic once its check has run, so an invariant a row
    # names but _batched does not compute is missing, which fails
    # test_diagnostics_keys, instead of sitting at 0
    pr, wm, sp = setup
    unknown = replace(engine._DYNAMICS["alg1"], invariants=("y_mean_abs_max", "no_such_resid"))
    monkeypatch.setitem(engine._DYNAMICS, "alg1", unknown)
    assert set(run(pr, wm.W, sp, "alg1", 3, seed=0).diagnostics) == {"y_mean_abs_max"}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_noisy_schedule_rejected_by_constant_rows(setup, algorithm):
    pr, wm, sp = setup
    if engine._DYNAMICS[algorithm].constant:
        with pytest.raises(ScheduleError, match="needs delta = 0"):
            run(pr, wm.W, sp, algorithm, 5, seed=0)
    else:
        run(pr, wm.W, sp, algorithm, 5, seed=0)
    run(pr, wm.W, NOISELESS, algorithm, 5, seed=0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_tracking_rows_start_at_the_gradient(setup, algorithm):
    # Y(0) = G(0) = grad F(X(0)) for a tracking row; Y(0) = 0 and no G(0)
    # for the rest
    pr, wm, _ = setup
    X0, Y0, G0, Z, Xi = next(trajectory(pr, wm.W, NOISELESS, algorithm, 3, [5, 6]))
    assert Z is None and Xi is None
    if engine._DYNAMICS[algorithm].tracking:
        assert np.array_equal(G0, pr.gradients(X0))
        assert np.array_equal(Y0, G0)
    else:
        assert G0 is None
        assert not Y0.any()


def test_derived_names_follow_the_table():
    assert ALGORITHMS == ("alg1", "dp-dgd", "dgd-true-consensus", "dgd-true-gradient",
                          "gt-noiseless", "alg1-noiseless-constant", "dgd-noiseless-constant")
    rows = engine._DYNAMICS
    assert engine._CONSTANT_STEP == frozenset(a for a in rows if rows[a].constant)
    assert engine._CONSTANT_STEP == {"gt-noiseless", "alg1-noiseless-constant",
                                     "dgd-noiseless-constant"}
    # the audit replays every row that is not constant
    assert AUDIT_ALGORITHMS == tuple(a for a in rows if not rows[a].constant)
    assert AUDIT_ALGORITHMS == ("alg1", "dp-dgd", "dgd-true-consensus", "dgd-true-gradient")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_diagnostics_are_per_trial(setup, algorithm, monkeypatch):
    # trial t reports its own worst invariant residual, so the chunking
    # cannot change it
    pr, wm, sp = setup
    if algorithm in engine._CONSTANT_STEP:
        sp = NOISELESS
    T, trials, seed = 30, 6, 3
    base = monte_carlo(pr, wm.W, sp, algorithm, T, trials, seed)
    monkeypatch.setattr(engine, "_chunk_size", lambda *args: 1)
    assert_same_trace(base, monte_carlo(pr, wm.W, sp, algorithm, T, trials, seed))
    for t in range(trials):
        single = run(pr, wm.W, sp, algorithm, T, seed=trial_seed(seed, t))
        assert base.diagnostics.keys() == single.diagnostics.keys()
        for key, per_trial in base.diagnostics.items():
            assert per_trial[t] == single.diagnostics[key][0]


def stepwise(pr, W, sp, algorithm, T, seeds):
    """The four metric series (rows are trials) and the per-trial diagnostics,
    reduced one step at a time from the generator's yields."""
    xstar = optimum(pr)
    alphas = np.full(T, sp.gamma) if "noiseless" in algorithm else stepsize(sp, np.arange(1, T + 1))
    cols, worst = [], {}
    alg1_kernel = algorithm in ("alg1", "alg1-noiseless-constant")

    def fold(key, resid):
        seen = np.abs(resid).reshape(len(seeds), -1).max(axis=1)
        worst[key] = np.maximum(worst.get(key, 0.0), seen)

    X = xbar = S = None
    for k, (Xk, Yk, Gk, _, Xi) in enumerate(trajectory(pr, W, sp, algorithm, T, seeds)):
        xbar_k = Xk.mean(axis=1)
        col = [np.sum((Xk - xstar) ** 2, axis=(1, 2)),
               np.sum((Xk - xbar_k[:, None, :]) ** 2, axis=(1, 2)),
               np.sum((xbar_k - xstar) ** 2, axis=1),
               np.zeros(len(seeds)) if k == 0 else np.sum((Xk - X) ** 2, axis=(1, 2))]
        cols.append(col)
        if k and alg1_kernel:
            fold("y_mean_abs_max", Yk.mean(axis=1))
            a = float(alphas[k - 1])
            rhs = xbar - a * Gk.mean(axis=1) + (0.0 if Xi is None else Xi.mean(axis=1))
            fold("mean_dynamics_resid_max", xbar_k - rhs)
        if k and algorithm == "alg1-noiseless-constant":
            a = float(alphas[k - 1])
            S = (0.0 if S is None else S) + (W @ X - X)
            fold("unrolled_runsum_resid_max", Xk - (W @ X - a * Gk + a * sp.beta * S))
        if k and algorithm == "gt-noiseless":
            fold("tracking_resid_max", Yk.mean(axis=1) - Gk.mean(axis=1))
        X, xbar = Xk, xbar_k
    series = [np.array([col[m] for col in cols]).T for m in range(4)]  # trial-major
    return series, worst


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("T", [0, 10])
def test_block_reduction_is_stepwise(setup, algorithm, T, monkeypatch):
    # one step per block, three per block (10 steps end in a partial block of
    # one) and the whole run in one block all equal a step-by-step reduction
    pr, wm, sp = setup
    if algorithm in engine._CONSTANT_STEP:
        sp = NOISELESS
    trials, seed = 3, 8
    seeds = [trial_seed(seed, t) for t in range(trials)]
    series, worst = stepwise(pr, wm.W, sp, algorithm, T, seeds)
    state_bytes = trials * pr.n * pr.p * 8
    for block_bytes in (1, 3 * state_bytes, (T + 1) * state_bytes):
        monkeypatch.setattr(engine, "_BLOCK_BYTES", block_bytes)
        trace = monte_carlo(pr, wm.W, sp, algorithm, T, trials, seed)
        for want, name in zip(series, SERIES):
            assert np.array_equal(want, getattr(trace, name))
        assert trace.diagnostics.keys() == worst.keys()
        for key, per_trial in trace.diagnostics.items():
            assert np.array_equal(per_trial, worst[key])


@pytest.mark.parametrize("n", [3, 8, 9, 20, 130])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_agent_mean_is_numpy_mean_bitwise(p, n):
    # entries spread over 24 orders of magnitude, so any change in the order
    # of the sum over agents changes bits; the leading shapes fall on both
    # sides of _BLOCK_BYTES, and at p = 1 numpy sums pairwise for n >= 8
    rng = np.random.default_rng(1000 * p + n)

    def spread(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, shape)

    arrays = [spread(*lead, n, p) for lead in [(), (1,), (7,), (64,), (1000,), (3, 200)]]
    U = spread(200, 4, n, p)
    arrays.append(U[:, 2])  # one step of a (trials, T, n, p) block: strided trials
    arrays.append(engine._stack([spread(1000, n, p)]))  # a one-state block is a view
    for A in arrays:
        assert engine._agent_mean(A).tobytes() == A.mean(axis=-2).tobytes()


def test_divergence_raises(setup, monkeypatch):
    pr, wm, _ = setup
    sp = ScheduleParams(gamma=0.9, beta=1.0, q1=0.999, q2=0.9999, epsilon=1.0, delta=0.01)
    seeds = [trial_seed(4, t) for t in range(3)]

    def first_nonfinite(seed):
        for k, (X, *_) in enumerate(trajectory(pr, wm.W, sp, "alg1", 500, [seed])):
            if not np.isfinite(X).all():
                return k
        return 501

    with np.errstate(over="ignore", invalid="ignore"):
        # the first iteration at which any trial's state is not finite, and
        # the first such trial
        first = min((first_nonfinite(s), t) for t, s in enumerate(seeds))
        calls = []

        def counted(*args):
            calls.append(1)
            return _obs_step(*args)

        monkeypatch.setattr(engine, "_obs_step", counted)
        message = (f"^alg1 diverged: trial seed {seeds[first[1]]} has a non-finite state "
                   f"at iteration {first[0]} of 500$")
        with pytest.raises(DivergenceError, match=message):
            monte_carlo(pr, wm.W, sp, "alg1", 500, trials=3, seed=4)
    # the run stops at the block that holds the first non-finite state
    assert len(calls) < 500
    assert not issubclass(DivergenceError, ValueError)


def test_all_algorithms_smoke(setup):
    pr, wm, sp = setup
    for alg in ALGORITHMS:
        params = NOISELESS if alg in engine._CONSTANT_STEP else sp
        tr = run(pr, wm.W, params, alg, 10, seed=1)
        assert np.all(np.isfinite(tr.residual))
        assert tr.algorithm == alg


def test_trial_seed_is_stable():
    assert trial_seed(17, 0) == trial_seed(17, 0)
    seen = {trial_seed(17, t) for t in range(100)}
    assert len(seen) == 100


def test_stream_layout_is_pinned():
    # literal draws: any change to tag hashing or seed derivation shows here
    assert substream(7, "noise").random(3).tolist() == [
        0.09411050080091243,
        0.31648003343940745,
        0.6012966424697159,
    ]
    assert substream(7, "init").standard_normal(3).tolist() == [
        -1.415108022336888,
        1.6555673633059749,
        0.2172946040183647,
    ]
    assert trial_seed(11, 3) == 3256922838727500079
    assert trial_seed(11, 0) == 6279572177228333704
