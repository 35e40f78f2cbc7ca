"""Iteration kernels and trajectory simulation.

Seven dynamics share one interface. States live in (n, p) matrices (or
(trials, n, p) batches; every kernel broadcasts over leading axes):

  alg1                 noisy tracking: agents share z = x + xi, keep a
                       correction state y driven by the consensus defect,
                       and step against gradients AT THE OWN NOISY STATE
  dp-dgd               noisy diffusion: x <- W z - alpha_k grad F(z)
  dgd-true-consensus   like dp-dgd but each agent mixes its own TRUE state
                       on the diagonal (only neighbors see noise)
  dgd-true-gradient    like dp-dgd but gradients at the true previous state
  gt-noiseless         classic gradient tracking, constant stepsize
  alg1-noiseless-constant   the tracking dynamics with xi = 0 and constant
                       alpha; converges exactly when alpha*beta = 1
  dgd-noiseless-constant    plain DGD with constant alpha (biased floor)

`_DYNAMICS` holds one `_Dynamic` row per dynamic, and every layer reads the
row, never the name: the step kernel, `constant` (noiseless with alpha_k =
gamma, so delta = 0; the rest follow the geometric schedule), `tracking`
(Y(0) = G(0) = grad F(X(0)), and the kernel reads G) and the `invariants`
`_batched` checks. Every kernel maps (X, Y, G, Z, W, pr, a_k, beta) to
(X, Y, G): Z is what went over the wire (X itself when noiseless), G the
stacked gradient the step used and the G passed in the one the previous
step returned. The simulator, the sensitivity audit and the attacker view
all lay out their ensemble through one function, `_ensemble`, which checks
the arguments, converts W once, derives the trial seeds and splits them into
`_chunk_size` chunks. They all step through one generator, `_trajectory`,
which owns the trial streams, the schedule, the noise draw and the kernel
call.

The simulator, `_batched`, reduces the generator's yields in blocks: it
stacks the states of as many consecutive steps as fit in `_BLOCK_BYTES` and
computes the four trace metrics and every invariant diagnostic of the block
with one reduction each, bitwise equal to reducing step by step. The first
block that holds a non-finite state ends the run with a DivergenceError that
names the trial and the iteration. Each chunk of trials gives one trial-major
Trace, and `monte_carlo` joins the chunks along the trial axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable

import numpy as np

from .errors import DivergenceError, ScheduleError
from .objective import Problem, optimum
from .rng import draw_rows, substream
from .schedule import ScheduleParams, laplace_from_uniform, noise_scale, stepsize

__all__ = [
    "ALGORITHMS",
    "Trace",
    "run",
    "monte_carlo",
    "trial_seed",
]


def _mat(W) -> np.ndarray:
    return np.asarray(getattr(W, "W", W), dtype=float)


def _step_alg1(X, Y, G, Z, W, pr: Problem, a_k, beta):
    Zbar = W @ Z
    Ynew = Y + beta * (Z - Zbar)
    # 1^T y = 0 is an invariant of the exact update (columns of I - W sum
    # to zero), but the beta-scaled matmul rounding would otherwise leak
    # into the mean and compound over thousands of iterations; re-project
    # onto the invariant manifold each step.
    Ynew -= _agent_mean(Ynew)[..., None, :]
    G = pr.gradients(Z)
    return Zbar - a_k * (Ynew + G), Ynew, G


def _step_dpdgd(X, Y, G, Z, W, pr: Problem, a_k, beta):
    G = pr.gradients(Z)
    return W @ Z - a_k * G, Y, G


def _step_true_consensus(X, Y, G, Z, W, pr: Problem, a_k, beta):
    """The self-weight multiplies the true state: only the off-diagonal
    (neighbor) part of the average sees noise."""
    d = np.diag(W)[:, None]
    G = pr.gradients(Z)
    return d * X + (W @ Z - d * Z) - a_k * G, Y, G


def _step_true_gradient(X, Y, G, Z, W, pr: Problem, a_k, beta):
    G = pr.gradients(X)
    return W @ Z - a_k * G, Y, G


def step_gt(X, Y, G, Z, W, pr: Problem, a_k, beta):
    """Gradient tracking: x <- Wx - alpha y, then the tracker absorbs the
    gradient increment. G must be grad F(X), so the first step needs
    G = Y(0) = grad F(X(0)); the returned G is grad F(x(k+1))."""
    Xnew = W @ X - a_k * Y
    Gnew = pr.gradients(Xnew)
    return Xnew, W @ Y + Gnew - G, Gnew


@dataclass(frozen=True)
class _Dynamic:
    kernel: Callable  # (X, Y, G, Z, W, pr, a_k, beta) -> (X, Y, G)
    constant: bool = False  # noiseless with alpha_k = gamma, so delta must be 0
    tracking: bool = False  # Y(0) = G(0) = grad F(X(0)), and the kernel reads G
    invariants: tuple[str, ...] = ()  # the identities _batched checks: diagnostics keys


_DYNAMICS = {
    "alg1": _Dynamic(_step_alg1, invariants=("y_mean_abs_max", "mean_dynamics_resid_max")),
    "dp-dgd": _Dynamic(_step_dpdgd),
    "dgd-true-consensus": _Dynamic(_step_true_consensus),
    "dgd-true-gradient": _Dynamic(_step_true_gradient),
    "gt-noiseless": _Dynamic(step_gt, constant=True, tracking=True,
                             invariants=("tracking_resid_max",)),
    "alg1-noiseless-constant": _Dynamic(_step_alg1, constant=True, invariants=(
        "y_mean_abs_max", "mean_dynamics_resid_max", "unrolled_runsum_resid_max")),
    "dgd-noiseless-constant": _Dynamic(_step_dpdgd, constant=True),
}

ALGORITHMS = tuple(_DYNAMICS)

_CONSTANT_STEP = frozenset(name for name, row in _DYNAMICS.items() if row.constant)


def _obs_step(algorithm: str, X, Y, G, Z, W: np.ndarray, pr: Problem, a_k: float,
              beta: float):
    """Advance one iteration given the previous step's G and the shared
    observation matrix Z; returns (X, Y, G).

    This is the single source of truth for every dynamic. `_trajectory`
    steps every simulated trajectory through it, and the sensitivity audit
    replays the recorded Z into the perturbed twin through it too, which
    keeps the untouched agents bitwise identical across the pair.
    """
    return _DYNAMICS[algorithm].kernel(X, Y, G, Z, W, pr, a_k, beta)


def _schedule_arrays(sp: ScheduleParams, T: int, constant: bool = False):
    """Stepsizes alpha_k and noise scales nu_k for k = 1..T, as arrays;
    constant gives alpha_k = gamma and nu_k = 0."""
    if constant:
        return np.full(T, sp.gamma), np.zeros(T)
    ks = np.arange(1, T + 1)
    return stepsize(sp, ks), noise_scale(sp, ks)


def _chunk_size(trials: int, T: int, n: int, p: int) -> int:
    """Trials per chunk that keep its preallocated uniform block under ~256 MB."""
    per_trial = max(1, T * n * p * 8)
    return max(1, min(trials, (256 << 20) // per_trial))


@dataclass(eq=False)
class Trace:
    """Per-iteration scalar series of an ensemble, trial-major: row t of each
    C-contiguous (trials, T + 1) array is trial t, and column 0 its initial
    state (step_norm[:, 0] is defined as 0). diagnostics maps each invariant
    of the dynamic's row to a (trials,) array of its worst residual per trial,
    none when T = 0. Traces compare by identity; compare their arrays."""

    algorithm: str
    iterations: int
    residual: np.ndarray  # ||X - 1 x*^T||_F^2
    consensus_err: np.ndarray  # ||X - 1 xbar^T||_F^2
    mean_err: np.ndarray  # ||xbar - x*||^2
    step_norm: np.ndarray  # ||X(k) - X(k-1)||_F^2
    xstar: np.ndarray
    diagnostics: dict

    def __len__(self) -> int:
        return len(self.residual)


_SERIES = ("residual", "consensus_err", "mean_err", "step_norm")


def _join(parts: list[Trace]) -> Trace:
    """The trials of parts, in order, as one Trace; one part as it is."""
    if len(parts) == 1:
        return parts[0]
    joined = {name: np.concatenate([getattr(part, name) for part in parts])
              for name in _SERIES}
    diagnostics = {key: np.concatenate([part.diagnostics[key] for part in parts])
                   for key in parts[0].diagnostics}
    return replace(parts[0], **joined, diagnostics=diagnostics)


def trial_seed(seed: int, t: int) -> int:
    """Master seed for trial t of an ensemble rooted at seed."""
    return int(substream(seed, "trial", t).integers(2**63))


def _trial_seeds(seed: int, trials: int) -> list[int]:
    """[trial_seed(seed, t) for t in range(trials)], drawn through draw_rows."""
    return draw_rows([(seed, "trial", np.arange(trials))],
                     lambda gen: int(gen.integers(2**63)))


def _validate(pr: Problem, W: np.ndarray, sp: ScheduleParams, algorithm: str, T: int):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if W.shape != (pr.n, pr.n):
        raise ValueError(f"weight matrix shape {W.shape} does not match n={pr.n}")
    if T < 0:
        raise ValueError(f"iteration count must be >= 0, got {T}")
    if _DYNAMICS[algorithm].constant and sp.delta != 0.0:
        raise ScheduleError(f"{algorithm} is a noiseless dynamic; needs delta = 0")


def _ensemble(pr: Problem, W, sp: ScheduleParams, algorithm: str, T: int, trials: int,
              seed: int):
    """Check an ensemble of trials of one dynamic and lay it out. Returns W as
    an array and the trial seeds, trial_seed(seed, t) for t in trial order,
    split into `_chunk_size` chunks. The simulator, the sensitivity audit and
    the attacker view all take their checks, seeds and chunks from here."""
    Wm = _mat(W)
    _validate(pr, Wm, sp, algorithm, T)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    seeds = _trial_seeds(seed, trials)
    chunk = _chunk_size(trials, T, pr.n, pr.p)
    return Wm, [seeds[i : i + chunk] for i in range(0, trials, chunk)]


def _draw_streams(seeds, T: int, n: int, p: int, noisy: bool):
    """The trial streams `_trajectory` steps through: the (trials, n, p)
    initial states and, when noisy, the (trials, T, n, p) uniform noise block
    (None otherwise).

    Trial seed s owns substream(s, "init"), which draws its initial state,
    and substream(s, "noise"), whose row k - 1 drives iteration k through
    laplace_from_uniform.
    """
    trials = len(seeds)
    seeds = np.asarray(seeds)
    X = draw_rows([(seeds, "init")], np.random.Generator.standard_normal,
                  out=np.empty((trials, n, p)))
    U = None
    if noisy:
        U = draw_rows([(seeds, "noise")], np.random.Generator.random,
                      out=np.empty((trials, T, n, p)))
    return X, U


def _trajectory(pr, W, sp, algorithm, T, seeds, streams=None):
    """Step len(seeds) trials of one dynamic together, yielding
    (X, Y, G, Z, Xi) for k = 0..T as (trials, n, p) batches. W is an array.

    The trial streams are `_draw_streams`'s; a noiseless run (a constant
    dynamic, or delta = 0) draws no noise stream. streams, if given, is the
    (X0, U) pair `_draw_streams` returned for these seeds, drawn once and
    shared by several dynamics; it is only read.

    k = 0 yields the initial state, Y(0) and G(0) (zero and None, except for
    a tracking dynamic, where Y(0) = G(0) = grad F(X(0))) and Z = Xi = None.
    Each later yield is the state after step k, the G that step evaluated,
    the observation Z = X(k-1) + Xi it consumed and the noise Xi (None, with
    Z = X(k-1), when noiseless). Yielded arrays are never written again.
    A trial whose final state is not finite raises DivergenceError once the
    last step has been consumed.
    """
    row = _DYNAMICS[algorithm]
    noisy = not row.constant and sp.delta > 0.0
    X, U = _draw_streams(seeds, T, pr.n, pr.p, noisy) if streams is None else streams
    alphas, nus = _schedule_arrays(sp, T, row.constant)
    G = pr.gradients(X) if row.tracking else None
    Y = np.zeros_like(X) if G is None else G
    Z = Xi = None
    yield X, Y, G, Z, Xi

    for idx in range(T):
        if noisy:
            Xi = laplace_from_uniform(U[:, idx], nus[idx])
            Z = X + Xi
        else:
            Z = X
        X, Y, G = _obs_step(algorithm, X, Y, G, Z, W, pr, float(alphas[idx]), sp.beta)
        yield X, Y, G, Z, Xi

    finite = np.isfinite(X).all(axis=(1, 2))
    if not finite.all():
        raise DivergenceError(
            f"{algorithm} diverged: trial seed {seeds[int(np.argmin(finite))]} "
            f"has a non-finite state after {T} iterations"
        )


# Byte budget of one stacked block of states: _batched reduces the metrics and
# diagnostics of as many steps at once as fit their (trials, n, p) states in it.
_BLOCK_BYTES = 8 << 10


def _stack(arrays):
    """np.stack(arrays); a view when there is only one."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _shift(first, block):
    """The block one step back: first, then all rows of block but its last."""
    return first[None] if len(block) == 1 else np.concatenate((first[None], block[:-1]))


def _agent_mean(A):
    """A.mean(axis=-2), bitwise: numpy's mean is np.add.reduce over its count.

    A is an (..., n, p) float array whose last axis is contiguous, as every
    state, stacked block and noise slice is. numpy's reduce sums each
    (..., column) of it left to right over the agents for p >= 2, in inner
    loops of only p elements; for p = 1 the agent axis is the contiguous one,
    and it sums pairwise. Arrays of more than _BLOCK_BYTES with p >= 2 are
    copied agents-first instead, moving each agent's p-vector as one item,
    and reduced over their outer axis: the same left-to-right sum, in inner
    loops that span all leading entries. Smaller arrays and p = 1 keep
    numpy's reduce.
    """
    # The switch is _BLOCK_BYTES itself: a stacked block of several states
    # fits in it and keeps numpy's reduce, and only a state too big to share
    # a block takes the copy. The two paths cost about the same (~10 us) near
    # 8 KB (~1 000 elements), so a budget far from that needs its own switch.
    if A.nbytes <= _BLOCK_BYTES or A.shape[-1] == 1:
        S = np.add.reduce(A, axis=-2)
    else:
        n, p = A.shape[-2:]
        rows = A.view(np.dtype((np.void, A.itemsize * p)))[..., 0]
        first = np.ascontiguousarray(np.moveaxis(rows, -1, 0)).view(A.dtype)
        S = np.add.reduce(first.reshape(n, *A.shape[:-2], p), axis=0)
    S /= A.shape[-2]
    return S


def _batched(pr, W, sp, algorithm, T, seeds, xstar):
    """Simulate len(seeds) trials at once; W is an array. Returns their Trace,
    with each trial's worst residual of each invariant as its diagnostics.

    Steps are reduced in blocks of B, as many (trials, n, p) states as fit in
    _BLOCK_BYTES and at least one; a block of one stacks views, not copies.
    """
    trials = len(seeds)
    row = _DYNAMICS[algorithm]
    alphas, _ = _schedule_arrays(sp, T, row.constant)
    # the first yield draws the trial streams; their noise block is the
    # memory peak, so it is allocated before the metric arrays below exist
    steps = _trajectory(pr, W, sp, algorithm, T, seeds)
    X, *_ = next(steps)
    B = max(1, _BLOCK_BYTES // X.nbytes)

    # trial-major, as the Trace holds them; a block fills whole columns
    residual = np.empty((trials, T + 1))
    consensus = np.empty((trials, T + 1))
    mean_err = np.empty((trials, T + 1))
    step_norm = np.zeros((trials, T + 1))

    def metrics(cols, Xb, Xprev):
        """Fill columns cols of the four metric arrays from the (b, trials,
        n, p) states Xb; Xprev is the state before Xb[0] (None at k = 0).
        Returns the agent means, (b, trials, p)."""
        diff = Xb - xstar
        residual[:, cols] = np.add.reduce(diff * diff, axis=(2, 3)).T
        xbar = _agent_mean(Xb)
        diff = Xb - xbar[:, :, None, :]
        consensus[:, cols] = np.add.reduce(diff * diff, axis=(2, 3)).T
        mdiff = xbar - xstar
        mean_err[:, cols] = np.add.reduce(mdiff * mdiff, axis=2).T
        if Xprev is not None:
            diff = np.empty_like(Xb)
            np.subtract(Xb[0], Xprev, out=diff[0])
            np.subtract(Xb[1:], Xb[:-1], out=diff[1:])
            step_norm[:, cols] = np.add.reduce(diff * diff, axis=(2, 3)).T
        return xbar

    # each trial's worst residual of each invariant, keyed once its check ran
    worst_seen = {}

    def worst(key, resid):
        # resid is (b, trials, ...): fold in each trial's largest |entry|
        axes = (0, *range(2, resid.ndim))
        worst_seen[key] = np.maximum(worst_seen.get(key, 0.0), np.abs(resid).max(axis=axes))

    def diagnose(a, Xb, Ys, Gs, Xis, Xprev, xbar_prev, xbar, S):
        """Fold one block's invariant residuals into worst_seen; a holds the
        block's stepsizes. Returns the running sum S after the block."""
        a = a[:, None, None]
        Gb = _stack(Gs)
        Ymean, Gmean = _agent_mean(_stack(Ys)), _agent_mean(Gb)
        if "y_mean_abs_max" in row.invariants:
            worst("y_mean_abs_max", Ymean)
        if "mean_dynamics_resid_max" in row.invariants:
            # mean dynamics: xbar(k) = xbar(k-1) - (a_k/n) 1^T grad F(z) + mean(xi)
            xi_mean = 0.0 if Xis[0] is None else _agent_mean(_stack(Xis))
            worst("mean_dynamics_resid_max", xbar - (xbar_prev - a * Gmean + xi_mean))
        if "unrolled_runsum_resid_max" in row.invariants:
            # y(k+1) = -beta * sum_{l<=k} (W - I) x(l), so the sum must
            # include the current state before predicting x(k+1); cumsum adds
            # the increments in step order, as a running sum would
            Xp = _shift(Xprev, Xb)
            WX = W @ Xp
            D = WX - Xp
            D[0] = S + D[0]
            Ssteps = np.cumsum(D, axis=0)
            a = a[..., None]
            predicted = WX - a * Gb + a * sp.beta * Ssteps
            worst("unrolled_runsum_resid_max", Xb - predicted)
            S = Ssteps[-1]
        if "tracking_resid_max" in row.invariants:
            worst("tracking_resid_max", Ymean - Gmean)
        return S

    xbar = metrics(slice(0, 1), X[None], None)[0]
    S = 0.0  # running sum of (W - I) X(l), l = 0..k-1
    for k0 in range(1, T + 1, B):
        b = min(B, T + 1 - k0)
        # islice takes exactly the block, so the generator is never run past
        # its last yield and its own end-of-run check stays out of the way
        Xs, Ys, Gs, _, Xis = zip(*islice(steps, b))
        Xb = _stack(Xs)
        cols = slice(k0, k0 + b)
        xbar_b = metrics(cols, Xb, X)
        if not np.isfinite(residual[:, cols]).all():
            # a non-finite state makes its residual non-finite; the converse
            # need not hold, so the states decide
            bad = ~np.isfinite(Xb).all(axis=(2, 3))
            if bad.any():
                i, t = divmod(int(np.argmax(bad)), trials)
                raise DivergenceError(
                    f"{algorithm} diverged: trial seed {seeds[t]} has a non-finite "
                    f"state at iteration {k0 + i} of {T}"
                )
        if row.invariants:
            S = diagnose(alphas[k0 - 1 : k0 - 1 + b], Xb, Ys, Gs, Xis, X,
                         _shift(xbar, xbar_b), xbar_b, S)
        X, xbar = Xs[-1], xbar_b[-1]
    steps.close()  # frees the noise block

    return Trace(algorithm, T, residual, consensus, mean_err, step_norm, xstar, worst_seen)


def _batched_job(args):
    # picklable pool entry point; resolves the module global in the worker so
    # an instrumented _batched (e.g. under test) stays in effect there too
    return _batched(*args)


def run(
    pr: Problem,
    W,
    sp: ScheduleParams,
    algorithm: str,
    T: int,
    seed: int,
) -> Trace:
    """Simulate one trial for T iterations and return its one-row Trace."""
    Wm = _mat(W)
    _validate(pr, Wm, sp, algorithm, T)
    return _batched(pr, Wm, sp, algorithm, T, [seed], optimum(pr))


def monte_carlo(
    pr: Problem,
    W,
    sp: ScheduleParams,
    algorithm: str,
    T: int,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> Trace:
    """Simulate an ensemble. Row t of the Trace reproduces
    run(..., seed=trial_seed(seed, t)) exactly, whatever the chunking or job
    count.

    jobs > 1 distributes trial chunks over processes; results are identical
    to the serial path because every trial derives its own streams.
    """
    Wm, pieces = _ensemble(pr, W, sp, algorithm, T, trials, seed)
    xstar = optimum(pr)

    if jobs <= 1 or len(pieces) == 1:
        return _join([_batched(pr, Wm, sp, algorithm, T, piece, xstar) for piece in pieces])

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_batched_job, (pr, Wm, sp, algorithm, T, piece, xstar))
            for piece in pieces
        ]
        return _join([fut.result() for fut in futures])
