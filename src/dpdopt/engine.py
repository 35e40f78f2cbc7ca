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

The three *-constant/noiseless tags require delta = 0 schedules and use
alpha = gamma at every iteration; the rest follow the geometric schedule.

`_KERNELS` maps each name to its step kernel; the two *-noiseless-constant
dynamics reuse the alg1 and dp-dgd kernels. Every kernel maps
(X, Y, G, Z, W, pr, a_k, beta) to (X, Y, G): Z is what went over the wire
(X itself when noiseless) and G the stacked gradient the step used. The G
passed in is the one the previous step returned; only gradient tracking
reads it, as grad F(X). The simulator, the sensitivity audit and the
attacker view all step through one generator, `_trajectory`, which owns the
trial streams, the schedule, the noise draw and the kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    Ynew = Ynew - Ynew.mean(axis=-2, keepdims=True)
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


_KERNELS = {
    "alg1": _step_alg1,
    "dp-dgd": _step_dpdgd,
    "dgd-true-consensus": _step_true_consensus,
    "dgd-true-gradient": _step_true_gradient,
    "gt-noiseless": step_gt,
    "alg1-noiseless-constant": _step_alg1,
    "dgd-noiseless-constant": _step_dpdgd,
}

ALGORITHMS = tuple(_KERNELS)

_CONSTANT_STEP = frozenset(name for name in ALGORITHMS if "noiseless" in name)


def _obs_step(algorithm: str, X, Y, G, Z, W: np.ndarray, pr: Problem, a_k: float,
              beta: float):
    """Advance one iteration given the previous step's G and the shared
    observation matrix Z; returns (X, Y, G).

    This is the single source of truth for every dynamic. `_trajectory`
    steps every simulated trajectory through it, and the sensitivity audit
    replays the recorded Z into the perturbed twin through it too, which
    keeps the untouched agents bitwise identical across the pair.
    """
    return _KERNELS[algorithm](X, Y, G, Z, W, pr, a_k, beta)


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


@dataclass
class Trace:
    """Per-iteration scalar series for one trial (index 0 is the initial
    state; step_norm[0] is defined as 0)."""

    algorithm: str
    iterations: int
    residual: np.ndarray  # ||X - 1 x*^T||_F^2
    consensus_err: np.ndarray  # ||X - 1 xbar^T||_F^2
    mean_err: np.ndarray  # ||xbar - x*||^2
    step_norm: np.ndarray  # ||X(k) - X(k-1)||_F^2
    xstar: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def trial_seed(seed: int, t: int) -> int:
    """Master seed for trial t of an ensemble rooted at seed."""
    return int(substream(seed, "trial", t).integers(2**63))


def _trial_seeds(seed: int, trials: int) -> list[int]:
    """[trial_seed(seed, t) for t in range(trials)], drawn through draw_rows."""
    entropies = [(seed, "trial", t) for t in range(trials)]
    return draw_rows(entropies, lambda gen: int(gen.integers(2**63)))


def _validate(pr: Problem, W: np.ndarray, sp: ScheduleParams, algorithm: str, T: int):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if W.shape != (pr.n, pr.n):
        raise ValueError(f"weight matrix shape {W.shape} does not match n={pr.n}")
    if T < 0:
        raise ValueError(f"iteration count must be >= 0, got {T}")
    if algorithm in _CONSTANT_STEP and sp.delta != 0.0:
        raise ScheduleError(f"{algorithm} is a noiseless dynamic; needs delta = 0")


def _trajectory(pr, W, sp, algorithm, T, seeds, x0=None):
    """Step len(seeds) trials of one dynamic together, yielding
    (X, Y, G, Z, Xi) for k = 0..T as (trials, n, p) batches.

    Trial seed s owns substream(s, "init"), which draws its initial state
    unless x0 (broadcast to every trial) is given, and substream(s,
    "noise"), a preallocated (T, n, p) uniform block whose row k - 1 drives
    iteration k through laplace_from_uniform. A noiseless run (a *-noiseless
    dynamic, or delta = 0) draws no noise stream.

    k = 0 yields the initial state, Y(0) and G(0) (zero and None, except for
    gradient tracking, where Y(0) = G(0) = grad F(X(0))) and Z = Xi = None.
    Each later yield is the state after step k, the G that step evaluated,
    the observation Z = X(k-1) + Xi it consumed and the noise Xi (None, with
    Z = X(k-1), when noiseless). Yielded arrays are never written again.
    A trial whose final state is not finite raises DivergenceError.
    """
    W = _mat(W)
    trials, n, p = len(seeds), pr.n, pr.p
    noisy = algorithm not in _CONSTANT_STEP and sp.delta > 0.0
    if x0 is None:
        X = draw_rows([(s, "init") for s in seeds], np.random.Generator.standard_normal,
                      out=np.empty((trials, n, p)))
    else:
        X = np.broadcast_to(np.asarray(x0, dtype=float), (trials, n, p)).copy()
    if noisy:
        U = draw_rows([(s, "noise") for s in seeds], np.random.Generator.random,
                      out=np.empty((trials, T, n, p)))
    alphas, nus = _schedule_arrays(sp, T, algorithm in _CONSTANT_STEP)
    G = pr.gradients(X) if algorithm == "gt-noiseless" else None
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


def _batched(pr, W, sp, algorithm, T, seeds, x0, xstar):
    """Simulate len(seeds) trials at once. Returns one trace per trial, with
    that trial's worst residual of each invariant as its diagnostics."""
    W = _mat(W)
    trials = len(seeds)
    alphas, _ = _schedule_arrays(sp, T, algorithm in _CONSTANT_STEP)
    # the first yield draws the trial streams; their noise block is the
    # memory peak, so it is allocated before the metric arrays below exist
    steps = _trajectory(pr, W, sp, algorithm, T, seeds, x0)
    X, *_ = next(steps)

    residual = np.empty((trials, T + 1))
    consensus = np.empty((trials, T + 1))
    mean_err = np.empty((trials, T + 1))
    step_norm = np.zeros((trials, T + 1))

    def metrics(col, Xc, Xprev):
        """Fill column col of the four metric arrays; returns the agent mean."""
        diff = Xc - xstar
        residual[:, col] = np.sum(diff * diff, axis=(1, 2))
        xbar = Xc.mean(axis=1, keepdims=True)
        dev = Xc - xbar
        consensus[:, col] = np.sum(dev * dev, axis=(1, 2))
        mdiff = xbar[:, 0, :] - xstar
        mean_err[:, col] = np.sum(mdiff * mdiff, axis=1)
        if Xprev is not None:
            sd = Xc - Xprev
            step_norm[:, col] = np.sum(sd * sd, axis=(1, 2))
        return xbar[:, 0, :]

    # invariant diagnostics: the worst residual of each identity over the run,
    # kept entrywise while stepping and reduced per trial once at the end
    alg1_kernel = _KERNELS[algorithm] is _step_alg1
    keys = ["y_mean_abs_max"]
    if alg1_kernel:
        keys.append("mean_dynamics_resid_max")
    if algorithm == "alg1-noiseless-constant":
        keys.append("unrolled_runsum_resid_max")
    if algorithm == "gt-noiseless":
        # Y(0) is grad F(X(0)) itself, so the residual starts at exactly 0
        keys.append("tracking_resid_max")
    worst_seen = {key: np.zeros((trials, 1)) for key in keys}

    def worst(key, resid):
        worst_seen[key] = np.maximum(worst_seen[key], np.abs(resid).reshape(trials, -1))

    xbar = metrics(0, X, None)
    S = 0.0  # running sum of (W - I) X(l), l = 0..k-1
    for k, (Xnew, Y, G, _, Xi) in enumerate(steps, start=1):
        a_k = float(alphas[k - 1])
        xbar_new = metrics(k, Xnew, X)
        if alg1_kernel:
            worst("y_mean_abs_max", Y.mean(axis=1))
            # mean dynamics: xbar(k) = xbar(k-1) - (a_k/n) 1^T grad F(z) + mean(xi)
            xi_mean = 0.0 if Xi is None else Xi.mean(axis=1)
            rhs = xbar - a_k * G.mean(axis=1) + xi_mean
            worst("mean_dynamics_resid_max", xbar_new - rhs)
        if algorithm == "alg1-noiseless-constant":
            # y(k+1) = -beta * sum_{l<=k} (W - I) x(l), so the sum must
            # include the current state before predicting x(k+1)
            S = S + (W @ X - X)
            predicted = W @ X - a_k * G + a_k * sp.beta * S
            worst("unrolled_runsum_resid_max", Xnew - predicted)
        if algorithm == "gt-noiseless":
            worst("tracking_resid_max", Y.mean(axis=1) - G.mean(axis=1))
        X, xbar = Xnew, xbar_new

    diagnostics = {key: seen.max(axis=1).tolist() for key, seen in worst_seen.items()}
    return [
        Trace(
            algorithm=algorithm,
            iterations=T,
            residual=residual[t].copy(),
            consensus_err=consensus[t].copy(),
            mean_err=mean_err[t].copy(),
            step_norm=step_norm[t].copy(),
            xstar=xstar.copy(),
            diagnostics={key: v[t] for key, v in diagnostics.items()},
        )
        for t in range(trials)
    ]


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
    x0: np.ndarray | None = None,
) -> Trace:
    """Simulate one trial for T iterations and return its trace."""
    Wm = _mat(W)
    _validate(pr, Wm, sp, algorithm, T)
    xstar = optimum(pr)
    return _batched(pr, Wm, sp, algorithm, T, [seed], x0, xstar)[0]


def monte_carlo(
    pr: Problem,
    W,
    sp: ScheduleParams,
    algorithm: str,
    T: int,
    trials: int,
    seed: int,
    x0: np.ndarray | None = None,
    jobs: int = 1,
    chunk: int | None = None,
) -> list[Trace]:
    """Simulate an ensemble. Trial t reproduces run(..., seed=trial_seed(seed, t))
    exactly, whatever the chunking or job count.

    jobs > 1 distributes trial chunks over processes; results are identical
    to the serial path because every trial derives its own streams.
    """
    Wm = _mat(W)
    _validate(pr, Wm, sp, algorithm, T)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    xstar = optimum(pr)
    seeds = _trial_seeds(seed, trials)

    if chunk is None:
        chunk = _chunk_size(trials, T, pr.n, pr.p)
    pieces = [seeds[i : i + chunk] for i in range(0, trials, chunk)]

    if jobs <= 1 or len(pieces) == 1:
        out: list[Trace] = []
        for piece in pieces:
            out.extend(_batched(pr, Wm, sp, algorithm, T, piece, x0, xstar))
        return out

    from concurrent.futures import ProcessPoolExecutor

    out = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_batched_job, (pr, Wm, sp, algorithm, T, piece, x0, xstar))
            for piece in pieces
        ]
        for fut in futures:
            out.extend(fut.result())
    return out
