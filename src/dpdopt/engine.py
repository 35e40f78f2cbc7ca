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
step returned. `_schedule_arrays` alone turns a ScheduleParams into a
run's stepsizes and noise scales, and decides whether it draws noise. The
simulator, the sensitivity audit and the attacker view share three
functions. `_ensemble` checks the arguments, converts W once, derives the
trial seeds and splits them once, into one near-equal piece per job at
least, none longer than a `_chunk_size` chunk. `_draw_streams` returns a
piece's initial states and its noise, Laplace-transformed once however
many dynamics read it. `_trajectory` steps the schedule arrays it is given
on those streams; the audit steps each adjacent pair as one run of it on a
`_stacked` problem, whose states carry a leading member axis, every member
stepping on member 0's observations. A run without noise at one stepsize
is one fixed map of (X, Y, G): once its state repeats byte for byte,
`_trajectory` yields the steps since again. It checks nothing it yields: each consumer checks what
it records through `_divergence`, which words every divergence.

The simulator, `_batched`, reduces the generator's yields in blocks: it
stacks the states of as many consecutive steps as fit in `_BLOCK_BYTES` and
computes the four trace metrics and every invariant diagnostic of the block
with one reduction each, bitwise equal to reducing step by step. A caller
that reports the residual alone passes residual_only: the run then reduces
the residual with the same reduction and nothing else, checks no invariant,
and its Trace holds None for the other series. The first block that holds a
non-finite state ends the run with a DivergenceError that names the trial
and the iteration. A run whose states stay finite while a series it reports
overflows raises one at its end, naming the series and its first non-finite
iteration and trial. `monte_carlo` runs each piece of trials
through `_piece`: the calling process runs the first, and with jobs > 1 a
process pool runs the others, one whole piece per task. A piece gives one
trial-major Trace, rendered in the piece's own process when the caller asks,
and `monte_carlo` joins the pieces along the trial axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, cycle, islice
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

    This is the single source of truth for every dynamic, and `_trajectory`
    makes its one call: for the simulator, the attacker view and the
    sensitivity audit, whose base and perturbed runs step as one (2, trials,
    n, p) batch on the base run's Z, which keeps the untouched agents bitwise
    identical across the pair.
    """
    return _DYNAMICS[algorithm].kernel(X, Y, G, Z, W, pr, a_k, beta)


def _schedule_arrays(sp: ScheduleParams, T: int, constant: bool = False):
    """(alphas, nus): the stepsizes alpha_k and noise scales nu_k of k = 1..T
    as arrays, nus None for a run that draws no noise: a constant row, whose
    alpha_k is gamma, or delta = 0. The only place that decides either."""
    if constant:
        return np.full(T, sp.gamma), None
    ks = np.arange(1, T + 1)
    return stepsize(sp, ks), noise_scale(sp, ks) if sp.delta > 0.0 else None


def _chunk_size(trials: int, T: int, n: int, p: int) -> int:
    """Trials per chunk that keep its preallocated noise block under ~256 MB."""
    per_trial = max(1, T * n * p * 8)
    return max(1, min(trials, (256 << 20) // per_trial))


@dataclass(eq=False)
class Trace:
    """Per-iteration scalar series of an ensemble, trial-major: row t of each
    C-contiguous (trials, T + 1) array is trial t, and column 0 its initial
    state (step_norm[:, 0] is defined as 0). diagnostics maps each invariant
    of the dynamic's row to a (trials,) array of its worst residual per trial,
    none when T = 0. A residual-only run holds None for the other three
    series and {} for diagnostics. rendered holds what monte_carlo's render
    made of the trials, empty without one. Traces compare by identity;
    compare their arrays."""

    algorithm: str
    iterations: int
    residual: np.ndarray  # ||X - 1 x*^T||_F^2
    consensus_err: np.ndarray | None  # ||X - 1 xbar^T||_F^2
    mean_err: np.ndarray | None  # ||xbar - x*||^2
    step_norm: np.ndarray | None  # ||X(k) - X(k-1)||_F^2
    xstar: np.ndarray
    diagnostics: dict
    rendered: str = ""

    def __len__(self) -> int:
        return len(self.residual)


_SERIES = ("residual", "consensus_err", "mean_err", "step_norm")


def _join(parts: list[Trace]) -> Trace:
    """The trials of parts, in order, as one Trace; one part as it is."""
    if len(parts) == 1:
        return parts[0]
    joined = {name: np.concatenate([getattr(part, name) for part in parts])
              for name in _SERIES if getattr(parts[0], name) is not None}
    diagnostics = {key: np.concatenate([part.diagnostics[key] for part in parts])
                   for key in parts[0].diagnostics}
    rendered = "".join(part.rendered for part in parts)
    return replace(parts[0], **joined, diagnostics=diagnostics, rendered=rendered)


def _seed_draw(gen: np.random.Generator) -> int:
    """int(gen.integers(2**63)) from a fresh stream: for this bound numpy's
    Lemire draw is the stream's first raw 64-bit word shifted right by one,
    and reading the word skips the draw's set-up."""
    return gen.bit_generator.random_raw() >> 1


def trial_seed(seed: int, t: int) -> int:
    """Master seed for trial t of an ensemble rooted at seed."""
    return _seed_draw(substream(seed, "trial", t))


def _trial_seeds(seed: int, trials: int) -> list[int]:
    """[trial_seed(seed, t) for t in range(trials)], drawn through draw_rows."""
    return draw_rows([(seed, "trial", np.arange(trials))], _seed_draw)


def _validate(pr: Problem, W: np.ndarray, sp: ScheduleParams, algorithm: str, T: int):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if W.shape != (pr.n, pr.n):
        raise ValueError(f"weight matrix shape {W.shape} does not match n={pr.n}")
    if T < 0:
        raise ValueError(f"iteration count must be >= 0, got {T}")
    if _DYNAMICS[algorithm].constant and sp.delta != 0.0:
        raise ScheduleError(f"{algorithm} is a noiseless dynamic; needs delta = 0")


def _split(items: list, count: int) -> list:
    """items in min(count, len(items)) contiguous pieces of near-equal length,
    the longer ones first."""
    count = min(count, len(items))
    size, extra = divmod(len(items), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _ensemble(pr: Problem, W, sp: ScheduleParams, algorithm: str, T: int, trials: int,
              seed: int, pieces: int = 1):
    """Check an ensemble of trials of one dynamic and lay it out. Returns W as
    an array and the trial seeds, trial_seed(seed, t) for t in trial order,
    split once into max(pieces, ceil(trials / chunk)) near-equal contiguous
    pieces (one per trial, when there are fewer), chunk the `_chunk_size`:
    none is longer than a chunk. The simulator, the sensitivity audit and
    the attacker view all take their checks, seeds and pieces from here."""
    Wm = _mat(W)
    _validate(pr, Wm, sp, algorithm, T)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    chunk = _chunk_size(trials, T, pr.n, pr.p)
    return Wm, _split(_trial_seeds(seed, trials), max(pieces, -(-trials // chunk)))


def _divergence(algorithm: str, seeds, T: int, named: dict, k0: int = 1, series: bool = False):
    """Raise the DivergenceError of the first non-finite value in named, if
    any. named maps names to (iterations, trials, ...) arrays, row i iteration
    k0 + i of the trials whose seeds are seeds; the error names the earliest
    iteration, then the lowest trial, then the first name. series marks the
    names as reported series of a run whose states stayed finite."""
    if all(np.isfinite(a).all() for a in named.values()):
        return
    # (iterations, trials, names): the first hit is the earliest iteration, lowest trial
    bad = np.stack([~np.isfinite(a).all(axis=tuple(range(2, a.ndim))) for a in named.values()],
                   axis=-1)
    i, t, s = (int(index) for index in np.unravel_index(int(np.argmax(bad)), bad.shape))
    name = list(named)[s]
    raise DivergenceError(
        f"{algorithm} diverged: trial seed {seeds[t]} has a non-finite {name} "
        f"at iteration {k0 + i} of {T}", iteration=k0 + i, trial=t,
        series=name if series else None,
    )


def _draw_streams(seeds, n: int, p: int, nus):
    """The streams of the trials whose seeds are seeds, which `_trajectory`
    steps through: the (trials, n, p) initial states and, given the noise
    scales nus of iterations 1..T, T = len(nus), the read-only (trials, T,
    n, p) Laplace noise block (None when nus is None).

    Trial seed s owns substream(s, "init"), which draws its initial state,
    and substream(s, "noise"), whose row k - 1 drives iteration k through
    laplace_from_uniform(row, nus[k - 1]). The noise is transformed in place
    in the block draw_rows filled, one step's (trials, n, p) slice at a
    time, so the transform's temporaries stay the size of one slice. Every
    dynamic that reads the block shares its one transform.
    """
    trials = len(seeds)
    seeds = np.asarray(seeds)
    X = draw_rows([(seeds, "init")], np.random.Generator.standard_normal,
                  out=np.empty((trials, n, p)))
    if nus is None:
        return X, None
    noise = draw_rows([(seeds, "noise")], np.random.Generator.random,
                      out=np.empty((trials, len(nus), n, p)))
    for k in range(len(nus)):
        noise[:, k] = laplace_from_uniform(noise[:, k], nus[k])
    noise.flags.writeable = False
    return X, noise


def _trajectory(pr, W, algorithm, alphas, nus, beta, seeds, streams=None):
    """Step len(seeds) trials of one dynamic together, step k with stepsize
    alphas[k - 1] and gain beta, yielding (X, Y, G, Z, Xi) for k = 0..T, T =
    len(alphas), as (trials, n, p) batches. W is an array.

    The trial streams are `_draw_streams(seeds, n, p, nus)`'s, or streams,
    the (X0, noise) it already drew for seeds; nus is read only to draw them.
    Any schedule steps, `_schedule_arrays`'s or another.

    k = 0 yields the initial state, Y(0) and G(0) (zero and None, except for
    a tracking dynamic, where Y(0) = G(0) = grad F(X(0))) and Z = Xi = None.
    Each later yield is the state after step k, the G that step evaluated,
    the observation Z = X(k-1) + Xi it consumed and the noise Xi, a
    read-only view of the noise block (None, with Z = X(k-1), when
    noiseless). Yielded arrays are never written again.

    pr may be `_stacked`: its gradients carry a leading member axis, (m,
    trials, n, p), and so does every state after the shared X(0). Every
    member steps on member 0's observation, Z = X(k-1)[0] + Xi, so the
    members share one transcript and the products with it.

    A run without noise at one stepsize, as a constant row's is, maps (X, Y,
    G) alone, so a repeated state repeats every step after it. It keeps an
    anchor state, moved every keep = _BLOCK_BYTES // (3 X.nbytes) steps (0
    for a bigger batch), and the steps since; once a state equals the anchor
    byte for byte, the rest of the run cycles through those steps' arrays
    without a kernel call.
    """
    row = _DYNAMICS[algorithm]
    X, noise = streams or _draw_streams(seeds, pr.n, pr.p, nus)
    G = pr.gradients(X) if row.tracking else None
    Y = np.zeros_like(X) if G is None else G
    Z = Xi = None
    yield X, Y, G, Z, Xi

    fixed = noise is None and (alphas == alphas[:1]).all()  # one map of (X, Y, G)
    keep = _BLOCK_BYTES // (3 * X.nbytes) if fixed else 0
    key0, Y0, G0, since = None, None, None, []  # the anchor (X's bytes, Y, G), the steps since
    for idx, a_k in enumerate(alphas.tolist()):
        base = X if X.ndim == 3 else X[0]
        Xi = None if noise is None else noise[:, idx]
        Z = base if Xi is None else base + Xi
        X, Y, G = _obs_step(algorithm, X, Y, G, Z, W, pr, a_k, beta)
        step = X, Y, G, Z, Xi
        yield step
        if keep:
            since.append(step)
            if X.tobytes() == key0 and Y.tobytes() == Y0.tobytes() and G.tobytes() == G0.tobytes():
                yield from islice(cycle(since), len(alphas) - 1 - idx)
                break
            if len(since) == keep:
                key0, Y0, G0, since = X.tobytes(), Y, G, []


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


def _batched(pr, W, sp, algorithm, T, seeds, xstar, residual_only=False):
    """Simulate len(seeds) trials at once; W is an array. Returns their Trace,
    with each trial's worst residual of each invariant as its diagnostics.
    residual_only computes the residual alone: the other three series are
    None and diagnostics {}, and no invariant is checked.

    Steps are reduced in blocks of B, as many (trials, n, p) states as fit in
    _BLOCK_BYTES and at least one; a block of one stacks views, not copies.
    The first block with a non-finite state, which makes its residual
    non-finite, raises DivergenceError at once. A run whose states stay
    finite but whose reported series are not raises one at its end, naming
    the first such iteration, trial and series.
    """
    trials = len(seeds)
    row = _DYNAMICS[algorithm]
    alphas, nus = _schedule_arrays(sp, T, row.constant)
    # the first yield draws the trial streams; their noise block is the
    # memory peak, so it is allocated before the metric arrays below exist
    steps = _trajectory(pr, W, algorithm, alphas, nus, sp.beta, seeds)
    X, *_ = next(steps)
    B = max(1, _BLOCK_BYTES // X.nbytes)

    # trial-major, as the Trace holds them; a block fills whole columns
    residual = np.empty((trials, T + 1))
    if residual_only:
        consensus = mean_err = step_norm = None
    else:
        consensus = np.empty((trials, T + 1))
        mean_err = np.empty((trials, T + 1))
        step_norm = np.zeros((trials, T + 1))
    reported = {name: series for name, series in
                zip(_SERIES, (residual, consensus, mean_err, step_norm)) if series is not None}

    def metrics(cols, Xb, Xprev):
        """Fill columns cols of the reported series from the (b, trials, n, p)
        states Xb; Xprev is the state before Xb[0] (None at k = 0). Returns
        the agent means, (b, trials, p), or None for a residual-only run."""
        diff = Xb - xstar
        residual[:, cols] = np.add.reduce(diff * diff, axis=(2, 3)).T
        if residual_only:
            return None
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

    diagnosed = bool(row.invariants) and not residual_only
    xbar = metrics(slice(0, 1), X[None], None)  # the means of the last block's states
    S = 0.0  # running sum of (W - I) X(l), l = 0..k-1
    for k0 in range(1, T + 1, B):
        b = min(B, T + 1 - k0)
        Xs, Ys, Gs, _, Xis = zip(*islice(steps, b))
        Xb = _stack(Xs)
        cols = slice(k0, k0 + b)
        xbar_b = metrics(cols, Xb, X)
        if not np.isfinite(residual[:, cols]).all():
            _divergence(algorithm, seeds, T, {"state": Xb}, k0)
        if diagnosed:
            S = diagnose(alphas[k0 - 1 : k0 - 1 + b], Xb, Ys, Gs, Xis, X,
                         _shift(xbar[-1], xbar_b), xbar_b, S)
        X, xbar = Xs[-1], xbar_b
    steps.close()  # frees the noise block
    _divergence(algorithm, seeds, T, {name: series.T for name, series in reported.items()},
                k0=0, series=True)

    return Trace(algorithm, T, *(reported.get(name) for name in _SERIES), xstar, worst_seen)


def _piece(pr, W, sp, algorithm, T, seeds, xstar, start, render, err, residual_only):
    """Simulate one piece of an ensemble, the trials from index start on, under
    the numpy error settings err, and set its rendered to render(trace, start)
    when render is given. A pool worker runs a whole piece. _batched is read
    from the module globals there too, so a wrapped _batched stays in effect.
    A diverging piece returns its DivergenceError, its trial made an ensemble
    index, for monte_carlo to choose the ensemble's first."""
    with np.errstate(**err):
        try:
            trace = _batched(pr, W, sp, algorithm, T, seeds, xstar,
                             residual_only=residual_only)
        except DivergenceError as exc:
            exc.trial += start
            return exc
        if render is not None:
            trace.rendered = render(trace, start)
    return trace


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
    render: Callable | None = None,
    residual_only: bool = False,
) -> Trace:
    """Simulate an ensemble. Row t of the Trace reproduces
    run(..., seed=trial_seed(seed, t)) exactly, whatever the chunking or job
    count. residual_only computes the residual alone, bit for bit the
    residual of the full run: the Trace holds None for the other series and
    {} for diagnostics, and no invariant is checked.

    The trials run in contiguous pieces, at least min(jobs, trials) of them
    and none longer than a `_chunk_size` chunk. The calling process runs the
    first piece; with jobs > 1 a process pool of at most jobs - 1 workers,
    and no more than there are other pieces, runs the others and is shut
    down before the call returns. Every trial derives its own streams, so
    the result does not depend on the pieces. render, a picklable function
    of (piece's Trace, index of its first trial), runs on each piece in the
    process that simulated it; the returned Trace's rendered joins its
    results in trial order. A diverging ensemble raises the DivergenceError
    of its earliest non-finite state, lowest trial first, as one batch would;
    one whose states stay finite raises that of its earliest non-finite
    reported series.
    """
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    Wm, pieces = _ensemble(pr, W, sp, algorithm, T, trials, seed, pieces=jobs)
    xstar = optimum(pr)
    err = np.geterr()
    tasks = [(pr, Wm, sp, algorithm, T, piece, xstar, start, render, err, residual_only)
             for piece, start in zip(pieces, accumulate(map(len, pieces), initial=0))]

    workers = min(jobs, len(tasks)) - 1
    if workers < 1:
        parts = [_piece(*task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(_piece, *task) for task in tasks[1:]]
            parts = [_piece(*tasks[0]), *(future.result() for future in futures)]
        finally:
            pool.shutdown(cancel_futures=True)

    diverged = [part for part in parts if isinstance(part, DivergenceError)]
    if diverged:
        raise min(diverged, key=lambda exc: (exc.series is not None, exc.iteration, exc.trial))
    return _join(parts)
