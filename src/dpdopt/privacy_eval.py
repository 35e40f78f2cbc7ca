"""Empirical privacy leakage for the noisy tracking dynamic.

Three agents on a triangle solve a scalar problem; agent 0 is the target,
the other two collude. Across every trial they record the target's private
gradient V(k) = grad f_0(z_0(k)) and what the pair can compute from public
information: the received z_0(k), the replayed correction state y_0(k), and
a gradient estimate backed out of the update rule. The leakage score is the
worst iteration's normalized mutual information between V(k) and the
estimate, with the same kNN estimator in the numerator and denominator.

Two gradient estimates are carried side by side: `verbatim` divides the
consensus defect at k by alpha_k, and `reconstruction` uses the next
received message z_0(k+1) in place of z_0(k), which recovers V(k) exactly
when no noise is injected. The reconstruction is the default leakage input.
The view takes its checks, trial seeds, chunks and schedule from the
engine's `_ensemble`, `_schedule_arrays` and `_divergence`, as the
simulator does, and steps each chunk through its trajectory generator.

scipy, whose kd-tree and digamma the estimator uses, is imported the first
time either is needed, not with the module: importing `scipy.spatial` takes
longer than importing the rest of the package, and only the estimator, and
so only the `mnmi` subcommand, uses it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import _divergence, _ensemble, _schedule_arrays, _trajectory
from .engine import _obs_step, trial_seed  # noqa: F401  (perfbench/tracing.py patches them)
from .objective import Problem
from .rng import substream
from .schedule import ScheduleParams
from .schedule import laplace_from_uniform  # noqa: F401  (perfbench/tracing.py patches it)

if TYPE_CHECKING:  # bound at run time by _load_scipy
    from scipy.spatial import cKDTree
    from scipy.special import digamma

__all__ = [
    "AttackerDataset",
    "collect_attacker_view",
    "knn_mutual_information",
    "MnmiReport",
    "mnmi_report",
]

_JITTER = 1e-10
# the fewest samples knn_mutual_information scores
_MIN_SAMPLES = 50


def _load_scipy() -> None:
    """Bind `cKDTree` and `digamma` in this module, importing scipy once.

    A name already bound keeps its value: perfbench/tracing.py and the
    tests replace `cKDTree` with a wrapper, and every tree is built through
    the module attribute.
    """
    if "cKDTree" in globals() and "digamma" in globals():
        return
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    globals().setdefault("cKDTree", cKDTree)
    globals().setdefault("digamma", digamma)


def __getattr__(name: str):
    # reading privacy_eval.cKDTree or privacy_eval.digamma loads scipy (PEP 562)
    if name in ("cKDTree", "digamma"):
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class AttackerDataset:
    """Aligned (trial, k) samples for k = 1..K of the target's private
    gradient and everything the colluding pair can reconstruct."""

    V: np.ndarray  # private gradient grad f_0(z_0(k))
    z0: np.ndarray  # message received from the target
    y0: np.ndarray  # correction state, replayed from public updates
    estimate_verbatim: np.ndarray  # (zbar_0(k) - z_0(k))/alpha_k - y_0(k)
    estimate_reconstruction: np.ndarray  # (zbar_0(k) - z_0(k+1))/alpha_k - y_0(k)
    trials: int
    K: int

    def __post_init__(self):
        shape = (self.trials, self.K)
        for name in ("V", "z0", "y0", "estimate_verbatim", "estimate_reconstruction"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")

    def estimate(self, variant: str = "reconstruction") -> np.ndarray:
        if variant == "reconstruction":
            return self.estimate_reconstruction
        if variant == "verbatim":
            return self.estimate_verbatim
        raise ValueError(f"unknown estimate variant {variant!r}")

    def triple(self, variant: str = "reconstruction") -> np.ndarray:
        """The full observable triple, stacked as (trials, K, 3)."""
        return np.stack([self.z0, self.y0, self.estimate(variant)], axis=-1)


def collect_attacker_view(
    pr: Problem, W, sp: ScheduleParams, T: int, trials: int, seed: int
) -> AttackerDataset:
    """Simulate the three-agent scenario and collect per-iteration samples.

    Runs the noisy tracking dynamic for T+1 iterations per trial, records
    what the colluding pair sees of the target at k = 1..T+1 and returns
    slices of that record for k = 1..T (the reconstruction estimate at k
    reads the message sent at k+1). Deterministic given the seed; trial t
    steps through the simulator's trajectory generator with seed
    trial_seed(seed, t). A non-finite sample raises `_divergence`'s error; a
    chunk stops one row past its first non-finite record row, the rest NaN.
    """
    if pr.n != 3 or pr.p != 1:
        raise ValueError(
            f"attacker scenario needs 3 agents with scalar states, got n={pr.n}, p={pr.p}"
        )
    if T < 1:
        raise ValueError(f"need at least one iteration, got {T}")
    Wm, chunks = _ensemble(pr, W, sp, "alg1", T + 1, trials, seed)
    alphas, nus = _schedule_arrays(sp, T + 1)

    # row k - 1 (k = 1..T+1): the target's message, the average it enters, its y and gradient
    z, zbar, y, g = (np.full((T + 1, trials), np.nan) for _ in range(4))
    stop = 0
    for seeds in chunks:
        rows = slice(stop, stop + len(seeds))
        stop = rows.stop
        steps = _trajectory(pr, Wm, "alg1", alphas, nus, sp.beta, seeds)
        next(steps)
        for k, (_, Y, G, Z, _) in enumerate(steps):
            # the kernel keeps W Z internal; the estimates need it
            z[k, rows], zbar[k, rows] = Z[:, 0, 0], (Wm @ Z)[:, 0, 0]
            y[k, rows], g[k, rows] = Y[:, 0, 0], G[:, 0, 0]
            # the samples of row k - 1 read record rows k - 1 and k, and are not
            # finite where row k - 1 is not: no later row can change the line
            if k and not np.isfinite([a[k - 1, rows] for a in (z, zbar, y, g)]).all():
                break

    with np.errstate(all="ignore"):  # a non-finite sample is reported below
        verbatim = (zbar[:T] - z[:T]) / alphas[:T, None] - y[:T]
        reconstruction = (zbar[:T] - z[1:]) / alphas[:T, None] - y[:T]
    out = dict(V=g[:T], z0=z[:T], y0=y[:T], estimate_verbatim=verbatim,
               estimate_reconstruction=reconstruction)
    _divergence("alg1", [s for chunk in chunks for s in chunk], T, out)
    return AttackerDataset(trials=trials, K=T, **{name: a.T for name, a in out.items()})


def _as_samples(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"samples must be 1-D or 2-D, got shape {a.shape}")
    return a


@functools.lru_cache(maxsize=8)
def _jitter(x_shape: tuple, y_shape: tuple) -> tuple:
    """The tie-breaking jitter for one pair of sample shapes.

    The stream is fixed, so the draws depend only on the shapes; they are
    read-only because every call with these shapes shares them.
    """
    rng = substream(0, "mi-jitter")
    jx = rng.uniform(-_JITTER, _JITTER, x_shape)
    jy = rng.uniform(-_JITTER, _JITTER, y_shape)
    jx.flags.writeable = False
    jy.flags.writeable = False
    return jx, jy


def _settle_end(s, a, r, end, out, grow, shrink):
    """Settle one end of every row's window on |s_j - a_i| <= r_i.

    The end's outer neighbour is s[end + out] (out is -1 for the lower end,
    0 for the upper) and its inner one s[end - 1 - out]. An end moves out
    while its outer neighbour passes and in while its inner one fails. Each
    move crosses all copies of one value, which share a verdict: `grow` and
    `shrink` are the searchsorted sides that land past them.
    """
    n = len(s)
    while True:
        rows = np.flatnonzero((end + out >= 0) & (end + out < n))
        grown = rows[np.abs(s[end[rows] + out] - a[rows]) <= r[rows]]
        end[grown] = np.searchsorted(s, s[end[grown] + out], side=grow)
        inner = end - 1 - out
        shrunk = np.flatnonzero(np.abs(s[inner] - a) > r)
        end[shrunk] = np.searchsorted(s, s[inner[shrunk]], side=shrink)
        if not (len(grown) or len(shrunk)):
            return end


def _sorted_counts(s: np.ndarray, a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Number of j with |s_j - a_i| <= r_i, for each i, on sorted values s.

    fl(s_j - a_i) is monotone in s_j, so the values that pass form a
    contiguous run of s that holds a_i. `searchsorted` on a_i -/+ r_i finds
    the run up to rounding, and a short fix-up re-testing the predicate
    settles its ends.
    """
    lo = _settle_end(s, a, r, np.searchsorted(s, a - r, side="left"), -1, "left", "right")
    hi = _settle_end(s, a, r, np.searchsorted(s, a + r, side="right"), 0, "right", "left")
    return hi - lo


def _marginal_counts(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Number of rows j with max|a_j - a_i| <= r_i, for each row i.

    The same count as `cKDTree(a).query_ball_point(a, r, p=inf,
    return_length=True)`, including the point itself. One column is counted
    on its sorted values (`_sorted_counts`).
    """
    if a.shape[1] != 1:
        _load_scipy()
        return cKDTree(a).query_ball_point(a, r, p=np.inf, return_length=True)
    a = a[:, 0]
    return _sorted_counts(np.sort(a), a, r)


def _window(v: np.ndarray, w: int, rows=slice(None)) -> np.ndarray:
    """|v_j - v_i| for j = i - w - 1, ..., i + w + 1 and each row i of sorted
    v (every row, or `rows`), one line per offset; infinite past the ends of v.

    The 2w + 1 middle lines are the row's window and the first and last its
    gaps to the rows just past either end: fl(v_i - v_j) = -fl(v_j - v_i),
    so these are the distances the kd-tree computes.
    """
    pad = np.full(w + 1, np.inf)
    lines = sliding_window_view(np.concatenate([-pad, v, pad]), len(v))
    return np.abs(lines[:, rows] - v[rows])


def _window_counts(v: np.ndarray, dist: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Number of rows j with |v_j - v_i| <= r_i, for each row i of sorted v,
    from every row's `_window` `dist`.

    fl(v_j - v_i) is monotone in v_j, so when the row just past each end of
    a window fails the predicate, so does every row further out, and the
    window holds all the rows that pass. Rows whose run reaches past their
    window are counted on v itself (`_sorted_counts`).
    """
    passed = dist <= r
    counts = np.count_nonzero(passed, axis=0)
    spill = np.flatnonzero(passed[0] | passed[-1])
    if len(spill):
        counts[spill] = _sorted_counts(v, v[spill], r[spill])
    return counts


def _knn_radius(s: np.ndarray, t: np.ndarray, k: int, near: tuple | None = None) -> np.ndarray:
    """Each row's max-norm distance to its k-th neighbour in the plane (s, t),
    for s sorted: the same value as `cKDTree(joint).query(joint, k + 1,
    p=inf)[0][:, k]`, bit for bit.

    A row's window of 2w + 1 rows in sorted order gives an upper bound: the
    (k + 1)-th smallest of their distances max(|s_j - s_i|, |t_j - t_i|),
    the row itself included, which are the kd-tree's own float operations.
    fl(s_i - s_j) is monotone in s_j, so no row past either end of the
    window is nearer than the gap in s to the first one past it; a bound
    within both gaps is the radius. Windows of w = k, then w = 4k, settle
    most rows, and one kd-tree query settles the rest. When the w = k
    windows settle fewer than one row in 32, s and t are spread so alike
    that the w = 4k windows would settle too few rows to repay their cost
    (measured on the attacker view's data), and the open rows go to the
    tree at once.

    `near` holds the w = k `_window` of s and of t, when the caller has them.
    """
    n = len(s)
    radius = np.empty(n)
    rows = np.arange(n)
    ds, dt = near if near is not None else (_window(s, k), _window(t, k))
    for wider in (min(4 * k, n - 1), None):
        bound = np.partition(np.maximum(ds[1:-1], dt[1:-1]).T, k, axis=1)[:, k]
        settled = (bound <= ds[0]) & (bound <= ds[-1])
        radius[rows[settled]] = bound[settled]
        rows = rows[~settled]
        if not len(rows):
            return radius
        if wider is None or 32 * len(rows) > 31 * n:
            break
        ds, dt = _window(s, wider, rows), _window(t, wider, rows)
    _load_scipy()
    joint = np.column_stack([s, t])
    radius[rows] = cKDTree(joint).query(joint[rows], k=k + 1, p=np.inf)[0][:, k]
    return radius


@functools.lru_cache(maxsize=8)
def _digamma_table(n: int) -> np.ndarray:
    """digamma(0), ..., digamma(n): psi of every count among n samples.

    Indexing it with integer counts gives the bits of digamma evaluated on
    them, since digamma converts an integer to the same float. Read-only,
    because every call with n samples shares it.
    """
    _load_scipy()
    table = digamma(np.arange(n + 1, dtype=float))
    table.flags.writeable = False
    return table


def knn_mutual_information(xs, ys, k_neighbors: int = 3) -> float:
    """kNN mutual information in nats (Kraskov et al. variant 1, max-norm).

    I = psi(k) + psi(N) - <psi(n_x + 1) + psi(n_y + 1)>, where each point's
    radius is the max-norm distance to its kth joint neighbour, less 1e-15
    so that the marginal counts n_x + 1 and n_y + 1 (the point itself
    included) take neighbours strictly inside it. A deterministic jitter of
    amplitude 1e-10 breaks distance ties.

    When both marginals have one column, the points are sorted on the
    coordinate with the wider spread, and the radius comes from windows of
    sorted neighbours (`_knn_radius`); rows a window cannot settle go to a
    kd-tree query. The sorted coordinate's counts come from each row's
    w = k window (`_window_counts`), and so do the other coordinate's when
    it is sorted in the same order, as in I(V, V); rows whose run reaches
    past the window, and the rows of an unsorted other coordinate whose
    radius is below its spread fl(max - min), are counted on sorted values
    (`_sorted_counts`); fl(t_j - t_i) is monotone, so a radius of at least
    the spread counts every row. Wider marginals use a kd-tree for the
    radius and kd-tree range queries for the counts. Either way every
    radius and count equals the kd-tree's bit for bit, so the value does
    not depend on the path. Slightly negative outputs are possible; callers
    clamp where needed.
    """
    xs = _as_samples(xs)
    ys = _as_samples(ys)
    n = len(xs)
    if len(ys) != n:
        raise ValueError(f"sample counts differ: {n} vs {len(ys)}")
    if n < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    if not 1 <= k_neighbors <= n - 1:
        raise ValueError(f"k_neighbors must be in [1, {n - 1}], got {k_neighbors}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("samples must be finite")
    _load_scipy()

    jx, jy = _jitter(xs.shape, ys.shape)
    xs = xs + jx
    ys = ys + jy

    if xs.shape[1] == ys.shape[1] == 1:
        if np.ptp(ys) > np.ptp(xs):
            xs, ys = ys, xs  # the estimate is symmetric; sort on the wider spread
        order = np.argsort(xs[:, 0])
        s, t = xs[order, 0], ys[order, 0]
        near = _window(s, k_neighbors), _window(t, k_neighbors)
        radius = np.maximum(_knn_radius(s, t, k_neighbors, near) - 1e-15, 0.0)
        nx = _window_counts(s, near[0], radius)
        if np.all(t[:-1] <= t[1:]):
            ny = _window_counts(t, near[1], radius)
        else:
            ny, part = np.full(n, n), np.flatnonzero(radius < np.ptp(t))
            if len(part):
                ny[part] = _sorted_counts(np.sort(t), t[part], radius[part])
    else:
        order = np.arange(n)
        joint = np.hstack([xs, ys])
        radius = cKDTree(joint).query(joint, k=k_neighbors + 1, p=np.inf)[0][:, k_neighbors]
        radius = np.maximum(radius - 1e-15, 0.0)
        nx, ny = _marginal_counts(xs, radius), _marginal_counts(ys, radius)

    # the mean runs in the samples' own order, so its rounding is the same on both paths
    table = _digamma_table(n)
    psi = np.empty(n)
    psi[order] = table[nx] + table[ny]
    return float(digamma(k_neighbors) + digamma(n) - np.mean(psi))


@dataclass(frozen=True)
class MnmiReport:
    """Per-iteration leakage ratios and their maximum."""

    ratios: np.ndarray  # (K,), clamped to [0, 1]; NaN where k was skipped
    raw_ratios: np.ndarray  # pre-clamp values
    argmax_k: int  # 1-based iteration attaining the max
    value: float
    skipped: tuple  # 1-based iterations skipped as degenerate


def mnmi_report(
    ds: AttackerDataset,
    k_neighbors: int = 3,
    variant: str = "reconstruction",
    joint: bool = False,
) -> MnmiReport:
    """Normalized leakage per iteration: I(V(k), estimate(k)) over
    I(V(k), V(k)), both from the same estimator.

    joint=True scores the full observable triple instead of the gradient
    estimate alone. Iterations whose private samples are degenerate (zero
    spread) or whose self-information is nonpositive are skipped with a
    warning; if every iteration is skipped the dataset is unusable.
    """
    est = ds.triple(variant) if joint else ds.estimate(variant)
    ratios = np.full(ds.K, np.nan)
    raw = np.full(ds.K, np.nan)
    skipped = []
    for idx in range(ds.K):
        v = ds.V[:, idx]
        if np.ptp(v) == 0.0:
            skipped.append(idx + 1)
            continue
        denom = knn_mutual_information(v, v, k_neighbors)
        if denom <= 0.0:
            skipped.append(idx + 1)
            continue
        num = knn_mutual_information(v, est[:, idx], k_neighbors)
        raw[idx] = num / denom
        ratios[idx] = min(max(raw[idx], 0.0), 1.0)
    if skipped:
        warnings.warn(
            f"skipped {len(skipped)} degenerate iteration(s): {skipped[:5]}...",
            stacklevel=2,
        )
    if len(skipped) == ds.K:
        raise ValueError("every iteration degenerate; nothing to score")
    best = int(np.nanargmax(ratios))
    return MnmiReport(
        ratios=ratios,
        raw_ratios=raw,
        argmax_k=best + 1,
        value=float(ratios[best]),
        skipped=tuple(skipped),
    )
