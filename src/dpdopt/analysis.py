"""Sensitivity audits, the three-term gain system, spectral feasibility
tests, the accuracy bound, and a coordinate-descent parameter tuner.

The audit couples two runs of the same dynamic on an adjacent problem pair:
the base run generates the shared observations (noisy states), and the
perturbed run is replayed against that identical transcript. Under this
coupling every agent except the perturbed one evolves bitwise identically,
so the per-iteration L1 gap is exactly the quantity the privacy accountant
divides by the noise scale. `_envelopes` lays the audit out in one call: it
takes its checks, trial seeds and chunks from the engine's `_ensemble` and
its schedule from `_schedule_arrays`, as the simulator does, and returns
its weights and stepsizes with the envelopes. Each chunk's streams are
drawn through `_draw_streams` once, the noise transformed, for every
audited dynamic, the rows that are not constant. Each replay is one run of
the engine's `_trajectory`, the simulator's generator, on those streams and
on `_stacked(pair)`, the base problem with the two problems' linear terms
stacked: the two runs step together as the (2, trials, n, p) members of its
states, one kernel call per step, and the transcript's products are
computed once for both. `_replay` only records the gaps, which `_envelopes`
checks and reduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (_DYNAMICS, _divergence, _draw_streams, _ensemble, _schedule_arrays,
                     _trajectory)
from .engine import _obs_step, trial_seed  # noqa: F401  (perfbench/tracing.py patches them)
from .errors import DivergenceError, ScheduleError
from .objective import AdjacentPair, _stacked
from .rng import substream
from .schedule import ScheduleParams
from .schedule import laplace_from_uniform  # noqa: F401  (perfbench/tracing.py patches it)

__all__ = [
    "AUDIT_ALGORITHMS",
    "SensitivityEnvelope",
    "ComparisonReport",
    "audit_sensitivity",
    "compare_sensitivities",
    "GainSystem",
    "build_gain_system",
    "atilde",
    "rho_less_than",
    "q1_bound",
    "accuracy_bound",
    "tune",
]

AUDIT_ALGORITHMS = tuple(a for a, row in _DYNAMICS.items() if not row.constant)


@dataclass(frozen=True)
class SensitivityEnvelope:
    """Per-iteration empirical sensitivity maxima from coupled-pair replay.

    delta_hat[k-1] is the max over trials of the entrywise L1 norm of
    X(k) - X'(k) (base minus perturbed, whole stacked matrix); bound[k-1]
    is delta * alpha_k. off_target_max is the largest absolute state gap
    seen on any row other than the perturbed agent's (0.0 means the
    coupling left everyone else untouched, as the theory requires).
    """

    algorithm: str
    delta_hat: np.ndarray
    bound: np.ndarray
    trials: int
    off_target_max: float

    @property
    def margin(self) -> np.ndarray:
        return self.bound - self.delta_hat

    @property
    def within_bound(self) -> bool:
        return bool(np.all(self.delta_hat <= self.bound + 1e-12))


def audit_sensitivity(
    pair: AdjacentPair,
    algorithm: str,
    W,
    sp: ScheduleParams,
    T: int,
    trials: int,
    seed: int,
) -> SensitivityEnvelope:
    """Empirical per-iteration sensitivity of one dynamic on one adjacent pair.

    The base problem runs on the simulator's streams through the
    simulator's kernel, so each trial's initial state, noise and observation
    transcript are the simulator's bit for bit; the identical transcript is
    replayed into the perturbed problem. The envelope is the per-k max over
    trials.
    """
    if algorithm not in AUDIT_ALGORITHMS:
        raise ValueError(
            f"sensitivity audit supports {AUDIT_ALGORITHMS}, got {algorithm!r}"
        )
    return _envelopes(pair, (algorithm,), W, sp, T, trials, seed)[0][algorithm]


def _envelopes(pair, algorithms, W, sp, T, trials, seed):
    """Check the audit arguments; return the SensitivityEnvelope of each of
    algorithms, by name, with W as an array and the stepsizes alpha_k. Each
    chunk's streams are drawn and its noise transformed once, and shared by
    every replay; each dynamic's gaps are joined over the chunks, checked
    through the engine's `_divergence` and reduced to their exact maximum."""
    if T < 1:
        raise ValueError(f"need at least one iteration, got {T}")
    # no audited row is constant, so the engine's checks are the same for each
    Wm, chunks = _ensemble(pair.base, W, sp, algorithms[0], T, trials, seed)
    alphas, nus = _schedule_arrays(sp, T)
    stacked = _stacked(pair)
    parts = {alg: [] for alg in algorithms}
    for seeds in chunks:
        streams = _draw_streams(seeds, pair.base.n, pair.base.p, nus)
        for alg in algorithms:
            parts[alg].append(_replay(stacked, pair.i0, alg, Wm, alphas, sp.beta, seeds, streams))
    ordered = [s for chunk in chunks for s in chunk]
    envelopes = {}
    for alg, replays in parts.items():
        gaps = np.concatenate([record for record, _ in replays], axis=1)
        _divergence(alg, ordered, T, {"gap": gaps})
        envelopes[alg] = SensitivityEnvelope(alg, gaps.max(axis=1), pair.delta * alphas, trials,
                                             max(off_target for _, off_target in replays))
    return envelopes, Wm, alphas


def _replay(stacked, i0, algorithm, Wm, alphas, beta, seeds, streams):
    """Replay one dynamic on the adjacent pair for T = len(alphas) steps over
    the trial streams of seeds, the (X0, noise) that _draw_streams drew for
    them; stacked is `_stacked(pair)`. Returns the (T, trials) L1 gaps and
    the largest gap on a row other than i0. The replay stops at the first
    step with a non-finite gap off row i0: that step's gaps are not finite,
    so the later ones, left NaN, cannot change `_divergence`'s line.

    The pair steps as the two members of the engine's `_trajectory` on
    stacked, member 0 the base run, whose observations both members consume:
    member 0 is bit for bit the simulator's trajectory of the base problem.
    """
    gaps = np.full((len(alphas), len(seeds)), np.nan)
    off_target = 0.0
    steps = _trajectory(stacked, Wm, algorithm, alphas, None, beta, seeds, streams)
    next(steps)
    for idx, (X, *_) in enumerate(steps):
        D = np.subtract(X[0], X[1])
        np.abs(D, out=D)
        gaps[idx] = D.sum(axis=(1, 2))
        # the gaps are >= 0 (or NaN), so a zeroed row i0 leaves the others' max
        D[:, i0] = 0.0
        worst = float(D.max())
        if not math.isfinite(worst):
            break
        off_target = max(off_target, worst)
    return gaps, off_target


@dataclass(frozen=True)
class ComparisonReport:
    """Envelopes for all four audited dynamics on shared noise streams,
    plus the pairwise ordering checks and the two recursion-bound checks.

    ordering_gap maps "a<=b" to max_k(delta_hat_a - delta_hat_b); the
    ordering holds when the gap is <= 1e-12. recursion_gap holds the worst
    violation of the per-dynamic recursive envelopes (true-consensus:
    W_ii * previous + delta*alpha_k; true-gradient: sqrt(n)*L*alpha_k *
    previous + delta*alpha_k).
    """

    envelopes: dict = field(default_factory=dict)
    ordering_gap: dict = field(default_factory=dict)
    recursion_gap: dict = field(default_factory=dict)

    _TOL = 1e-12

    def ordering_holds(self, key: str) -> bool:
        return self.ordering_gap[key] <= self._TOL

    def recursion_holds(self, key: str) -> bool:
        return self.recursion_gap[key] <= self._TOL

    @property
    def all_orderings_hold(self) -> bool:
        return all(g <= self._TOL for g in self.ordering_gap.values())


_ORDERING_LEGS = (
    ("alg1", "dp-dgd"),
    ("alg1", "dgd-true-consensus"),
    ("alg1", "dgd-true-gradient"),
    ("dp-dgd", "dgd-true-consensus"),
    ("dp-dgd", "dgd-true-gradient"),
)


def compare_sensitivities(
    pair: AdjacentPair, W, sp: ScheduleParams, T: int, trials: int, seed: int
) -> ComparisonReport:
    """Audit all four dynamics on identical noise streams and compare.

    Each envelope equals audit_sensitivity(pair, alg, W, sp, T, trials,
    seed): every dynamic sees the same initial states and the same uniform
    draws, so differences in the envelopes are attributable to the dynamics
    alone. Those streams are drawn once per chunk of trials and shared by the
    four replays.
    """
    envelopes, Wm, alphas = _envelopes(pair, AUDIT_ALGORITHMS, W, sp, T, trials, seed)
    ordering_gap = {}
    for lo, hi in _ORDERING_LEGS:
        gap = envelopes[lo].delta_hat - envelopes[hi].delta_hat
        ordering_gap[f"{lo}<={hi}"] = float(np.max(gap))

    base_term = pair.delta * alphas
    w_ii = float(Wm[pair.i0, pair.i0])
    L = pair.base.smoothness
    n = pair.base.n

    def worst_recursion(dh: np.ndarray, factor: np.ndarray) -> float:
        prev = np.concatenate(([0.0], dh[:-1]))
        return float(np.max(dh - (factor * prev + base_term)))

    recursion_gap = {
        "dgd-true-consensus": worst_recursion(
            envelopes["dgd-true-consensus"].delta_hat, np.full(T, w_ii)
        ),
        "dgd-true-gradient": worst_recursion(
            envelopes["dgd-true-gradient"].delta_hat, math.sqrt(n) * L * alphas
        ),
    }
    return ComparisonReport(
        envelopes=envelopes, ordering_gap=ordering_gap, recursion_gap=recursion_gap
    )


@dataclass(frozen=True)
class GainSystem:
    """One step of the coupled scalar recursion s(k+1) <= A s(k) + b bounding
    (mean error, consensus error, step norm) in expectation."""

    A: np.ndarray  # 3x3, nonnegative, A[0, 2] = 0
    b: np.ndarray  # 3-vector, nonnegative

    def __post_init__(self):
        if self.A.shape != (3, 3) or self.b.shape != (3,):
            raise ValueError("gain system is a 3x3 matrix and a 3-vector")


def build_gain_system(
    mu: float,
    L: float,
    sigma: float,
    q1: float,
    alpha_next: float,
    alpha_k: float,
    nu_k: float,
    nu_next: float,
    n: int,
    p: int,
    w_minus_i_norm: float,
) -> GainSystem:
    """Gain matrix and offset at one iteration, entry for entry.

    alpha_next/nu_next are the k+1 values, alpha_k/nu_k the current ones;
    sigma is the mixing contraction factor and w_minus_i_norm is ||W - I||.
    """
    if not 0.0 <= sigma < 1.0:  # 1 - sigma^2 is the only denominator in sigma
        raise ValueError(f"sigma must be in [0, 1), got {sigma}")
    if mu <= 0 or L <= 0:
        raise ValueError(f"need mu > 0 and L > 0, got mu={mu}, L={L}")
    if not 0.0 < q1 < 1.0:
        raise ValueError(f"q1 must be in (0, 1), got {q1}")
    if min(alpha_next, alpha_k, nu_k, nu_next) < 0:
        raise ValueError("stepsizes and noise scales must be >= 0")
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if w_minus_i_norm < 0:
        raise ValueError(f"||W - I|| must be >= 0, got {w_minus_i_norm}")
    if alpha_next * mu > 1.0:
        raise ValueError(
            f"alpha_next={alpha_next} exceeds 1/mu; the (1,1) gain would go negative"
        )

    s2 = sigma**2
    om = 1.0 - s2
    a = alpha_next
    a2 = a * a
    A = np.array(
        [
            [1.0 - a * mu, L**2 * a / (n * mu), 0.0],
            [
                4.0 * n * (2.0 + s2) * L**2 * a2 / om,
                (2.0 + s2) / 3.0 + 4.0 * (2.0 + s2) * L**2 * a2 / om,
                (2.0 + s2) * (q1**2 + 2.0 * L**2 * a2) / om,
            ],
            [
                4.0 * n * (3.0 + s2) * L**2 * a2 / om,
                (3.0 + s2) * (w_minus_i_norm**2 + 4.0 * L**2 * a2) / om,
                (3.0 + s2) / 4.0 + 3.0 * (3.0 + s2) * L**2 * a2 / om,
            ],
        ]
    )
    shared = (
        6.0 * L * alpha_k
        + n * p * L * a
        + 2.0 * L**2 * alpha_k * a
        + 6.0 * L**2 * (7.0 + 2.0 * L * alpha_k) * a2 / om
    )
    b = np.array(
        [
            2.0 * p * (1.0 + 2.0 * L * a + L**2 * a / mu) * nu_next**2,
            2.0 * n * p * (9.0 + 6.0 * L * a + 18.0 * L**2 * a2 / om) * nu_next**2
            + 2.0 * n * p * (15.0 + 4.0 * L * a + shared) * nu_k**2,
            2.0 * n * p * (9.0 + 6.0 * L * a + 28.0 * L**2 * a2 / om) * nu_next**2
            + 4.0 * n * p * (19.0 + 5.0 * L * a + shared) * nu_k**2,
        ]
    )
    return GainSystem(A=A, b=b)


def atilde(sigma: float, q1: float, w_minus_i_norm: float) -> np.ndarray:
    """The 2x2 limiting gain block governing consensus error and step norm
    as the stepsize vanishes (lower-right of the gain matrix at alpha = 0)."""
    gs = build_gain_system(1.0, 1.0, sigma, q1, 0.0, 0.0, 0.0, 0.0, 1, 1, w_minus_i_norm)
    return gs.A[1:, 1:].copy()


def rho_less_than(M: np.ndarray, lambda_star: float) -> bool:
    """Spectral-radius test for small nonnegative matrices without an
    eigensolve: with every diagonal entry below lambda_star, rho(M) <
    lambda_star exactly when det(lambda_star * I - M) > 0.

    The equivalence is stated for irreducible 2x2 and 3x3 matrices;
    irreducibility is not checked (the zero matrix and other reducible
    inputs still give the right answer through the determinant's block
    factorization) but the caller keeps the burden of proof outside that
    family.
    """
    M = np.asarray(M, dtype=float)
    if M.shape not in ((2, 2), (3, 3)):
        raise ValueError(f"expected a 2x2 or 3x3 matrix, got shape {M.shape}")
    if lambda_star <= 0:
        raise ValueError(f"lambda_star must be > 0, got {lambda_star}")
    if np.any(M < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    if np.any(np.diag(M) >= lambda_star):
        raise ValueError("every diagonal entry must be < lambda_star")
    return bool(np.linalg.det(lambda_star * np.eye(M.shape[0]) - M) > 0.0)


def q1_bound(sigma: float, theta: float = 2.0, w_minus_i_norm: float = 2.0) -> float:
    """Largest stepsize decay rate q1 certified to keep the limiting gain
    block contractive: sqrt((1-sigma^2)^4 / (48(theta+1)(2+sigma^2)
    (3+sigma^2)||W-I||^2)), theta > 1."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta:g}")
    if not theta > 1.0:
        raise ValueError(f"theta must be > 1, got {theta:g}")
    om = 1.0 - sigma**2
    denom = 48.0 * (theta + 1.0) * (2.0 + sigma**2) * (3.0 + sigma**2) * w_minus_i_norm**2
    return math.sqrt(om**4 / denom)


def _require_finite(**reals) -> None:
    """Raise a ValueError that names every argument that is not a finite number."""
    bad = [f"{name}={value}" for name, value in reals.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"arguments must be finite, got {', '.join(bad)}")


def accuracy_bound(
    gamma: float,
    q1: float,
    q2: float,
    epsilon: float,
    delta: float,
    mu: float,
    L: float,
    n: int,
    p: int,
    c1: float,
    c2: float,
) -> float:
    """Limiting mean-error bound: a geometric-forgetting term in c1, a
    stepsize-bias term in c2, and two noise terms scaling as 1/epsilon^2."""
    _require_finite(gamma=gamma, q1=q1, q2=q2, epsilon=epsilon, delta=delta, mu=mu, L=L,
                    c1=c1, c2=c2)
    if not 0.0 < q1 < 1.0:
        raise ScheduleError(f"q1 must be in (0, 1), got {q1}")
    if not q1 < q2 < 1.0:
        raise ScheduleError(f"q2 must be in (q1, 1), got {q2}")
    if gamma <= 0 or epsilon <= 0 or mu <= 0 or L <= 0:
        raise ValueError("gamma, epsilon, mu, L must all be > 0")
    if min(c1, c2, delta) < 0:
        raise ValueError("c1, c2, delta must be >= 0")
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")

    try:
        noise = delta**2 * q2**2 / (epsilon**2 * (q2 - q1) ** 2)
    except (OverflowError, ZeroDivisionError):  # a square left the floats
        ratio = delta / epsilon * q2 / (q2 - q1)
        noise = ratio * ratio  # inf, not an error, when it overflows
    try:
        return (
            math.exp(-mu * gamma / (1.0 - q1)) * c1
            + gamma * c2 * L**2 / (n * mu * (1.0 - q1))
            + 2.0 * p * gamma**2 * noise / (1.0 - q2**2)
            + (4.0 * p * L + 2.0 * p * L**2 / mu) * gamma**3 * noise / (1.0 - q1 * q2**2)
        )
    except OverflowError:  # L**2 or a power of gamma left the floats; products give inf
        return math.inf


def _golden(f, lo: float, hi: float, tol: float = 1e-10, maxit: int = 200):
    """Golden-section minimization on [lo, hi]; returns (argmin, min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(maxit):
        if abs(b - a) <= tol * (abs(a) + abs(b) + 1e-300):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def tune(
    epsilon: float,
    delta: float,
    mu: float,
    L: float,
    n: int,
    p: int,
    c1: float,
    c2: float,
    restarts: int = 5,
    seed: int = 0,
) -> tuple[float, float, float, float]:
    """Locally minimize the accuracy bound over (gamma, q1, q2).

    Random feasible initializations, then cyclic one-dimensional
    golden-section descent per coordinate until a cycle improves the bound
    by less than 1e-6 relative (at most 100 cycles). Returns the best
    (gamma, q1, q2, bound) across restarts, never worse than any starting
    point: a local minimum only, as the objective is non-convex. Raises
    DivergenceError when no point searched has a finite bound.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    _require_finite(epsilon=epsilon, delta=delta, mu=mu, L=L, c1=c1, c2=c2)
    g_hi = 2.0 / (mu + L)
    g_lo = 1e-6
    if g_hi <= g_lo:
        raise ValueError(
            f"stepsize box [{g_lo}, {g_hi}] is empty; mu + L too large to tune"
        )
    q_lo, q_hi, q_gap = 1e-4, 0.9999, 1e-4

    def bound_at(g, a, b):
        return accuracy_bound(g, a, b, epsilon, delta, mu, L, n, p, c1, c2)

    best = None
    for r in range(restarts):
        rng = substream(seed, "tune", r)
        g = float(rng.uniform(g_lo, g_hi))
        a = float(rng.uniform(q_lo, q_hi - 2 * q_gap))
        b = float(rng.uniform(a + q_gap, q_hi))
        val = bound_at(g, a, b)
        for _ in range(100):
            prev = val
            cand, cval = _golden(lambda x: bound_at(x, a, b), g_lo, g_hi)
            if cval < val:
                g, val = cand, cval
            cand, cval = _golden(
                lambda x: bound_at(g, x, b), q_lo, min(q_hi, b - q_gap)
            )
            if cval < val:
                a, val = cand, cval
            cand, cval = _golden(lambda x: bound_at(g, a, x), a + q_gap, q_hi)
            if cval < val:
                b, val = cand, cval
            if not prev - val > 1e-6 * max(abs(prev), 1e-300):  # NaN: inf did not improve
                break
        if best is None or val < best[3]:
            best = (g, a, b, val)
    if not math.isfinite(best[3]):
        raise DivergenceError("tune: the accuracy bound is not finite at any point searched")
    return best
