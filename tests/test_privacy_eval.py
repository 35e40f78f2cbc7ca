"""Attacker-view collection and the kNN mutual-information leakage score."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma

from dpdopt import (
    ScheduleParams,
    collect_attacker_view,
    knn_mutual_information,
    metropolis_weights,
    mnmi_report,
    random_problem,
    ring,
    stepsize,
    trial_seed,
)
from dpdopt.engine import _schedule_arrays, _trajectory
from dpdopt import engine, privacy_eval
from dpdopt.privacy_eval import (
    _digamma_table,
    _knn_radius,
    _marginal_counts,
    _window,
    _window_counts,
)
from dpdopt.rng import substream


@pytest.fixture(scope="module")
def triangle():
    wm = metropolis_weights(ring(3))
    pr = random_problem(3, 2, 1, (0.5, 1.5), seed=2)
    sp = ScheduleParams(gamma=0.01, beta=100.0, q1=0.5, q2=0.99, epsilon=10.0, delta=1.0)
    return pr, wm, sp


@pytest.fixture(scope="module")
def dataset(triangle):
    pr, wm, sp = triangle
    return collect_attacker_view(pr, wm.W, sp, T=8, trials=300, seed=5)


def test_attacker_view_matches_engine(triangle):
    pr, wm, sp = triangle
    T, trials, seed = 10, 3, 77
    ds = collect_attacker_view(pr, wm.W, sp, T, trials, seed)
    alphas = np.asarray(stepsize(sp, np.arange(1, T + 2)))
    for t in range(trials):
        steps = list(_trajectory(pr, wm.W, "alg1", *_schedule_arrays(sp, T + 1), sp.beta,
                                 [trial_seed(seed, t)]))
        for k in range(T):
            Z, Znext = steps[k + 1][3][0], steps[k + 2][3][0]
            y0 = steps[k + 1][1][0, 0, 0]
            zbar0 = (wm.W @ Z)[0, 0]
            assert ds.V[t, k] == pr.gradients(Z)[0, 0]
            assert ds.z0[t, k] == Z[0, 0]
            assert ds.y0[t, k] == y0
            assert ds.estimate_verbatim[t, k] == (zbar0 - Z[0, 0]) / alphas[k] - y0
            assert ds.estimate_reconstruction[t, k] == (zbar0 - Znext[0, 0]) / alphas[k] - y0


@pytest.mark.parametrize("chunk", [1, 7])
def test_attacker_view_chunks_are_bitwise_one_batch(triangle, chunk, monkeypatch):
    # the view steps the simulator's _chunk_size chunks one after another; each
    # sample lands in its trial's row, bit for bit as in one batch
    pr, wm, sp = triangle
    whole = collect_attacker_view(pr, wm.W, sp, 10, 20, 3)
    monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
    chunked = collect_attacker_view(pr, wm.W, sp, 10, 20, 3)
    for name in ("V", "z0", "y0", "estimate_verbatim", "estimate_reconstruction"):
        assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes()


def test_attacker_view_validation(triangle):
    pr, wm, sp = triangle
    big = random_problem(4, 2, 1, (0.5, 1.5), seed=0)
    with pytest.raises(ValueError):
        collect_attacker_view(big, np.eye(4) * 0 + 0.25, sp, 5, 2, 0)
    vec = random_problem(3, 2, 2, (0.5, 1.5), seed=0)
    with pytest.raises(ValueError):
        collect_attacker_view(vec, wm.W, sp, 5, 2, 0)
    with pytest.raises(ValueError):
        collect_attacker_view(pr, wm.W, sp, 0, 2, 0)
    # the trial-count and weight-shape faults give the simulator's messages
    with pytest.raises(ValueError, match="^need at least one trial, got 0$"):
        collect_attacker_view(pr, wm.W, sp, 5, 0, 0)
    with pytest.raises(ValueError, match=r"^weight matrix shape \(4, 4\) does not match n=3$"):
        collect_attacker_view(pr, np.eye(4), sp, 5, 2, 0)


def test_reconstruction_recovers_gradient_when_noiseless(triangle):
    pr, wm, _ = triangle
    sp0 = ScheduleParams(gamma=0.01, beta=100.0, q1=0.5, q2=0.99, epsilon=10.0, delta=0.0)
    ds = collect_attacker_view(pr, wm.W, sp0, T=10, trials=60, seed=3)
    # without noise the next message is the exact state update, so backing
    # out the gradient is limited only by the alpha_k division's rounding
    assert np.max(np.abs(ds.estimate_reconstruction - ds.V)) < 1e-9
    assert np.max(np.abs(ds.estimate_verbatim - ds.V)) > 1e-3


def test_knn_mi_validation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100)
    with pytest.raises(ValueError):
        knn_mutual_information(x[:40], x[:40])
    with pytest.raises(ValueError):
        knn_mutual_information(x, x[:80])
    with pytest.raises(ValueError):
        knn_mutual_information(x, x, k_neighbors=0)
    with pytest.raises(ValueError):
        knn_mutual_information(x, x, k_neighbors=100)
    with pytest.raises(ValueError):
        knn_mutual_information(x.reshape(4, 5, 5), x.reshape(4, 5, 5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y"])
def test_knn_mi_rejects_non_finite(bad, side):
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(100), rng.standard_normal(100)
    (x if side == "x" else y)[17] = bad
    with pytest.raises(ValueError, match="finite"):
        knn_mutual_information(x, y)


def test_knn_mi_gaussian_calibration():
    rho, n = 0.6, 1500
    rng = np.random.default_rng(42)
    x = rng.standard_normal(n)
    y = rho * x + np.sqrt(1 - rho**2) * rng.standard_normal(n)
    got = knn_mutual_information(x, y)
    want = -0.5 * np.log(1 - rho**2)
    assert abs(got - want) < 0.15 * want
    ind = knn_mutual_information(x, rng.standard_normal(n))
    assert abs(ind) < 0.03


def test_knn_mi_deterministic():
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal(200), rng.standard_normal(200)
    assert knn_mutual_information(x, y) == knn_mutual_information(x, y)


def _tree_counts(a, r):
    return cKDTree(a).query_ball_point(a, r, p=np.inf, return_length=True)


@pytest.mark.parametrize("case", ["integer-grid", "near-1e3", "repeated", "zero-radii"])
def test_marginal_counts_equal_kdtree(case):
    rng = np.random.default_rng(11)
    if case == "integer-grid":
        # many |x_j - x_i| equal r exactly
        a = rng.integers(0, 30, 400).astype(float)
        r = rng.integers(0, 6, 400).astype(float)
    elif case == "near-1e3":
        # the 1e-15 shrink of a gap is below one ulp here
        a = 1e3 + rng.standard_normal(400) * 1e-11
        r = np.maximum(np.abs(a - np.roll(a, 1)) - 1e-15, 0.0)
    else:
        a = np.repeat(rng.standard_normal(40), 10)
        r = np.abs(rng.standard_normal(400)) * 0.5
        r[::4] = 0.0
        if case == "zero-radii":
            r[:] = 0.0
    assert np.array_equal(_marginal_counts(a[:, None], r), _tree_counts(a[:, None], r))


def _radius_case(case, rng):
    if case == "integer-grid":
        # many max-norm distances tie exactly
        return rng.integers(0, 10, (400, 2)).astype(float)
    if case == "repeated":
        return np.repeat(rng.standard_normal((40, 2)), 10, axis=0)
    if case == "near-1e3":
        # the 1e-15 shrink of a radius is below one ulp here
        return 1e3 + rng.standard_normal((400, 2)) * [1e-9, 1e-11]
    if case == "constant-column":
        return np.column_stack([rng.standard_normal(400), np.full(400, 2.5)])
    if case == "correlated":
        x = rng.standard_normal(2000)
        return np.column_stack([x, x + rng.standard_normal(2000)])
    return rng.standard_normal((50, 2))


@pytest.mark.parametrize(
    "case, k",
    [
        ("integer-grid", 3),
        ("repeated", 3),
        ("repeated", 12),
        ("near-1e3", 3),
        ("constant-column", 3),
        ("n50", 1),
        ("n50", 49),
        ("correlated", 3),
    ],
)
def test_knn_radius_equals_kdtree(case, k, monkeypatch):
    points = _radius_case(case, np.random.default_rng(13))
    points = points[np.argsort(points[:, 0])]
    fallback = []
    tree = privacy_eval.cKDTree

    class Recorder(tree):
        def query(self, x, *args, **kwargs):
            fallback.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(privacy_eval, "cKDTree", Recorder)
    got = _knn_radius(points[:, 0], points[:, 1], k)
    want = tree(points).query(points, k=k + 1, p=np.inf)[0][:, k]
    assert np.array_equal(got, want)
    if case == "correlated":
        # the windows leave rows open, and the kd-tree settles them
        assert sum(fallback) > 0


def test_dense_rows_skip_the_wider_windows(monkeypatch):
    widths, fallback = [], []
    window, tree = privacy_eval._window, privacy_eval.cKDTree

    def spy(v, w, rows=slice(None)):
        widths.append((w, len(v[rows])))
        return window(v, w, rows)

    class Recorder(tree):
        def query(self, x, *args, **kwargs):
            fallback.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(privacy_eval, "_window", spy)
    monkeypatch.setattr(privacy_eval, "cKDTree", Recorder)
    # with s and t spread alike the w = k windows settle fewer than one row
    # in 32, and the rest go to the kd-tree without a w = 4k pass
    points = _radius_case("correlated", np.random.default_rng(13))
    points = points[np.argsort(points[:, 0])]
    got = _knn_radius(points[:, 0], points[:, 1], 3)
    assert np.array_equal(got, tree(points).query(points, k=4, p=np.inf)[0][:, 3])
    assert widths == [(3, 2000), (3, 2000)] and fallback == [1998]
    # rows left open by the w = k windows, a few or most, get the wider ones
    for case, k, still_open in (("near-1e3", 3, 55), ("integer-grid", 1, 339)):
        widths.clear()
        points = _radius_case(case, np.random.default_rng(13))
        points = points[np.argsort(points[:, 0])]
        _knn_radius(points[:, 0], points[:, 1], k)
        assert widths == [(k, 400), (k, 400), (4 * k, still_open), (4 * k, still_open)]


def _count_case(case, rng):
    """Sorted values and radii for the window counts."""
    if case == "co-sorted":
        # V against V plus its own jitter, the denominator's other coordinate
        v = np.sort(rng.standard_normal(400))
        v = v + substream(0, "mi-jitter").uniform(-1e-10, 1e-10, 400)
        return v, np.abs(rng.standard_normal(400)) * 0.01
    if case == "spill-one-side":
        # gaps that grow by 5 % a row: a run of 4 gaps' width holds 4 rows
        # below a row and 3 above it, so it spills past a w = 3 window below only
        gaps = 1.05 ** np.arange(200)
        r = 4.0 * gaps
        r[::5] *= 0.1
        return np.cumsum(gaps), r
    if case == "spill-both-sides":
        v = np.sort(rng.standard_normal(400))
        r = np.full(400, 1e-3)
        r[100:300:7] = 0.5
        return v, r
    if case == "radii-16-and-up":
        # r - 1e-15 rounds back to r, and r equals the gap to many rows
        v = np.sort(rng.integers(0, 2000, 400)).astype(float)
        r = rng.integers(17, 40, 400).astype(float)
        assert np.array_equal(np.maximum(r - 1e-15, 0.0), r)
        return v, r
    if case == "repeated":
        v = np.repeat(np.sort(rng.standard_normal(160)), [1, 2, 4, 3] * 40)[:400]
        r = np.abs(rng.standard_normal(400)) * 0.01
        r[::3] = 0.0
        return v, r
    # zero radii: only a row's own copies pass
    return np.repeat(np.sort(rng.standard_normal(100)), [1, 2, 3, 6] * 25), np.zeros(300)


@pytest.mark.parametrize(
    "case",
    ["co-sorted", "spill-one-side", "spill-both-sides", "radii-16-and-up", "repeated", "zero"],
)
@pytest.mark.parametrize("w", [1, 3])
def test_window_counts_equal_kdtree(case, w, monkeypatch):
    v, r = _count_case(case, np.random.default_rng(17))
    spilled = []
    sorted_counts = privacy_eval._sorted_counts

    def spy(s, a, r):
        spilled.append(len(a))
        return sorted_counts(s, a, r)

    monkeypatch.setattr(privacy_eval, "_sorted_counts", spy)
    got = _window_counts(v, _window(v, w), r)
    assert np.array_equal(got, _tree_counts(v[:, None], r))
    # some rows were counted inside their window and some spilled past it
    assert 0 < sum(spilled) < len(v)


def _mi_case(case, rng):
    if case == "co-sorted":
        v = rng.standard_normal(500)
        return v, v
    if case == "unsorted":
        x = rng.standard_normal(500)
        return x, x + 0.5 * rng.standard_normal(500)
    if case == "radii-16-and-up":
        # every radius is above 180, where r - 1e-15 rounds back to r
        x = rng.integers(0, 40000, 500).astype(float)
        return x, x + rng.integers(-2000, 2000, 500)
    # repeated values: many radii shrink to 0 after the jitter
    x = np.repeat(rng.standard_normal(50), 10)
    return x, np.repeat(rng.standard_normal(50), 10)


@pytest.mark.parametrize("case", ["co-sorted", "unsorted", "radii-16-and-up", "repeated"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_window_counted_mi_equals_kdtree(case, k, monkeypatch):
    x, y = _mi_case(case, np.random.default_rng(23))
    spilled, windowed = [], []
    window_counts, sorted_counts = privacy_eval._window_counts, privacy_eval._sorted_counts

    def count_windows(v, dist, r):
        before = len(spilled)
        counts = window_counts(v, dist, r)
        windowed.append(sum(spilled[before:]))  # the rows that spilled past their window
        return counts

    monkeypatch.setattr(privacy_eval, "_window_counts", count_windows)
    monkeypatch.setattr(privacy_eval, "_sorted_counts",
                        lambda s, a, r: spilled.append(len(a)) or sorted_counts(s, a, r))
    assert knn_mutual_information(x, y, k) == _kdtree_mi(x, y, k)
    # V with V counts both coordinates in the windows; an unsorted one is counted whole
    assert len(windowed) == (2 if case == "co-sorted" else 1)
    if case != "co-sorted":
        # some rows were counted inside their window and some spilled past it
        assert 0 < windowed[0] < len(x)


def test_digamma_table_is_digamma_of_the_counts():
    table = _digamma_table(300)
    counts = np.arange(1, 301)
    assert np.array_equal(table[counts], digamma(counts))
    assert not table.flags.writeable
    assert _digamma_table(300) is table


def _kdtree_counts(xs, ys, k=3):
    """The jittered samples and their kd-tree marginal counts, in input order."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
    rng = substream(0, "mi-jitter")
    xs = xs + rng.uniform(-1e-10, 1e-10, xs.shape)
    ys = ys + rng.uniform(-1e-10, 1e-10, ys.shape)
    joint = np.hstack([xs, ys])
    radius = cKDTree(joint).query(joint, k=k + 1, p=np.inf)[0][:, k]
    radius = np.maximum(radius - 1e-15, 0.0)
    return xs, ys, _tree_counts(xs, radius), _tree_counts(ys, radius)


def _kdtree_mi(xs, ys, k=3):
    xs, _, nx, ny = _kdtree_counts(xs, ys, k)
    return float(digamma(k) + digamma(len(xs)) - np.mean(digamma(nx) + digamma(ny)))


@pytest.mark.parametrize("case", ["collapsed", "isolated-rows"])
def test_unsorted_counts_of_a_collapsed_coordinate_equal_kdtree(case, monkeypatch):
    # V has collapsed and the estimate is wide, so the points are sorted on the
    # estimate and V is the unsorted coordinate. A row whose radius reaches
    # fl(max - min) of V counts every row without a search: all rows when V
    # collapsed below the jitter, only the four isolated rows otherwise
    rng = np.random.default_rng(29)
    est = rng.standard_normal(2000)
    if case == "collapsed":
        v = 1e-12 * rng.standard_normal(2000)
    else:
        v = rng.standard_normal(2000)
        est[:4] = 1e6 * np.arange(1, 5)
    xs, ys, _, want = _kdtree_counts(est, v)
    s = np.sort(xs[:, 0])
    searched, indexed = [], []
    sorted_counts = privacy_eval._sorted_counts

    def spy(sorted_values, a, r):
        if not np.array_equal(sorted_values, s):  # not a spill past a window of s
            searched.append(len(a))
        return sorted_counts(sorted_values, a, r)

    class Table:  # psi reads table[nx], then table[ny]
        def __getitem__(self, counts):
            indexed.append(counts)
            return _digamma_table(2000)[counts]

    monkeypatch.setattr(privacy_eval, "_sorted_counts", spy)
    monkeypatch.setattr(privacy_eval, "_digamma_table", lambda n: Table())
    assert knn_mutual_information(est, v) == _kdtree_mi(est, v)
    assert np.array_equal(indexed[1], want[np.argsort(xs[:, 0])])
    assert searched == ([] if case == "collapsed" else [2000 - 4])


def test_ksg_counts_match_kdtree_on_leakage_data(triangle):
    pr, wm, _ = triangle
    sp = ScheduleParams(gamma=0.01, beta=100.0, q1=0.5, q2=0.99, epsilon=1.0, delta=1.0)
    ds = collect_attacker_view(pr, wm.W, sp, T=3, trials=2000, seed=9)
    v, est = ds.V[:, 2], ds.estimate_reconstruction[:, 2]
    jitter = substream(0, "mi-jitter").uniform(-1e-10, 1e-10, (2, 2000))
    xs, ys = (v + jitter[0])[:, None], (est + jitter[1])[:, None]
    joint = np.hstack([xs, ys])
    r = np.maximum(cKDTree(joint).query(joint, k=4, p=np.inf)[0][:, 3] - 1e-15, 0.0)
    for a in (xs, ys):
        # a plain searchsorted window misses boundary points here
        s = np.sort(a[:, 0])
        plain = np.searchsorted(s, a[:, 0] + r, "right") - np.searchsorted(s, a[:, 0] - r)
        assert np.any(plain != _tree_counts(a, r))
        assert np.array_equal(_marginal_counts(a, r), _tree_counts(a, r))
    assert knn_mutual_information(v, est) == _kdtree_mi(v, est)
    assert knn_mutual_information(v, v) == _kdtree_mi(v, v)
    triple = ds.triple()[:, 2]
    assert knn_mutual_information(v, triple) == _kdtree_mi(v, triple)


@pytest.mark.parametrize("epsilon", [10.0, 0.1])
def test_knn_mi_equals_kdtree_on_leakage_data(triangle, epsilon):
    pr, wm, _ = triangle
    sp = ScheduleParams(gamma=0.01, beta=100.0, q1=0.5, q2=0.99, epsilon=epsilon, delta=1.0)
    ds = collect_attacker_view(pr, wm.W, sp, T=8, trials=2000, seed=9)
    triple = ds.triple()
    for idx in range(ds.K):
        v = ds.V[:, idx]
        for other in (v, ds.estimate_reconstruction[:, idx], triple[:, idx]):
            for k in (1, 3, 5):
                assert knn_mutual_information(v, other, k) == _kdtree_mi(v, other, k)


def test_mnmi_is_one_for_perfect_estimate(dataset):
    perfect = dataclasses.replace(dataset, estimate_reconstruction=dataset.V.copy())
    # numerator and denominator are the same estimator on the same samples
    assert mnmi_report(perfect).value == 1.0


def test_mnmi_report_fields(dataset):
    rep = mnmi_report(dataset)
    assert rep.ratios.shape == (dataset.K,)
    assert np.nanmin(rep.ratios) >= 0.0 and np.nanmax(rep.ratios) <= 1.0
    assert rep.value == rep.ratios[rep.argmax_k - 1]
    assert rep.skipped == ()
    # clamping only ever pulls raw values toward [0, 1]
    fin = np.isfinite(rep.raw_ratios)
    assert np.all(rep.ratios[fin] == np.clip(rep.raw_ratios[fin], 0.0, 1.0))


def test_mnmi_clamps_negative_raw(dataset):
    rng = np.random.default_rng(4242)
    noise = rng.laplace(0.0, 1.0, dataset.estimate_reconstruction.shape)
    ind = dataclasses.replace(dataset, estimate_reconstruction=noise)
    rep = mnmi_report(ind)
    assert np.any(rep.raw_ratios < 0.0)
    assert np.all(rep.ratios[rep.raw_ratios < 0.0] == 0.0)
    assert rep.value < 0.05


def test_mnmi_skips_degenerate_iterations(dataset):
    V = dataset.V.copy()
    V[:, 0] = 7.0
    broken = dataclasses.replace(dataset, V=V)
    with pytest.warns(UserWarning, match="skipped 1"):
        rep = mnmi_report(broken)
    assert rep.skipped == (1,)
    assert np.isnan(rep.ratios[0]) and np.isnan(rep.raw_ratios[0])
    allflat = dataclasses.replace(dataset, V=np.zeros_like(dataset.V))
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            mnmi_report(allflat)


def test_estimate_and_triple_accessors(dataset):
    assert dataset.estimate("verbatim") is dataset.estimate_verbatim
    assert dataset.estimate() is dataset.estimate_reconstruction
    with pytest.raises(ValueError):
        dataset.estimate("bogus")
    tri = dataset.triple()
    assert tri.shape == (dataset.trials, dataset.K, 3)
    assert np.array_equal(tri[..., 0], dataset.z0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        joint = mnmi_report(dataset, joint=True)
    assert 0.0 <= joint.value <= 1.0


def test_dataset_validation(dataset):
    with pytest.raises(ValueError):
        dataclasses.replace(dataset, V=dataset.V[:, :2])
    bad = dataset.V.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        dataclasses.replace(dataset, V=bad)
