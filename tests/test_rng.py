"""Stream derivation: every stream is the Philox keyed with the NEP-19 key
of [master_seed, *tags], whether built alone or re-keyed in a batch. numpy's
SeedSequence is the oracle; the package derives the keys itself."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpdopt
from dpdopt import rng
from dpdopt.engine import _trial_seeds, trial_seed
from dpdopt.rng import draw_rows, substream

WORD_EDGES = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5])
INTS = WORD_EDGES | st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1)
TAGS = INTS | st.sampled_from(["noise", "init", "trial", "problem"]) | st.text(max_size=12)
ROWS = st.tuples(INTS, st.lists(TAGS, max_size=7)).map(lambda row: (row[0], *row[1]))
# one machine-int column: values of one and of two 32-bit words
COLUMN = st.lists(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
                  max_size=20)


def _seed_sequence(row):
    """numpy's SeedSequence for the entropy (master_seed, *tags)."""
    return np.random.SeedSequence([int(row[0])] + [rng._tag_to_int(t) for t in row[1:]])


def _oracle(row):
    """The stream as numpy builds it from a SeedSequence."""
    return np.random.Generator(np.random.Philox(_seed_sequence(row)))


def _draw3(gen):
    return gen.integers(2**63, size=3).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(ROWS, min_size=1, max_size=12))
def test_streams_match_seed_sequence(rows):
    batched = draw_rows(rows, _draw3)
    for row, got in zip(rows, batched, strict=True):
        want = _draw3(_oracle(row))
        assert got == want, row
        assert _draw3(substream(row[0], *row[1:])) == want, row


@settings(max_examples=200, deadline=None)
@given(COLUMN, st.lists(TAGS, max_size=5), st.integers(0, 5), st.booleans())
def test_column_streams_match_seed_sequence(values, tags, where, signed):
    # the column takes the seed's place (where = 0) or a tag's
    entropy = [3, *tags]
    where = min(where, len(tags))
    dtype = np.int64 if signed else np.uint64
    column = np.array([v % 2**63 if signed else v for v in values], dtype=dtype)
    got = draw_rows([(*entropy[:where], column, *entropy[where + 1:])], _draw3)
    assert len(got) == len(values)
    for value, streams in zip(column.tolist(), got):
        single = (*entropy[:where], value, *entropy[where + 1:])
        assert streams == _draw3(_oracle(single)), single


def test_mixed_batch_matches_seed_sequence():
    # columns of at least rng._MIN_BATCH streams hash column-wise, in groups
    # of equal word count; shorter ones stream by stream
    seeds = np.array([5, 2**40, 0, 2**32 - 1, 2**32, 2**63 + 9, 17, 2**64 - 1, 1],
                     dtype=np.uint64)
    assert len(seeds) >= rng._MIN_BATCH
    rows = [
        (2**96 + 5,),
        (seeds, "init"),
        (7, "a", np.int64(3), 2**64, "b", 0, 2**32, np.int64(2**40)),
        (seeds, np.int64(4), "noise"),
        (np.arange(12), "trial", 2**64 - 1),
        (seeds[:3], "init"),
        (np.array([2**70, 1], dtype=object), "noise"),
        (2**64,),
    ]
    flat = [tuple(int(e[r]) if isinstance(e, np.ndarray) else e for e in row)
            for row in rows
            for r in range(next((len(e) for e in row if isinstance(e, np.ndarray)), 1))]
    assert len(flat) == 1 + 9 + 1 + 9 + 12 + 3 + 2 + 1
    got = draw_rows(rows, _draw3)
    assert got == [_draw3(_oracle(row)) for row in flat]
    out = draw_rows(rows, np.random.Generator.random, out=np.empty((len(flat), 2)))
    assert out.tolist() == [_oracle(row).random(2).tolist() for row in flat]


def test_empty_batch():
    assert draw_rows([], _draw3) == []
    assert draw_rows([(np.arange(0), "noise")], _draw3) == []
    out = np.empty((0, 3))
    assert draw_rows([], np.random.Generator.random, out=out) is out
    assert _trial_seeds(7, 0) == []


ENTROPIES = [
    (0,),
    (1, 2),
    (7, "noise"),
    (7, "init"),
    (2**63 - 1, "trial", 500),
    (2**64 - 1, np.int64(3), "noise"),
    (11, "adjacent", 0),
    (5, "tune", 2**40),
    (2**32 - 1,) + (2**64 - 1,) * 3,
    (0,) * 8,
]


@pytest.mark.parametrize(
    "draw",
    [lambda g: g.random(257), lambda g: g.standard_normal((3, 5)),
     lambda g: g.integers(2**63, size=9)],
    ids=["random", "standard_normal", "integers"],
)
def test_draw_rows_draws_as_substream(draw):
    got = draw_rows(ENTROPIES, draw)
    for entropy, values in zip(ENTROPIES, got, strict=True):
        want = draw(substream(entropy[0], *entropy[1:]))
        assert values.tolist() == want.tolist(), entropy


def test_rekeying_drops_a_buffered_half_word():
    # three 32-bit draws use two 64-bit words of the Philox output buffer and
    # leave half a word buffered; each re-key must drop both, so every stream
    # draws from its own first word
    def draw(gen):
        return gen.integers(2**32, size=3, dtype=np.uint32).tolist()

    gen = substream(7)
    draw(gen)
    state = gen.bit_generator.state
    assert (state["has_uint32"], state["buffer_pos"]) == (1, 2)
    got = draw_rows(ENTROPIES, draw)
    for entropy, values in zip(ENTROPIES, got, strict=True):
        assert values == draw(substream(entropy[0], *entropy[1:])), entropy


@pytest.mark.parametrize("method", ["random", "standard_normal"])
def test_draw_rows_fills_out_in_place(method):
    out = np.empty((len(ENTROPIES), 4, 3))
    filled = draw_rows(ENTROPIES, getattr(np.random.Generator, method), out=out)
    assert filled is out
    for entropy, row in zip(ENTROPIES, out, strict=True):
        want = getattr(substream(entropy[0], *entropy[1:]), method)((4, 3))
        assert row.tolist() == want.tolist(), entropy


def test_negative_entropy_is_rejected():
    with pytest.raises(ValueError):
        draw_rows([(3, -1)], lambda gen: gen.random())
    with pytest.raises(ValueError):
        substream(-3)
    for column in (np.array([4, -1]), np.arange(-1, 20)):
        with pytest.raises(ValueError):
            draw_rows([(column, "noise")], lambda gen: gen.random())


def test_malformed_rows_are_rejected():
    for row in [(np.arange(9), "x", np.arange(9)), (np.zeros((2, 9), dtype=np.int64), "x")]:
        with pytest.raises(ValueError):
            draw_rows([row], lambda gen: gen.random())
    with pytest.raises(TypeError):
        draw_rows([(np.arange(9), 1.5)], lambda gen: gen.random())


@pytest.mark.parametrize("seed", [0, 11, 2**63 - 1])
def test_batched_trial_seeds_match_trial_seed(seed):
    assert _trial_seeds(seed, 501) == [trial_seed(seed, t) for t in range(501)]


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 - 1])
def test_trial_seeds_are_the_bounded_draw(seed):
    # trial seeds read each stream's first raw word; numpy's bounded draw on
    # [0, 2**63) gives the same integers
    want = [int(substream(seed, "trial", t).integers(2**63)) for t in range(4096)]
    got = _trial_seeds(seed, 4096)
    assert got == want
    assert all(type(value) is int for value in got)
    assert [trial_seed(seed, t) for t in range(4096)] == want


@pytest.mark.parametrize("seed", [2**64, 2**96 + 5])
def test_trial_seeds_beyond_64_bits(seed):
    want = [int(_oracle((seed, "trial", t)).integers(2**63)) for t in range(40)]
    assert _trial_seeds(seed, 40) == want
    assert [trial_seed(seed, t) for t in range(40)] == want


def test_src_does_not_call_seed_sequence(monkeypatch):
    # values pinned from the SeedSequence-keyed derivation
    def forbidden(*args, **kwargs):
        raise AssertionError("SeedSequence called")

    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    assert substream(2**96 + 5, "noise", 2**64).random(2).tolist() == [
        0.17710979300806362, 0.4175392309836271]
    assert draw_rows([(3,), (2**40, "init")], lambda g: int(g.integers(2**63))) == [
        417755456507826275, 6394349629425901637]
    assert _trial_seeds(2**64, 3) == [
        8938910608033372879, 7014399406842295589, 5179936727213650709]
    wm = dpdopt.metropolis_weights(dpdopt.ring(3))
    pr = dpdopt.random_problem(3, 2, 1, (0.5, 1.5), seed=2)
    sp = dpdopt.ScheduleParams(gamma=0.01, beta=100.0, q1=0.5, q2=0.99, epsilon=10.0,
                               delta=1.0)
    trace = dpdopt.monte_carlo(pr, wm.W, sp, "alg1", 2, trials=3, seed=4)
    assert trace.residual[:, -1].tolist() == pytest.approx(
        [0.07611929795019665, 0.6465916178768161, 0.008030596893140684], rel=1e-12)
    view = dpdopt.collect_attacker_view(pr, wm.W, sp, T=2, trials=3, seed=5)
    assert view.z0[:, -1].tolist() == pytest.approx(
        [-0.887848616648404, -0.28891788594991313, -0.31632396286448305], rel=1e-12)


def test_src_names_seed_sequence_only_in_text():
    src = pathlib.Path(dpdopt.__file__).parent
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "SeedSequence")
        or (isinstance(node, ast.Attribute) and node.attr == "SeedSequence")
    ]
    assert uses == []
