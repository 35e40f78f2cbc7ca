"""Stream derivation: every stream is the Philox that numpy's SeedSequence
keys from [master_seed, *tags], whether built alone or re-keyed in a batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdopt import rng
from dpdopt.engine import _trial_seeds, trial_seed
from dpdopt.rng import draw_rows, substream

WORD_EDGES = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])
INTS = WORD_EDGES | st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1)
TAGS = INTS | st.sampled_from(["noise", "init", "trial", "problem"]) | st.text(max_size=12)
ROWS = st.tuples(INTS, st.lists(TAGS, max_size=7)).map(lambda row: (row[0], *row[1]))


def _oracle(row):
    """The stream as numpy builds it from a SeedSequence."""
    seq = np.random.SeedSequence(rng._entropy(row[0], row[1:]))
    return np.random.Generator(np.random.Philox(seq))


@settings(max_examples=200, deadline=None)
@given(st.lists(ROWS, min_size=1, max_size=12))
def test_streams_match_seed_sequence(rows):
    batched = draw_rows(rows, lambda gen: gen.integers(2**63, size=3).tolist())
    for row, got in zip(rows, batched, strict=True):
        want = _oracle(row).integers(2**63, size=3).tolist()
        assert got == want, row
        assert substream(row[0], *row[1:]).integers(2**63, size=3).tolist() == want, row


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


@pytest.mark.parametrize("seed", [0, 11, 2**63 - 1])
def test_batched_trial_seeds_match_trial_seed(seed):
    assert _trial_seeds(seed, 501) == [trial_seed(seed, t) for t in range(501)]
