"""Deterministic random-stream derivation.

Every stochastic component in the package draws from a named substream
derived from (master_seed, *tags) so that runs are reproducible and,
crucially, so that paired runs (base vs perturbed problem, algorithm A vs
algorithm B) can consume bit-identical noise by deriving the same tags.

Generator choice: numpy Philox (counter-based). The stream is fully
determined by its 128-bit key, independent of platform or of how many other
generators exist. The key is the NEP-19 key of the entropy
[master_seed, *tags]: what numpy's SeedSequence(entropy).generate_state(2,
uint64) returns. This module derives it itself, with one hash body that runs
on Python ints for a single stream and on uint64 arrays for a whole batch at
once; SeedSequence is the test oracle. `draw_rows` derives the keys of a
batch column-wise and draws every stream from one Philox, re-keyed for each,
instead of building a Philox and a Generator per stream.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["draw_rows", "substream"]

_MASK = 0xFFFFFFFF
# the NEP-19 hash constants, as numpy's bit_generator.pyx defines them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# below this many streams, hashing each on Python ints (~15 us a stream) beats
# one pass over uint64 arrays (~150 us whatever the count)
_MIN_BATCH = 8


@functools.lru_cache(maxsize=256)
def _hash_str_tag(tag: str) -> int:
    # purpose labels are few and reused on every trial, so hash each once
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    if isinstance(tag, str):
        return _hash_str_tag(tag)
    raise TypeError(f"stream tags must be int or str, got {type(tag).__name__}")


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int; 0 is one word."""
    if value < 0:
        raise ValueError(f"stream entropy must be non-negative, got {value}")
    words = [value & _MASK]
    value >>= 32
    while value:
        words.append(value & _MASK)
        value >>= 32
    return words


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix with the running constant h."""

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = (h * mult) & _MASK
        value = (value * h) & _MASK
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
    return value ^ (value >> 16)


def _hash(words) -> tuple:
    """The NEP-19 key (k0, k1) of the entropy words: mix_entropy into a pool
    of four words, then generate_state(4, uint32) read as two uint64.

    Each word is a Python int or a uint64 array with one value per stream,
    and the key has the kind of its words. Every product is masked to 32
    bits, so both kinds compute the same uint32 arithmetic.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    state = [out(value) for value in pool]
    return state[0] | (state[1] << 32), state[2] | (state[3] << 32)


def _row_words(entropy) -> list[int]:
    """The words of the entropy (master_seed, *tags), in order."""
    words = _words(int(entropy[0]))
    for tag in entropy[1:]:
        words += _words(_tag_to_int(tag))
    return words


def _keys(entropy) -> list[list[int]]:
    """The [k0, k1] Philox keys of the streams one draw_rows row names.

    An array entry is split into words column-wise, and its values of one
    word and of two words hash as two groups; the words of the scalar
    entries are split once and shared by both.
    """
    columns = [i for i, e in enumerate(entropy) if isinstance(e, np.ndarray)]
    if not columns:
        return [list(_hash(_row_words(entropy)))]
    if len(columns) > 1 or entropy[columns[0]].ndim != 1:
        raise ValueError("a stream row takes at most one array entry, a 1-D one")
    c = columns[0]
    column = entropy[c]
    if len(column) < _MIN_BATCH or column.dtype.kind not in "iu":
        # few streams, or not machine integers (ints beyond 64 bits, say):
        # one stream at a time, on Python ints
        return [list(_hash(_row_words((*entropy[:c], value, *entropy[c + 1:]))))
                for value in column.tolist()]
    if column.dtype.kind == "i" and (column < 0).any():
        raise ValueError("stream entropy must be non-negative")
    head = _row_words(entropy[:c]) if c else []
    tail = [word for tag in entropy[c + 1:] for word in _words(_tag_to_int(tag))]
    column = column.astype(np.uint64)
    lo, hi = column & _MASK, column >> 32
    keys = np.empty((len(column), 2), dtype=np.uint64)
    for rows in (np.flatnonzero(hi == 0), np.flatnonzero(hi)):
        if rows.size:
            middle = [lo[rows], hi[rows]] if hi[rows[0]] else [lo[rows]]
            keys[rows, 0], keys[rows, 1] = _hash(head + middle + tail)
    return keys.tolist()


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the stream named by (master_seed, *tags).

    Tags may be ints (trial indices, iteration counters) or strings
    (purpose labels like "noise" or "init"); strings are hashed to stable
    64-bit ints so the derivation does not depend on Python's per-process
    hash randomization.
    """
    key = np.array(_hash(_row_words((master_seed, *tags))), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_rows(entropies, draw, out=None):
    """Draw from the stream of each (master_seed, *tags) row in entropies
    exactly what substream(master_seed, *tags) would draw.

    One entry of a row may be a 1-D integer array: the row then names one
    stream per element, in order, with its other entries shared, and the
    keys of those streams are derived column-wise. Without out, return
    [draw(gen) for each stream]. With out, call draw(gen, out=out[r]) for
    stream r, and return out. One Philox is re-keyed per stream, so gen is
    only valid inside draw.
    """
    keys = [key for entropy in entropies for key in _keys(entropy)]
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # counter 0, empty output buffer; the setter reads ints faster than arrays
    fresh = dict(bitgen.state, state={"counter": [0] * 4, "key": [0, 0]}, buffer=[0] * 4)
    results = []
    for r, key in enumerate(keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        if out is None:
            results.append(draw(gen))
        else:
            draw(gen, out=out[r])
    return results if out is None else out
