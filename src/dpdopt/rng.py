"""Deterministic random-stream derivation.

Every stochastic component in the package draws from a named substream
derived from (master_seed, *tags) so that runs are reproducible and,
crucially, so that paired runs (base vs perturbed problem, algorithm A vs
algorithm B) can consume bit-identical noise by deriving the same tags.

Generator choice: numpy Philox (counter-based). The stream is fully
determined by its 128-bit key, independent of platform or of how many other
generators exist. The key is the one numpy's SeedSequence (NEP 19) derives
from the entropy [master_seed, *tags]. `draw_rows` draws many streams from
one Philox, re-keyed for each, instead of building a Philox and a Generator
per stream.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["draw_rows", "substream"]


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


def _entropy(master_seed, tags) -> list[int]:
    return [int(master_seed)] + [_tag_to_int(t) for t in tags]


def _key(master_seed, tags) -> np.ndarray:
    """The (2,) uint64 Philox key of the stream (master_seed, *tags)."""
    seq = np.random.SeedSequence(_entropy(master_seed, tags))
    return seq.generate_state(2, np.uint64)


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the stream named by (master_seed, *tags).

    Tags may be ints (trial indices, iteration counters) or strings
    (purpose labels like "noise" or "init"); strings are hashed to stable
    64-bit ints so the derivation does not depend on Python's per-process
    hash randomization.
    """
    return np.random.Generator(np.random.Philox(key=_key(master_seed, tags)))


def draw_rows(entropies, draw, out=None):
    """Draw from the stream of each (master_seed, *tags) tuple in entropies
    exactly what substream(master_seed, *tags) would draw.

    Without out, return [draw(gen) for each stream]. With out, call
    draw(gen, out=out[r]) for row r of out, one row per stream, and return
    out. One Philox is re-keyed per stream, so gen is only valid inside draw.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0, empty output buffer
    results = []
    for r, entropy in enumerate(entropies):
        fresh["state"]["key"] = _key(entropy[0], entropy[1:])
        bitgen.state = fresh
        if out is None:
            results.append(draw(gen))
        else:
            draw(gen, out=out[r])
    return results if out is None else out
