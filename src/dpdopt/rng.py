"""Deterministic random-stream derivation.

Every stochastic component in the package draws from a named substream
derived from (master_seed, *tags) so that runs are reproducible and,
crucially, so that paired runs (base vs perturbed problem, algorithm A vs
algorithm B) can consume bit-identical noise by deriving the same tags.

Generator choice: numpy Philox (counter-based). The stream is fully
determined by the SeedSequence entropy, independent of platform or of how
many other generators exist.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["substream"]


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


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the stream named by (master_seed, *tags).

    Tags may be ints (trial indices, iteration counters) or strings
    (purpose labels like "noise" or "init"); strings are hashed to stable
    64-bit ints so the derivation does not depend on Python's per-process
    hash randomization.
    """
    entropy = [int(master_seed)] + [_tag_to_int(t) for t in tags]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
