"""Seedable, splittable random streams for spin sampling.

Every estimator derives its streams from a (master seed, stream index)
pair via numpy's SeedSequence, so serial and parallel runs of the same
RunSpec produce identical results.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Spin outcome codes used by all tight loops.
NISHT, GANZ, HALB, SHTEL = 0, 1, 2, 3
OUTCOME_CODES = (NISHT, GANZ, HALB, SHTEL)
OUTCOME_LETTERS = ("N", "G", "H", "S")


def make_generator(seed: int, *stream: int) -> np.random.Generator:
    """Generator for a given master seed and stream-index path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))


class ScriptedSource:
    """Deterministic outcome source backed by a fixed code sequence.

    Mimics the Generator.integers(0, 4, ...) interface used by the
    simulators, which makes forced-outcome tests and replay trivial.
    """

    def __init__(self, codes: Sequence[int]):
        self._codes = np.array(codes, dtype=np.int64)  # a copy, whether codes is a list or an array
        if ((self._codes < 0) | (self._codes > 3)).any():
            raise ValueError("scripted source only yields spin codes")
        self._pos = 0

    def integers(self, low: int, high: int, size=None):
        if (low, high) != (0, 4):
            raise ValueError("scripted source only yields spin codes")
        lo = self._pos
        if lo + (1 if size is None else size) > len(self._codes):
            raise IndexError("scripted outcome sequence exhausted")
        if size is None:
            self._pos += 1
            return int(self._codes[lo])
        self._pos += size
        return self._codes[lo:self._pos].copy()

    @property
    def remaining(self) -> int:
        return len(self._codes) - self._pos
