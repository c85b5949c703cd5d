"""Seeded monomial equivalences: a coordinate permutation plus a nonzero
scale per coordinate.

Such a map sends a linear code to an equivalent code and a block family
to an isomorphic one.  Weight distributions, q-ary and classical design
indices, support multiplicities and fixed-support counts (under the
asserted transitivity) are all invariant, so the benchmark can vary its
inputs with the seed while checking seed-independent expected values.
Over GF(3) every nonzero scale is +-1, so self-duality is kept as well.
"""

from __future__ import annotations

import random

import numpy as np


class Monomial:
    """Column j of the image is scale[j] times column perm[j] of the input."""

    def __init__(self, field, perm, scale):
        self.perm = np.asarray(perm, dtype=np.int64)
        self.scale = np.asarray(scale, dtype=np.int64)
        q = field.q
        elems = np.arange(q)
        self._mul = np.asarray(field.mul_np(elems[:, None], elems[None, :]),
                               dtype=np.int64)

    @classmethod
    def from_seed(cls, field, n: int, seed: int) -> "Monomial":
        """Seed 0 is the identity; any other seed draws perm and scales."""
        if seed == 0:
            return cls(field, range(n), [1] * n)
        rng = random.Random(seed)
        perm = list(range(n))
        rng.shuffle(perm)
        return cls(field, perm, [rng.randrange(1, field.q) for _ in range(n)])

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """Image of an (N x n) array of field elements, same dtype.

        Works on the transpose, one contiguous coordinate at a time, so a
        million-row family needs no N x n index temporaries.
        """
        cols = np.ascontiguousarray(rows.T)
        table = self._mul.astype(rows.dtype)
        out = np.empty_like(cols)
        for j, (src, c) in enumerate(zip(self.perm, self.scale)):
            np.take(table[c], cols[src], out=out[j])
        return np.ascontiguousarray(out.T)
