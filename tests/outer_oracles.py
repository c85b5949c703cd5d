"""A brute-force outer-distribution table for small codes, the oracle of
the coset scan under `is_t_regular` and `coset_representatives`.

It measures the distance from every vector of the space to every
codeword, so it shares no code with the syndrome sweep it is compared
against.
"""

import numpy as np

from qdesign.linear import LinearCode, iter_codeword_blocks


def full_outer_table(C, chunk: int = 4096):
    """(distance-to-code, outer distribution row) for every vector in F_q^n,
    in lexicographic order (first coordinate most significant)."""
    n = C.n
    cws = np.concatenate([b for _, b in iter_codeword_blocks(C)])
    space = LinearCode(C.field, np.eye(n, dtype=np.int32))
    hist = np.zeros((C.field.q ** n, n + 1), dtype=np.int32)
    row0 = 0
    blocks = (b[a:a + chunk] for _, b in iter_codeword_blocks(space)
              for a in range(0, len(b), chunk))
    for block in blocks:
        m = block.shape[0]
        dmat = np.empty((m, len(cws)), dtype=np.int16)
        for j, c in enumerate(cws):
            dmat[:, j] = (block != c[None, :]).sum(axis=1)
        offsets = dmat.astype(np.int64) + (np.arange(m)[:, None] * (n + 1))
        part = np.bincount(offsets.ravel(), minlength=m * (n + 1))
        hist[row0:row0 + m] = part.reshape(m, n + 1)
        row0 += m
    return np.argmax(hist > 0, axis=1), hist
