"""The count table against a plain Counter, across chunk boundaries.

`designs._count_table` builds each (row, t-subset) cell from per-place
prefix sums and counts a chunk of rows with one bincount.  The oracle
below walks every row and every t-subset of its support in Python and
keys a Counter by (lexicographic rank of S, pattern on S), in the three
modes of the kernel: supports only, the full value pattern, and values
over the value at S[0] (normalized).  `_CELL_CHUNK` is patched to 1 and
7 as well as left at its default, so a table is split over many chunks.
"""

from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qdesign.designs as D
from qdesign.fields import field_make

FIELDS = (2, 3, 4, 5, 7, 8, 9)
MODES = ("supports", "full", "normalized")
CELL_CAP = 1 << 18  # keeps the dense tables compared below small


def _oracle(rows, t, field, mode):
    n = rows.shape[1]
    q1 = field.q - 1
    rank = {S: i for i, S in enumerate(combinations(range(n), t))}
    cells = Counter()
    for row in rows.tolist():
        support = [i for i, v in enumerate(row) if v]
        for S in combinations(support, t):
            vals = [row[s] for s in S]
            if mode == "supports":
                pattern = 0
            elif mode == "full":
                pattern = sum((v - 1) * q1 ** (t - 1 - j) for j, v in enumerate(vals))
            else:
                pattern = sum((field.div(v, vals[0]) - 1) * q1 ** (t - 1 - j)
                              for j, v in enumerate(vals) if j)
            cells[rank[S], pattern] += 1
    return cells


@st.composite
def tables(draw):
    q = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 12))
    w = draw(st.integers(1, n))
    t = draw(st.integers(1, min(w, 5)))
    mode = draw(st.sampled_from(MODES))
    npat = 1 if mode == "supports" else (q - 1) ** (t - (mode == "normalized"))
    if comb(n, t) * npat > CELL_CAP:
        t = 1
        npat = 1 if mode == "supports" else (q - 1) ** (1 - (mode == "normalized"))
    B = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    field = field_make(q)
    rows = np.zeros((B, n), dtype=field.np_dtype)
    for row in rows:
        row[rng.choice(n, w, replace=False)] = rng.integers(1, q, w)
    # the classical check hands the kernel a reversed, negatively strided view
    if draw(st.booleans()):
        rows = rows[:, ::-1]
    return rows, w, t, field, mode, npat


@pytest.mark.parametrize("chunk", [1, 7, D._CELL_CHUNK])
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=tables())
def test_count_table_matches_counter(monkeypatch, chunk, case):
    rows, w, t, field, mode, npat = case
    monkeypatch.setattr(D, "_CELL_CHUNK", chunk)
    got = D._count_table(rows, w, t, None if mode == "supports" else field,
                         normalized=mode == "normalized")
    assert got.dtype == np.int64 and len(got) == comb(rows.shape[1], t) * npat
    want = np.zeros(len(got), dtype=np.int64)
    for (rank, pattern), count in _oracle(rows, t, field, mode).items():
        want[rank * npat + pattern] = count
    assert np.array_equal(got, want)

