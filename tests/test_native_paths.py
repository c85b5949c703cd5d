"""The scalar multiples, the listed check and the support keys of native
families against plain references.

- `designs._scalar_multiples` writes c * x for c = 2..q-1: over GF(2^m)
  it gathers only the power-of-two scalars from `GF.multiples` and XORs
  the rest, over odd fields it gathers no table and takes every part
  through the log tables; both equal the `GF.multiples` table, in any
  shape of x.  Over GF(3^8) the blocks
  of a two-orbit native family take memory on the order of their size,
  not of a (q-2) x q table.
- Listed rows with one entry changed in part c = 3, in the last part or
  in a power-of-two part are not listed: the family holds its rows and
  every check equals that of a twin counted block by block.
- `_distinct_rows` separates rows that share a support: proportional
  rows (equal once normalized) are not distinct, other rows are, with the
  uint64 support key (n <= 64) and the void key (n > 64).
- `distinct_supports` gives the rows, counts and order of a brute-force
  dedup keyed by the packed support bytes.

`tests/mutants.py` checks that these tests fail when the XOR reads the
wrong earlier row and when a tie between support keys is taken as
distinct.
"""

import tracemalloc

import numpy as np
import pytest

from qdesign import designs as D
from qdesign.designs import BlockFamily
from qdesign.fields import GF, field_make

from test_listed_orbits import block_twin
from test_projective import _all_checks

ODD = (3, 5, 7, 9, 25, 27)


def _native(q, n, w, R, seed):
    """A native family of R random weight-w orbits of length n over GF(q)."""
    F = field_make(q)
    rng = np.random.default_rng(seed)
    seen, reps = set(), []
    while len(reps) < R:
        v = np.zeros(n, dtype=np.int64)
        v[rng.choice(n, w, replace=False)] = rng.integers(1, q, w)
        norm = tuple(F.div_np(v, v[np.flatnonzero(v)[0]]).tolist())
        if norm not in seen:
            seen.add(norm)
            reps.append(v)
    return BlockFamily.from_orbits(F, n, w, np.array(reps))


def _record_multiples(monkeypatch):
    """The scalars of every `GF.multiples` call, one list per call."""
    gathered = []
    multiples = GF.multiples
    monkeypatch.setattr(GF, "multiples", lambda f, a: gathered.append(
        np.atleast_1d(a).tolist()) or multiples(f, a))
    return gathered


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_xor_built_multiples_equal_the_gather_table(monkeypatch, m):
    q = 2 ** m
    F = field_make(q)
    rng = np.random.default_rng(m)
    x = np.arange(q) if m <= 8 else np.concatenate([[0, 1, q - 1], rng.integers(0, q, 61)])
    out = np.empty((q - 1, len(x)), dtype=F.np_dtype)
    out[0] = x
    gathered = _record_multiples(monkeypatch)
    D._scalar_multiples(F, out)
    assert gathered == ([[1 << i for i in range(1, m)]] if m > 1 else [])
    if m <= 8:
        assert np.array_equal(out, F.multiples(np.arange(1, q)))
    else:
        # the full table has q^2 entries: every row against the log tables,
        # and a sample of rows against the multiples table
        assert np.array_equal(out, F.mul_np(np.arange(1, q)[:, None], x))
        cs = np.concatenate([[2, 3, q - 1], rng.integers(1, q, 125)])
        assert np.array_equal(out[cs - 1], F.multiples(cs)[:, x])
    # any shape of x
    x2 = rng.integers(0, q, (5, 7))
    out2 = np.empty((q - 1, 5, 7), dtype=F.np_dtype)
    out2[0] = x2
    D._scalar_multiples(F, out2)
    assert np.array_equal(out2, F.mul_np(np.arange(1, q)[:, None, None], x2))


@pytest.mark.parametrize("q", ODD)
def test_odd_fields_gather_every_scalar(monkeypatch, q):
    """Every scalar's part is one product through the log tables: no
    table of multiples is built."""
    F = field_make(q)
    rng = np.random.default_rng(q)
    out = np.empty((q - 1, q + 5), dtype=F.np_dtype)
    out[0] = np.concatenate([np.arange(q), rng.integers(0, q, 5)])
    gathered = _record_multiples(monkeypatch)
    D._scalar_multiples(F, out)
    assert gathered == []
    for c in range(1, q):
        assert np.array_equal(out[c - 1], F.mul_np(c, out[0]))
    assert np.array_equal(out[:, :q], F.multiples(np.arange(1, q)))


def test_odd_native_blocks_take_memory_of_their_size():
    """Over GF(3^8) the blocks of two orbits, 13,120 rows of 4 uint16
    entries (105 KB), are built part by part with no q-wide table."""
    F = field_make(3 ** 8)
    fam = BlockFamily.from_orbits(F, 4, 3, [[1, 2, 0, 3], [0, 1, 5, 7]])
    tracemalloc.start()
    try:
        blocks = fam.blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    # part c - 1 holds c times the representatives
    want = F.mul_np(np.arange(1, F.q)[:, None, None], fam.scalar_orbits)
    assert np.array_equal(blocks, want.reshape(2 * (F.q - 1), 4))


def _parts(q):
    """The parts changed: c = 3, the last part, a power-of-two part."""
    pow2 = [c for c in (2, 4, 8, 16) if c < q]
    return sorted({c for c in (3, q - 1, pow2[-1]) if 2 <= c < q})


@pytest.mark.parametrize("chunk", [1, D._ORBIT_CHUNK])
@pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 32])
def test_a_changed_entry_in_one_part_falls_back_to_raw_rows(monkeypatch, chunk, q):
    monkeypatch.setattr(D, "_ORBIT_CHUNK", chunk)
    n, w, R = 8, 4, 12
    fam = _native(q, n, w, R, seed=q)
    F = fam.field
    assert D._listed_orbits(F, w, np.array(fam.blocks)) is not None
    rng = np.random.default_rng(q)
    S = tuple(rng.permutation(n).tolist())
    for c in _parts(q):
        for dtype in (F.np_dtype, np.int64, np.float64):
            rows = np.array(fam.blocks, dtype=dtype)
            i = (c - 1) * R + int(rng.integers(R))
            j = int(rng.choice(np.flatnonzero(rows[i])))
            rows[i, j] = F.mul(int(rows[i, j]), F.generator)
            raw = BlockFamily(F, n, w, rows)
            assert raw.scalar_orbits is None and raw._blocks is not None
            assert np.array_equal(raw.blocks, rows)
            assert _all_checks(raw, S) == _all_checks(block_twin(F, n, w, rows), S)
    # the listed rows themselves, in any of these dtypes, are native
    for dtype in (np.int64, np.float64):
        assert BlockFamily(F, n, w, np.array(fam.blocks, dtype=dtype)).scalar_orbits is not None


@pytest.mark.parametrize("n, kind", [(33, "u"), (70, "V")])
@pytest.mark.parametrize("q", [3, 32])
def test_rows_sharing_a_support(n, kind, q):
    """x, and y equal to x but in one entry: 2 x is proportional to x and
    2 y is not, and both share the support of x."""
    F = field_make(q)
    rng = np.random.default_rng(n + q)
    rows = _native(q, n, n // 2, 40, seed=n).scalar_orbits
    assert D._support_keys(rows).dtype.kind == kind
    x = rows[7]
    y = x.copy()
    last = np.flatnonzero(x)[-1]
    y[last] = F.mul(int(x[last]), F.generator)
    for other, distinct in ((x, False), (y, True)):
        # in decreasing byte order, so the sorted shortcut does not apply
        pair = np.stack(sorted([x, other], key=bytes, reverse=True))
        assert D._distinct_rows(pair) is distinct
        scaled = F.mul_scalar_np(2, other).astype(F.np_dtype)
        mixed = np.concatenate([rows[rng.permutation(len(rows))], scaled[None]])
        assert D._distinct_rows(np.ascontiguousarray(D._normalized(F, mixed))) is distinct
    assert D._distinct_rows(np.ascontiguousarray(rows[::-1]))


def _brute_supports(rows, mult):
    groups = {}
    for row in rows:
        key = bytes(np.packbits(row != 0).tolist())
        if key in groups:
            groups[key][1] += mult
        else:
            groups[key] = [row, mult]
    order = sorted(groups)
    return np.array([groups[k][0] for k in order]), np.array([groups[k][1] for k in order])


@pytest.mark.parametrize("n", [10, 33, 64, 65, 70])
@pytest.mark.parametrize("q", [2, 3, 8])
def test_distinct_supports_match_brute_force(n, q):
    F = field_make(q)
    rng = np.random.default_rng(n * q)
    w = min(5, n)
    # 60 rows on 12 supports, so most supports repeat
    pool = [rng.choice(n, w, replace=False) for _ in range(12)]
    rows = np.zeros((60, n), dtype=np.int64)
    for r in rows:
        r[pool[int(rng.integers(len(pool)))]] = rng.integers(1, q, w)
    reps = np.unique(D._normalized(F, rows.astype(F.np_dtype)), axis=0)
    native = BlockFamily.from_orbits(F, n, w, reps[rng.permutation(len(reps))])
    for fam, mult in ((block_twin(F, n, w, rows), 1), (native, q - 1)):
        got_rows, got_counts = fam.distinct_supports
        want_rows, want_counts = _brute_supports(D._counting_rows(fam)[0], mult)
        assert np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_counts, want_counts)
        assert got_counts.sum() == len(fam)
