"""The block enumerator against message-by-message scalar encoding, on
random small codes over GF(2, 3, 4, 5, 7, 8, 9), and on fixed slices of
larger codes for each shape of the row table: odd prime powers GF(25),
GF(27) and GF(243) with two or three suffix symbols, GF(512) (uint16)
with two, and single-symbol blocks (q^2 over the block size), whose row
table has rows of length 1.  Block sizes are set by patching
`linear._MAX_BLOCK`, the one block size every call reads.

Oracles: m * G computed with the scalar field operations for every
message m in lexicographic order (first symbol most significant), and
the weight counts of those words.  Random [start, stop) ranges and block
sizes exercise partial blocks and several leading message symbols.  Two
codes with at least 2^20 words, over GF(2) and GF(3), take the threaded
path of the direct weight distribution (the GF(3) ranges split a block),
checked against integer matrix products mod p.

Prefix batches: with batches of 1, 3 and the default number of blocks,
the block boundaries, the words and the pair histogram of
`_direct_weight_counts` (odd and even block lengths) match the scalar
oracle over random ranges.  `_block_weights` equals a plain count of
nonzeros on column-major blocks and row-major arrays, n = 255 and 256
included.

Weight mode: over random ranges and block sizes, the weight blocks equal
`_block_weights` of the value blocks (firsts, lengths, dtypes, values),
on random codes and on k = n, k = 1, k = 0, q = 257 (single-symbol
blocks, a weight table with rows of length 1) and n = 300 (uint16
weights), and on ranges split over one and two threads.

Weight classes: the unsorted enumeration equals the scan and Python's
`sorted()`, in the element dtype.  Canonical form: the numpy row
reduction equals the scalar elimination of `rref_oracle` on random
matrices (rank-deficient, zero and wide ones, uint16 fields included);
on random generators, with rank-deficient, zero, permuted and scaled
rows, the constructor's generator is in RREF and spans the same words as
the rows handed in (their span built with the scalar field operations),
the direct weight distribution counts that span and equals the
MacWilliams one, the enumerated weight classes are sorted and equal the
scan, and the permuted and scaled rows give the same code.  Row and
weight tables: one of each per code and suffix length, kept in one cache
keyed by (suffix length, mode), shared by every call on the code
(counted on Pless-24), built before the thread pool starts, and built
once when many threads ask at once.
"""

import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qdesign.linear as L
from qdesign.designs import family_from_code
from qdesign.errors import RankError
from qdesign.fields import field_make
from qdesign.linear import (
    LinearCode,
    code_from_generator,
    codewords_of_weight,
    iter_codeword_blocks,
    same_code,
    weight_distribution,
)
from qdesign.zoo import pless_symmetry_code

from rref_oracle import rref
from test_kernels import FIELDS, MAX_LENGTH, codes


def _encode(C, messages):
    """m * G by scalar field arithmetic for each message index, its first
    symbol most significant."""
    F, G, k = C.field, C.gen.tolist(), C.k
    words = []
    for m in messages:
        word = [0] * C.n
        for r, row in enumerate(G):
            d = m // F.q ** (k - 1 - r) % F.q
            if d:
                word = [F.add(a, F.mul(d, g)) for a, g in zip(word, row)]
        words.append(word)
    return words


def _brute_counts(C, words):
    hist = Counter(sum(1 for v in w if v) for w in words)
    return [hist.get(i, 0) for i in range(C.n + 1)]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(codes(), st.data())
def test_blocks_equal_scalar_encoding(C, data):
    total = C.size
    start = data.draw(st.integers(0, total))
    stop = data.draw(st.integers(start, total))
    max_block = data.draw(st.integers(1, total))
    words = _encode(C, range(total))
    got, firsts = [], []
    with mock.patch.object(L, "_MAX_BLOCK", max_block):
        stream = list(iter_codeword_blocks(C, start, stop))
    for first, block in stream:
        assert block.dtype == C.field.np_dtype
        assert block.shape[1] == C.n
        firsts.append((first, len(block)))
        got.extend(block.tolist())
    assert got == words[start:stop]
    # blocks are consecutive: each starts where the previous one stopped
    assert all(a + m == b for (a, m), (b, _) in zip(firsts, firsts[1:]))
    if firsts:
        assert firsts[0][0] == start

    want = _brute_counts(C, words)
    for threads in (1, 2):
        assert weight_distribution(C, "direct", threads=threads).tolist() == want
    w = data.draw(st.integers(1, C.n))
    cls = codewords_of_weight(C, w, method="enumerate")
    assert cls.dtype == C.field.np_dtype
    assert cls.tolist() == sorted(x for x in words if sum(1 for v in x if v) == w)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(codes(), st.sampled_from([1, 3, L._PREFIX_BATCH]), st.data())
def test_prefix_batches_keep_the_block_stream(C, batch, data):
    # batches of 1, 3 and the default number of blocks, small blocks, and
    # ranges that cut blocks and batches: blocks end at multiples of q^k2,
    # hold the scalar encoding, and the pair histogram counts every range
    total, q = C.size, C.field.q
    max_block = data.draw(st.integers(1, q * q))
    start = data.draw(st.integers(0, total))
    stop = data.draw(st.integers(start, total))
    words = _encode(C, range(total))
    with mock.patch.object(L, "_PREFIX_BATCH", batch), \
            mock.patch.object(L, "_MAX_BLOCK", max_block):
        bs = q ** L._suffix_symbols(q, C.k)
        bounds = [(max(start, b * bs), min(stop, (b + 1) * bs))
                  for b in range(start // bs, (stop - 1) // bs + 1)]
        stream = list(iter_codeword_blocks(C, start, stop))
        assert [(first, first + len(block)) for first, block in stream] == bounds
        for first, block in stream:
            assert block.tolist() == words[first:first + len(block)]
        counts = L._direct_weight_counts(C, start, stop)
    assert counts.tolist() == _brute_counts(C, words[start:stop])


@pytest.mark.parametrize("n", [1, 2, 5, 17, 26, 255, 256])
def test_block_weights_in_both_layouts(n):
    # random entries with many zeros, plus an all-zero and an all-nonzero
    # word, so weight n itself (255 in uint8, 256 in uint16) is met
    rng = np.random.default_rng(n)
    m = 301
    cols = (rng.integers(0, 4, size=(n, m)) * rng.integers(0, 2, size=(n, m))).astype(np.uint8)
    cols[:, 0] = 0
    cols[:, 1] = 3
    dtype = np.min_scalar_type(n)
    for block in (cols.T, cols.T[1:m - 2], cols.T[7:8], np.ascontiguousarray(cols.T)):
        want = (block != 0).sum(axis=1).astype(dtype)
        got = L._block_weights(block)
        assert got.dtype == dtype and got.flags.owndata
        assert got.tolist() == want.tolist()
    assert L._block_weights(cols.T)[1] == n


@pytest.mark.parametrize("q", [512, 2187])  # uint16 elements; 2187 adds digit by digit
def test_large_field_blocks_equal_scalar_encoding(monkeypatch, q):
    rng = np.random.default_rng(q)
    C = code_from_generator(field_make(q), rng.integers(0, q, size=(2, 3)))
    start, stop = q * q - 3 * q // 2, q * q
    monkeypatch.setattr(L, "_MAX_BLOCK", q)
    got = np.concatenate([b for _, b in iter_codeword_blocks(C, start, stop)])
    assert got.dtype == np.uint16
    assert got.tolist() == _encode(C, range(start, stop))


def _random_code(q, n, k, seed):
    rng = np.random.default_rng(seed)
    C = code_from_generator(field_make(q), rng.integers(0, q, size=(k, n)), strict=False)
    assert C.k == k
    return C


def _check_window(C, start, stop, max_block, k2):
    """Blocks of at most max_block words over [start, stop) equal the
    scalar encoding, in the element dtype and column-major, and start q^k2
    words apart."""
    q = C.field.q
    got, firsts = [], []
    with mock.patch.object(L, "_MAX_BLOCK", max_block):
        stream = list(iter_codeword_blocks(C, start, stop))
    for first, block in stream:
        assert block.dtype == C.field.np_dtype
        assert block.strides[0] == block.itemsize
        firsts.append(first)
        got.append(block)
    assert firsts[0] == start
    assert all(b % q ** k2 == 0 for b in firsts[1:])
    assert np.concatenate(got).tolist() == _encode(C, range(start, stop))


@pytest.mark.parametrize("q, n, k, k2", [(25, 6, 4, 3), (27, 5, 4, 3), (243, 5, 3, 2)])
def test_odd_prime_power_row_table_slices(q, n, k, k2):
    # the default block size leaves k2 >= 2 message symbols to the row table
    C = _random_code(q, n, k, q)
    bs = q ** k2
    for start, stop in [(0, 2 * q + 5), (bs - q - 3, bs + 2 * q + 1),
                        (3 * bs + 7, 3 * bs + 7), (q ** k - 3 * q - 1, q ** k)]:
        _check_window(C, start, stop, 1 << 16, k2)


def test_uint16_row_table_with_two_suffix_symbols():
    q = 512
    C = _random_code(q, 4, 3, 1)
    bs = q * q  # max_block = q*q leaves k2 = 2, rows of q uint16 elements
    for start, stop in [(0, 3 * q), (bs - 2 * q + 1, bs + q + 2), (5 * bs - q, 5 * bs + q)]:
        _check_window(C, start, stop, bs, 2)


@pytest.mark.parametrize("q, k, max_block", [(512, 2, 1 << 16), (729, 2, 1 << 16),
                                             (27, 3, 27), (25, 3, 100), (4, 3, 15)])
def test_single_suffix_symbol_blocks(q, k, max_block):
    # q^2 > max_block: each block is the n x q array of prefix + c G[k-1]
    C = _random_code(q, 5, k, q + k)
    total = q ** k
    for start, stop in [(0, q + 3), (total // 2 - q // 2, total // 2 + q + 1),
                        (total - 2 * q - 1, total)]:
        _check_window(C, start, stop, max_block, 1)


def _check_weight_blocks(C, start, stop, max_block):
    """The weight mode over [start, stop), in blocks of at most max_block
    words, equals `_block_weights` of the value blocks: the same firsts,
    lengths, dtypes and weights."""
    with mock.patch.object(L, "_MAX_BLOCK", max_block):
        values = list(iter_codeword_blocks(C, start, stop))
        weights = list(iter_codeword_blocks(C, start, stop, weights=True))
    assert [(first, len(w)) for first, w in weights] == [(first, len(b)) for first, b in values]
    for (_, block), (_, w) in zip(values, weights):
        want = L._block_weights(block)
        assert w.ndim == 1 and w.dtype == want.dtype
        assert w.tolist() == want.tolist()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(codes(), st.data())
def test_weight_blocks_equal_value_block_weights(C, data):
    total = C.size
    start = data.draw(st.integers(0, total))
    stop = data.draw(st.integers(start, total))
    max_block = data.draw(st.integers(1, total))
    _check_weight_blocks(C, start, stop, max_block)


def _code_of_rank(q, n, k, seed):
    """A random [n, k]_q code: [I | A] with its columns shuffled."""
    rng = np.random.default_rng(seed)
    gen = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, q, size=(k, n - k))])
    C = LinearCode(field_make(q), gen[:, rng.permutation(n)])
    assert (C.n, C.k) == (n, k)
    return C


@pytest.mark.parametrize("q, n, k", [(7, 4, 4), (4, 6, 6), (5, 6, 1), (2, 9, 1), (3, 5, 0),
                                     (257, 4, 2), (3, 300, 5), (16, 20, 3)])
def test_weight_blocks_at_the_edges(q, n, k):
    # k = n (no free coordinates), k = 1 and k = 0, q = 257 (q^2 over the
    # block size: single-symbol blocks, table rows of length 1), n = 300
    # (uint16)
    C = _code_of_rank(q, n, k, q + n + k)
    rng = np.random.default_rng(n)
    total = C.size
    for max_block in sorted({1, q, q * q, 1 << 16}):
        _check_weight_blocks(C, 0, total, max_block)
        for _ in range(4):
            start = int(rng.integers(0, total + 1))
            _check_weight_blocks(C, start, int(rng.integers(start, total + 1)), max_block)
    want = np.bincount(np.concatenate([L._block_weights(b) for _, b in iter_codeword_blocks(C)]),
                       minlength=n + 1)
    assert weight_distribution(C, "direct").tolist() == want.tolist()


@pytest.mark.parametrize("threads", [1, 2])
def test_weight_blocks_over_thread_ranges(threads):
    # a fresh code whose ranges cut blocks, read by one or two workers at
    # once, both asking for the weight table first
    C = _code_of_rank(3, 16, 13, 7)
    rng = np.random.default_rng(threads)
    total = C.size
    cuts = [0, *sorted(int(c) for c in rng.integers(1, total, size=threads - 1)), total]

    def weights(a, b):
        return np.concatenate([w for _, w in iter_codeword_blocks(C, a, b, weights=True)])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(weights, cuts, cuts[1:]))
    want = np.concatenate([L._block_weights(b) for _, b in iter_codeword_blocks(C)])
    got = np.concatenate(parts)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _matmul_weights(C):
    """Weights of m * G for every message over a prime field, from integer
    matrix products mod p (no block enumeration)."""
    q, k = C.field.q, C.k
    place = q ** np.arange(k - 1, -1, -1)
    hist = np.zeros(C.n + 1, dtype=np.int64)
    for lo in range(0, q ** k, 1 << 16):
        msgs = np.arange(lo, min(lo + (1 << 16), q ** k))
        words = (msgs[:, None] // place % q) @ C.gen % q
        hist += np.bincount(np.count_nonzero(words, axis=1), minlength=C.n + 1)
    return hist.tolist()


@pytest.mark.parametrize("q, n, k", [(2, 24, 20), (3, 16, 13)])
def test_threaded_weight_distribution_matches_matmul_count(q, n, k):
    rng = np.random.default_rng(q)
    C = code_from_generator(field_make(q), rng.integers(0, q, size=(k, n)), strict=False)
    assert C.size >= 1 << 20
    want = _matmul_weights(C)
    assert weight_distribution(C, "direct", threads=1).tolist() == want
    assert weight_distribution(C, "direct", threads=2).tolist() == want


def test_weights_past_255_are_counted_exactly():
    F = field_make(3)
    C = code_from_generator(F, [[1] * 300, [0] * 150 + [2] * 150])
    want = [0] * 301
    for w in _encode(C, range(C.size)):
        want[sum(1 for v in w if v)] += 1
    assert weight_distribution(C, "direct").tolist() == want
    assert len(codewords_of_weight(C, 300, method="enumerate")) == want[300]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(codes(), st.data())
def test_rref_enumeration_needs_no_sort(C, data):
    # message order is lexicographic word order for an RREF generator, so
    # the filtered stream is returned as it comes
    w = data.draw(st.integers(1, C.n))
    words = [x for x in _encode(C, range(C.size)) if sum(1 for v in x if v) == w]
    enum = codewords_of_weight(C, w, method="enumerate")
    assert enum.tolist() == sorted(words)
    assert np.array_equal(enum, codewords_of_weight(C, w, method="scan"))


def _is_rref(gen):
    """Every row's first nonzero entry is a 1, right of the previous row's,
    and the only nonzero entry of its column."""
    pivots = []
    for row in gen:
        nonzero = [j for j, v in enumerate(row) if v]
        if not nonzero or row[nonzero[0]] != 1 or pivots and nonzero[0] <= pivots[-1]:
            return False
        pivots.append(nonzero[0])
    return all(sum(1 for row in gen if row[p]) == 1 for p in pivots)


def _span(F, rows):
    """Every F-linear combination of rows, by scalar field arithmetic."""
    words = {(0,) * len(rows[0])}
    for row in rows:
        multiples = [[F.mul(c, v) for v in row] for c in range(1, F.q)]
        words |= {tuple(F.add(a, b) for a, b in zip(word, m))
                  for word in words for m in multiples}
    return words


@st.composite
def generators(draw):
    """(field, rows, other): up to three random rows over a small field,
    then up to two combinations of them (zero rows included), so the rank
    can fall short; other is rows permuted and each scaled by a nonzero
    element."""
    F = field_make(draw(st.sampled_from(FIELDS)))
    q, n = F.q, draw(st.integers(1, MAX_LENGTH[F.q]))
    element = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        combo = [0] * n
        for row in rows:
            c = draw(element)
            combo = [F.add(a, F.mul(c, v)) for a, v in zip(combo, row)]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    scales = draw(st.lists(st.integers(1, q - 1), min_size=len(rows), max_size=len(rows)))
    other = [[F.mul(c, v) for v in row] for c, row in zip(scales, draw(st.permutations(rows)))]
    return F, rows, other


@st.composite
def matrices(draw):
    """(field, rows): up to 7 rows of length up to 10, some of them zero,
    repeated or sparse, over small fields and uint16 ones."""
    F = field_make(draw(st.sampled_from(FIELDS + (25, 27, 243, 512, 2187))))
    n = draw(st.integers(1, 10))
    element = st.integers(0, F.q - 1)
    sparse = st.one_of(element, st.just(0))
    rows = draw(st.lists(st.lists(draw(st.sampled_from([element, sparse])),
                                  min_size=n, max_size=n), min_size=0, max_size=7))
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return F, rows


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
def test_rref_equals_scalar_elimination(case):
    F, rows = case
    n = len(rows[0]) if rows else 3
    red, pivots = L._rref(F, np.array(rows, dtype=np.int64).reshape(len(rows), n))
    want, want_pivots = rref(F, rows)
    assert red.dtype == np.int32 and red.shape == (len(want), n)
    assert red.tolist() == want and pivots == want_pivots


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generators())
def test_constructor_holds_every_code_in_rref(case):
    F, rows, other = case
    C = LinearCode(F, rows)
    span = _span(F, rows)
    assert C.gen.dtype == np.int32 and not C.gen.flags.writeable
    assert _is_rref(C.gen.tolist()) and C.n == len(rows[0])
    assert C.size == len(span)
    if C.k:
        assert np.array_equal(C.gen, code_from_generator(F, rows, strict=False).gen)
    else:
        with pytest.raises(RankError):
            code_from_generator(F, rows, strict=False)
    direct = weight_distribution(C, "direct")
    assert direct.sum() == F.q ** C.k
    assert direct.tolist() == _brute_counts(C, span)
    assert np.array_equal(direct, weight_distribution(C, "macwilliams"))
    for w in range(1, C.n + 1):
        enum = codewords_of_weight(C, w, method="enumerate")
        assert enum.tolist() == sorted(x for x in map(list, span) if sum(map(bool, x)) == w)
        assert np.array_equal(enum, codewords_of_weight(C, w, method="scan"))
    D = LinearCode(F, other)
    assert same_code(C, D) and np.array_equal(C.gen, D.gen)


def _count_builds(monkeypatch, record, delay=0.0):
    """Wrap both table builders so each build calls record(name, k2)."""
    for name in ("_build_row_table", "_build_weight_table"):
        def counted(C, k2, name=name, real=getattr(L, name)):
            record(name, k2)
            time.sleep(delay)
            return real(C, k2)
        monkeypatch.setattr(L, name, counted)


def test_one_row_table_per_code(monkeypatch):
    builds = []
    _count_builds(monkeypatch, lambda name, k2: builds.append(name))
    C = pless_symmetry_code(24)
    counts = weight_distribution(C, "direct")
    assert weight_distribution(C, "direct").tolist() == counts.tolist()
    weights = [w for w in range(1, C.n + 1) if counts[w]]
    assert len(weights) == 6
    for w in weights:
        assert len(codewords_of_weight(C, w, method="enumerate")) == counts[w]
    assert sorted(builds) == ["_build_row_table", "_build_weight_table"]


def test_threads_share_one_table_built_before_the_pool(monkeypatch):
    builders = []
    _count_builds(monkeypatch, lambda name, k2: builders.append((name, threading.current_thread())))
    rng = np.random.default_rng(3)
    C = code_from_generator(field_make(3), rng.integers(0, 3, size=(13, 16)), strict=False)
    assert C.size >= 1 << 20
    assert weight_distribution(C, "direct", threads=2).tolist() == _matmul_weights(C)
    assert builders == [("_build_weight_table", threading.main_thread())]


def test_concurrent_first_calls_build_one_table(monkeypatch):
    # more threads than cores, switching as often as the interpreter
    # allows, all asking a fresh code for its first table at once, half of
    # them for the weight table and half for the value table; the slowed
    # builds leave every thread time to find its table missing
    builds = []
    _count_builds(monkeypatch, lambda name, k2: builds.append((name, k2)), delay=0.02)
    C = _random_code(7, 6, 4, 5)
    want = _brute_counts(C, _encode(C, range(C.size)))
    workers = 8
    start = threading.Barrier(workers)

    def count(i):
        start.wait(timeout=30)
        if i % 2:
            return L._direct_weight_counts(C, 0, C.size)
        weights = [L._block_weights(b) for _, b in iter_codeword_blocks(C)]
        return np.bincount(np.concatenate(weights), minlength=C.n + 1)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(count, i) for i in range(workers)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(r.tolist() == want for r in results)
    assert sorted(builds) == [("_build_row_table", 4), ("_build_weight_table", 4)]


def test_row_tables_are_kept_per_suffix_length(monkeypatch):
    # one code object enumerated at several block sizes, in both orders:
    # each k2 must get its own table, and each mode its own
    C = _random_code(5, 6, 4, 11)
    words = _encode(C, range(C.size))
    for max_block in (5, 25, 1 << 16, 125, 5):
        monkeypatch.setattr(L, "_MAX_BLOCK", max_block)
        got = np.concatenate([b for _, b in iter_codeword_blocks(C)])
        assert got.tolist() == words
    assert sorted(C._row_tables) == [(1, False), (2, False), (3, False), (4, False)]
    for max_block in (5, 25, 1 << 16, 125, 5):
        monkeypatch.setattr(L, "_MAX_BLOCK", max_block)
        got = np.concatenate([w for _, w in iter_codeword_blocks(C, weights=True)])
        assert got.tolist() == [sum(1 for v in x if v) for x in words]
    assert sorted(C._row_tables) == [(k2, weights) for k2 in (1, 2, 3, 4)
                                     for weights in (False, True)]
    for mults, table in C._row_tables.values():
        assert not mults.flags.writeable
        assert not table.flags.writeable


def test_weight_class_dtypes():
    C = pless_symmetry_code(12)
    default = codewords_of_weight(C, 6)
    assert default.dtype == C.field.np_dtype and default.flags.c_contiguous
    for method in ("scan", "enumerate"):
        rows = codewords_of_weight(C, 6, method=method)
        assert rows.dtype == C.field.np_dtype and rows.flags.c_contiguous
        assert np.array_equal(rows, default)
    assert codewords_of_weight(C, 0).dtype == C.field.np_dtype
    fam = family_from_code(C, 6)
    assert fam.blocks.dtype == C.field.np_dtype
    # native orbit order: c * rep for c = 1..q-1 (outer), the lead-one reps sorted
    reps = default[default[np.arange(len(default)), (default != 0).argmax(axis=1)] == 1]
    want = np.concatenate([C.field.mul_scalar_np(c, reps) for c in range(1, C.field.q)])
    assert np.array_equal(fam.scalar_orbits, reps)
    assert np.array_equal(fam.blocks, want)
