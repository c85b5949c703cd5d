"""Linear codes over small finite fields.

Construction from a generator matrix, duals, puncturing/shortening,
codeword enumeration (blocked, partitionable, optionally threaded),
weight distributions by direct count or MacWilliams transform, covering
radius by syndrome sweep, and the six-parameter profile (d, dual
distance, weight counts, packing/covering radius, divisor, and the
largest weight whose supports repeat exactly q-1 times).

Codewords are rows of element indices.  `iter_codeword_blocks` yields
them in blocks of dtype `field.np_dtype` (uint8 up to q = 256), each the
(m, n) transpose of a C-contiguous (n, m) array, so a coordinate is one
contiguous row of the (n, m) array.  Every field and every block size
take the same path: a block is one gather of contiguous rows from a
table of the trailing message symbols' words, so odd characteristic pays
no per-element gather, and the leading symbols' words (the prefixes)
are built for a batch of blocks at a time, in numpy.  That row table is
built once per code (and suffix length) and kept read-only on the
`LinearCode`, so every call on the code and every thread range of
`weight_distribution` shares it.  Weights come from the pivot identity:
with the generator in RREF, coordinate p_i of every word (p_i the pivot
column of row i) is message symbol i, so a word's weight is its message
weight plus its weight on the n - k free coordinates.  The weight mode
of the enumerator gathers a block's weights from a 0/1 table of those
free coordinates plus one row of message weights, and sums n - k + 1
rows, not n; the direct weight distribution histograms the weights two
at a time, as one uint16 per pair of uint8 weights.
Enumeration visits messages in lexicographic order (first message
symbol most significant), so streams are deterministic and any
[start, stop) sub-range can be handed to a different worker.  Every
`LinearCode` holds its generator in reduced row echelon form (RREF): the
constructor checks and row-reduces the rows it is given, and that is the
only place the form is decided.  So k is always the rank, equal codes
have equal generators, and message order is lexicographic codeword
order, so `codewords_of_weight` takes a weight class straight from the
enumeration with no sort; only the scan sorts, by a big-endian byte
key.  Either way the rows are in `field.np_dtype`.  With projective=True
it returns one word per scalar orbit, the words whose first nonzero
entry is 1, which `family_from_code` takes as its orbit representatives:
the enumeration walks only the message ranges [q^j, 2 q^j), whose first
nonzero symbol is 1 and is, in RREF, the word's leading entry (every
range below one block is a slice of the first block, built once), and
the scan sweeps only the (q-1)^(w-1) patterns with value 1 at the first
place of the support.  Every codeword stream checks q^k against the
`codewords` entry of `errors.BUDGETS` (env QDESIGN_BUDGET) in
`iter_codeword_blocks`; the MacWilliams side of `weight_distribution`
checks q^(n-k) against it before it builds the dual.

One syndrome sweep, `_syndrome_sweep`, yields the syndromes of all
(q-1)^w nonzero value patterns (or of the (q-1)^(w-1) with value 1 at
the first place) on a chunk of w-subsets at a time.  It serves the
weight-class scan of `codewords_of_weight` and the one coset scan,
`_coset_sweep` (seen table, `syndromes` budget, early stop), under
`covering_radius` and the leaders of `coset_representatives`.
One reader and one writer, `_read_matrix` and `_write_matrix`, handle the
generator-matrix and block-family text files.
"""

from __future__ import annotations

import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from itertools import chain, combinations, islice

import numpy as np

from .errors import ParameterError, ParseError, RankError, check_budget
from .fields import GF, field_make

_SWEEP_CHUNK = 1 << 16           # syndrome entries of one syndrome-sweep chunk
_MAX_BLOCK = 1 << 16             # most words per enumeration block
_PREFIX_BATCH = 64               # most enumeration blocks whose prefixes are built at once
_PREFIX_BATCH_BYTES = 1 << 16    # most bytes of the table rows of one prefix batch


class LinearCode:
    """An [n, k] code over `field`, held as its generator matrix in reduced
    row echelon form (RREF), the one canonical form of every code.

    The constructor takes any 2-d array of element indices (integers, or
    integral floats, in [0, q)), row-reduces it, and keeps the result as
    a private read-only int32 array `gen`: k is the rank of the rows
    handed in, a (0, n) array gives the zero code, two codes are equal
    exactly when their generators are equal, and a later write to the
    caller's array cannot change the code or leave its row tables stale.
    The enumerator's row tables are built on first use, one per suffix
    length k2 and mode (codeword values or weights), and kept read-only in
    `_row_tables`, keyed by (k2, weights), for every later call on the
    code and every thread range of it.
    """

    def __init__(self, field: GF, gen, label: str | None = None):
        rows = _checked_entries(field, gen, "generator")
        if rows.ndim != 2:
            raise ParameterError(f"generator must be a 2-d array, got shape {rows.shape}")
        self.field = field
        self.gen, _ = _rref(field, rows)
        self.gen.flags.writeable = False
        self.k, self.n = self.gen.shape
        self.label = label
        self._row_tables: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}
        self._row_tables_lock = threading.Lock()

    @property
    def size(self) -> int:
        return self.field.q ** self.k

    def params(self) -> tuple[int, int]:
        return self.n, self.k

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"LinearCode[{self.n},{self.k}]_{self.field.q}{tag}"


def _checked_entries(field: GF, values, what: str) -> np.ndarray:
    """values as an array, once every entry is checked to be an element
    index: an integer dtype, or integral floats, in [0, q)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ParameterError(f"{what} entries are not integers (dtype {arr.dtype}); "
                             f"they must be integers in [0, {field.q})")
    if arr.dtype.kind == "f" and not (np.isfinite(arr) & (arr == np.floor(arr))).all():
        raise ParameterError(f"{what} entries are not integers")
    if arr.size and not (arr.min() >= 0 and arr.max() < field.q):
        bad = arr[(arr < 0) | (arr >= field.q)].flat[0]
        raise ParameterError(f"{what} entries outside the field: {bad} is outside [0, {field.q})")
    return arr


def _rref(field: GF, rows) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 2-d array of element indices; returns
    (its nonzero rows as a fresh int32 array, their pivot columns).

    Gauss-Jordan on whole rows in numpy.  Each column is read once as a
    list to find a nonzero entry at or below the next pivot row; a pivot
    row is scaled by the inverse of its entry (`mul_scalar_np`), and every
    other row with a nonzero entry in its column is cleared at once, one
    `mul_np` and one `add_np` over the columns from the pivot on (the pivot
    row is zero left of it).  A column that is already reduced costs no
    numpy call past its read, so tiny reduced inputs stay cheap.
    """
    M = np.array(rows, dtype=np.int32)
    k, n = M.shape
    minus_one = field.neg(1)
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == k:
            break
        col = M[:, c].tolist()
        i = next((i for i in range(r, k) if col[i]), None)
        if i is None:
            continue
        if i != r:
            M[[r, i]] = M[[i, r]]
            col[r], col[i] = col[i], col[r]
        if col[r] != 1:
            M[r, c:] = field.mul_scalar_np(field.inv(col[r]), M[r, c:])
        others = [j for j, v in enumerate(col) if v and j != r]
        if others:
            factors = field.mul_scalar_np(minus_one, [col[j] for j in others])
            M[others, c:] = field.add_np(M[others, c:],
                                         field.mul_np(factors[:, None], M[r, c:]))
        pivots.append(c)
    return M[:len(pivots)], pivots


def code_from_generator(field: GF, rows, strict: bool = True, label: str | None = None) -> LinearCode:
    """Build a code from a nonzero list of generator rows of equal length.

    strict: reject rank-deficient input; otherwise quietly reduce k to
    the actual rank.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise ParameterError("empty generator matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ParameterError("ragged generator matrix")
    C = LinearCode(field, rows, label=label)
    if strict and C.k < len(rows):
        raise RankError(f"generator rank {C.k} < row count {len(rows)}")
    if C.k == 0:
        raise RankError("generator matrix is zero")
    return C


def dual(C: LinearCode) -> LinearCode:
    """The [n, n-k] code orthogonal to C under the standard inner product:
    with C's generator [I | A] up to column order, the rows [-A^T | I]."""
    field = C.field
    pivots = (C.gen != 0).argmax(axis=1)
    free = np.delete(np.arange(C.n), pivots)
    rows = np.zeros((len(free), C.n), dtype=np.int32)
    rows[np.arange(len(free)), free] = 1
    rows[:, pivots] = field.mul_scalar_np(field.neg(1), C.gen[:, free].T)
    return LinearCode(field, rows, label=_derived_label(C, "dual"))


def _derived_label(C, op):
    return f"{op}({C.label})" if C.label else None


def same_code(A: LinearCode, B: LinearCode) -> bool:
    """Set equality of two codes: the same field and the same (canonical,
    RREF) generator."""
    return A.field.q == B.field.q and np.array_equal(A.gen, B.gen)


# ---------------------------------------------------------------------------
# enumeration

def _suffix_symbols(q: int, k: int) -> int:
    """k2, the trailing message symbols one block covers: the largest
    k2 <= k with q^k2 <= `_MAX_BLOCK` (read on each call), and at least 1."""
    k2 = 1
    while k2 < k and q ** (k2 + 1) <= _MAX_BLOCK:
        k2 += 1
    return k2


def _row_table(C: LinearCode, k2: int, weights: bool = False):
    """(mults, table) of `iter_codeword_blocks` for suffix length k2, the
    value table or (weights) the weight table, built on the first call
    and shared by every later one on C; threads that ask while it is built
    wait for it rather than build their own."""
    key = (k2, weights)
    with C._row_tables_lock:
        if key not in C._row_tables:
            build = _build_weight_table if weights else _build_row_table
            C._row_tables[key] = build(C, k2)
        return C._row_tables[key]


def _multiples(field: GF, gen: np.ndarray) -> np.ndarray:
    """mults[r, j, c] = c gen[r, j], read-only, in the element dtype."""
    mults = field.multiples(gen).astype(field.np_dtype)
    mults.flags.writeable = False
    return mults


def _suffix_words(field: GF, mults: np.ndarray, k2: int) -> np.ndarray:
    """rest[j, s]: coordinate j (of the columns of mults) of the word of
    the last k2 - 1 message symbols, s in lexicographic order."""
    k, m, q = mults.shape
    rest = np.zeros((m, 1), dtype=field.np_dtype)
    for r in range(k - k2 + 1, k):
        rest = field.add_np(rest[:, :, None], mults[r][:, None, :]).astype(field.np_dtype)
        rest = rest.reshape(m, rest.shape[1] * q)
    return rest


def _build_row_table(C: LinearCode, k2: int):
    """mults[r, j, c] = c G[r, j], and the (n q, q^(k2-1)) row table whose
    row j q + u is u plus the contribution of the last k2 - 1 message
    symbols to coordinate j; both read-only."""
    field, q, n = C.field, C.field.q, C.n
    mults = _multiples(field, C.gen)
    rest = _suffix_words(field, mults, k2)
    # built one u at a time so no temporary outgrows a 1/q slice
    table = np.empty((n, q, rest.shape[1]), dtype=field.np_dtype)
    for u in range(q):
        table[:, u] = field.add_np(rest, u)
    table = table.reshape(n * q, -1)
    table.flags.writeable = False
    return mults, table


def _build_weight_table(C: LinearCode, k2: int):
    """The (mults, table) of the weight mode for suffix length k2.

    mults[r, i, c] = c G[r, f_i] on the n - k free (non-pivot) coordinates
    f_0 < f_1 < ...  The table, in the smallest dtype that holds n, has
    (n - k2 + 1) q rows of length q^(k2-1): row i q + u (i < n - k) is
    [u + rest[i] != 0], the 0/1 row of free coordinate f_i, and row
    (n - k) q + p q + c (p <= k - k2) is p + [c != 0] + the weight of the
    last k2 - 1 symbols: the message weights of a block whose k - k2
    leading symbols hold p nonzeros.  Both are read-only.  Only the suffix
    words of the free coordinates are built, so no value table is made.
    """
    field, q, k, n = C.field, C.field.q, C.k, C.n
    free = np.delete(np.arange(n), (C.gen != 0).argmax(axis=1))
    mults = _multiples(field, C.gen[:, free])
    rest = _suffix_words(field, mults, k2)
    m, length = rest.shape
    table = np.empty((m + k - k2 + 1, q, length), dtype=np.min_scalar_type(n))
    for u in range(q):
        table[:m, u] = rest != field.neg(u)  # u + x = 0 exactly when x = -u
    suffix, tail = np.arange(length), np.zeros(length, dtype=np.intp)
    for _ in range(k2 - 1):
        suffix, digits = np.divmod(suffix, q)
        tail += digits != 0
    table[m:] = np.arange(k - k2 + 1)[:, None, None] + (np.arange(q) != 0)[:, None] + tail
    table = table.reshape(-1, length)
    table.flags.writeable = False
    return mults, table


def iter_codeword_blocks(C: LinearCode, start: int = 0, stop: int | None = None,
                         weights: bool = False):
    """Yield (first_message_index, block) over messages in [start, stop),
    or with weights=True (first_message_index, w), w the Hamming weights of
    the block's words in order, in the smallest unsigned dtype that holds n.

    Blocks contain consecutive codewords in lexicographic message order.
    A block is an (m, n) array of dtype `field.np_dtype`, the transpose of
    a C-contiguous (n, m) array, so each coordinate is one contiguous
    column.  A block of q^k2 words, the largest power of q within
    `_MAX_BLOCK` (read on each call), fixes the leading k - k2 message
    symbols (the prefix); the last k2 - 1 symbols index the columns of one
    row table of shape (n q, q^(k2-1)), whose row j q + u is u plus their
    contribution to coordinate j.  Coordinate j of a block is then the q
    rows j q + (prefix_j + c G[k-k2, j]), one per value c of the first
    suffix symbol, so the whole block is one row gather of n q contiguous
    rows, the same for every field and every block size.  The row table
    is built once per code and k2 (`_row_table`), so every call and every
    thread range on the same code shares it.  The prefixes and table rows
    of up to `_PREFIX_BATCH` consecutive blocks are built together (one
    divmod of their block indices and one add per leading symbol, then one
    add of the first suffix symbol's multiples), so a block costs one
    gather.  The q^k words of the code are checked against the `codewords`
    budget.

    The weight mode rests on the pivot identity: coordinate p_i of every
    word (p_i the pivot column of row i) is message symbol i, so a word's
    weight is its message weight plus its weight on the n - k free
    coordinates.  The prefixes are built on the free coordinates only, and
    a block's weights are one gather of (n - k + 1) q rows from the 0/1
    weight table (`_build_weight_table`: the free coordinates' rows, then
    the message-weight rows of the block's prefix weight) and one sum of
    its n - k + 1 rows of q^k2 entries.
    """
    field, q, k, n = C.field, C.field.q, C.k, C.n
    total = q ** k
    check_budget("codewords", total, "q^k codewords")
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ParameterError("bad enumeration range")
    dtype, wdtype = field.np_dtype, np.min_scalar_type(n)
    if k == 0:
        if start == 0 and stop > 0:
            yield 0, np.zeros(1, dtype=wdtype) if weights else np.zeros((1, n), dtype=dtype)
        return

    k2 = _suffix_symbols(q, k)
    bs, lead = q ** k2, k - k2
    mults, table = _row_table(C, k2, weights)
    m = mults.shape[1]  # the coordinates the prefixes are built on
    offsets = np.arange(0, m * q, q)[:, None]  # row j q starts coordinate j

    # a batch's (blocks, rows, q) intp table rows take at most
    # _PREFIX_BATCH_BYTES; the weight mode gathers m + 1 rows per block
    batch = max(1, min(_PREFIX_BATCH,
                       _PREFIX_BATCH_BYTES // (8 * (m + 1 if weights else n) * q)))
    first, last = start // bs, (stop - 1) // bs + 1
    for b0 in range(first, last, batch):
        # prefixes[i]: the word of the leading symbols of block b0 + i, and
        # weight[i] the number of those symbols that are nonzero
        idx = np.arange(b0, min(b0 + batch, last))
        prefixes = np.zeros((idx.size, m), dtype=dtype)
        weight = np.zeros(idx.size, dtype=np.intp)
        for r in range(lead - 1, -1, -1):
            idx, digits = np.divmod(idx, q)
            prefixes = field.add_np(prefixes, mults[r].T[digits])
            weight += digits != 0
        # heads[i, j, c]: coordinate j of block b0 + i at first suffix
        # symbol c, read as its row number in the table
        heads = field.add_np(prefixes[:, :, None], mults[lead]) + offsets
        if weights:
            # then the message-weight rows of each block's prefix weight
            heads = np.concatenate(
                [heads, (m * q + q * weight)[:, None, None] + np.arange(q)], axis=1)
        for blk, rows in enumerate(heads, b0):
            rows = table.take(rows, axis=0).reshape(-1, bs)
            if weights:
                rows = np.add.reduce(rows, axis=0, dtype=wdtype)
            lo = blk * bs
            a = max(start - lo, 0)
            b = min(stop - lo, bs)
            yield lo + a, rows[a:b] if weights else rows.T[a:b]


def _block_weights(block: np.ndarray) -> np.ndarray:
    """Hamming weight of every row of a codeword block or block family, in
    the smallest unsigned dtype that holds n (uint8 below 256).

    A column-major block with n < 256 writes `block.T != 0` once, as an
    (n, m) C-contiguous array, and sums its rows as uint8 through a uint8
    view: one add reduction with no cast, whose fresh (m,) result keeps no
    reference to the scratch.  Row-major arrays (block families, coset
    leaders) and n >= 256 take one casting row reduction.
    """
    n = block.shape[1]
    if n > 255 or block.strides[0] != block.itemsize:
        return (block != 0).sum(axis=1, dtype=np.min_scalar_type(n))
    nonzero = np.not_equal(block.T, 0, order="C").view(np.uint8)
    return np.add.reduce(nonzero, axis=0, dtype=np.uint8)


# ---------------------------------------------------------------------------
# weight distributions

def _weight_runs(C: LinearCode, start: int, stop: int):
    """The weights of the messages in [start, stop), in order, from the
    weight mode of `iter_codeword_blocks`, joined into runs of at least
    `_MAX_BLOCK` words (the last run may be shorter)."""
    pending, size = [], 0
    for _, w in iter_codeword_blocks(C, start, stop, weights=True):
        pending.append(w)
        size += w.size
        if size >= _MAX_BLOCK:
            yield pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending, size = [], 0
    if pending:
        yield np.concatenate(pending)


def _direct_weight_counts(C: LinearCode, start: int, stop: int) -> np.ndarray:
    """A_0..A_n over the messages in [start, stop).

    The weights come in runs of at least `_MAX_BLOCK` words
    (`_weight_runs`), so a code with small blocks still takes one bincount
    per run, not per block: fewer calls that hold the interpreter lock
    while other threads count their ranges.  For n < 256 each run's uint8
    weights are read two at a time as one uint16, w_even + 256 w_odd (the
    other way round on a big-endian machine), so one bincount over half
    as many elements fills a (n + 1) x 256 table of weight pairs; both of
    its marginals are added into the n + 1 counts once per range, and an
    odd run's last weight is counted on its own.  Weights past 255 take a
    plain bincount.
    """
    n = C.n
    counts = np.zeros(n + 1, dtype=np.int64)
    if n > 255:
        for w in _weight_runs(C, start, stop):
            counts += np.bincount(w, minlength=n + 1)
        return counts
    pairs = np.zeros((n + 1) * 256, dtype=np.int64)
    for w in _weight_runs(C, start, stop):
        if w.size % 2:
            counts[w[-1]] += 1
            w = w[:-1]
        hist = np.bincount(w.view(np.uint16))
        pairs[:hist.size] += hist
    pairs = pairs.reshape(n + 1, 256)
    return counts + pairs.sum(axis=1) + pairs[:, :n + 1].sum(axis=0)


def _krawtchouk(j, i, n, q):
    return sum((-1) ** l * math.comb(i, l) * math.comb(n - i, j - l) * (q - 1) ** (j - l)
               for l in range(0, min(i, j) + 1))


def macwilliams_transform(counts, n: int, q: int) -> list[int]:
    """Weight distribution of the dual, from a code's exact distribution."""
    size = sum(int(c) for c in counts)
    out = []
    for j in range(n + 1):
        s = sum(int(counts[i]) * _krawtchouk(j, i, n, q) for i in range(n + 1) if counts[i])
        v, rem = divmod(s, size)
        if rem:
            raise AssertionError("MacWilliams transform produced a non-integer")
        out.append(v)
    return out


def weight_distribution(C: LinearCode, method: str = "auto", threads: int = 1) -> np.ndarray:
    """Exact codeword counts by weight (A_0..A_n).

    direct: enumerate q^k codewords.  macwilliams: enumerate the dual and
    transform.  auto picks the smaller dimension.  A side over the
    `codewords` budget raises CapacityError.
    """
    q, k, n = C.field.q, C.k, C.n
    if method == "auto":
        method = "direct" if k <= n - k else "macwilliams"
    if method == "macwilliams":
        check_budget("codewords", q ** (n - k), "q^(n-k) dual codewords")
        counts = macwilliams_transform(_threaded_direct(dual(C), threads), n, q)
        # a count of 2^63 or more stays an exact Python int
        return np.array(counts, dtype=np.int64 if max(counts) < 1 << 63 else object)
    if method != "direct":
        raise ParameterError(f"unknown method {method!r}")
    return np.array(_threaded_direct(C, threads), dtype=np.int64)


def _threaded_direct(C: LinearCode, threads: int) -> np.ndarray:
    import sys
    total = C.size
    threads = max(1, int(threads or 1))
    verbose = total >= (1 << 26)
    if verbose:
        sys.stderr.write(f"enumerating {total} codewords of {C!r} "
                         f"({threads} thread{'s' if threads > 1 else ''})\n")
    if threads == 1 or total < (1 << 20):
        return _direct_weight_counts(C, 0, total)
    # built here, before the pool starts, so every range reads one table
    _row_table(C, _suffix_symbols(C.field.q, C.k), weights=True)
    # a stream too short to report progress on takes one range per worker;
    # a longer one is cut into small chunks, which keep the progress trace
    # honest
    chunks = threads * 8 if verbose else threads
    bounds = [total * i // chunks for i in range(chunks + 1)]
    done = 0
    counts = np.zeros(C.n + 1, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_direct_weight_counts, C, a, b)
                   for a, b in zip(bounds, bounds[1:])]
        for fut in futures:
            counts += fut.result()
            done += 1
            if verbose and done % threads == 0:
                sys.stderr.write(f"  ...{done}/{chunks} ranges\n")
    return counts


# ---------------------------------------------------------------------------
# fixed-weight codeword extraction

def _syndrome_sweep(field: GF, H: np.ndarray, w: int, lead_one: bool = False):
    """Yield (S, patterns, syndromes) for chunks of consecutive w-subsets of
    the columns of H, in lexicographic order: S is (s, w), patterns the
    (q-1)^w nonzero value tuples in lexicographic order, and syndromes[i, j]
    = H v for the v holding patterns[j] on S[i] and zeros elsewhere.  With
    lead_one only the (q-1)^(w-1) patterns with value 1 at S[0] are swept,
    one per scalar orbit, the first (q-1)^(w-1) of the full list.

    The block is an outer sum over the places, built one place at a time:
    the (s, (q-1)^j, r) syndromes of the first j places are added, by
    broadcasting, to the q-1 nonzero multiples c H[:, S[i, j]] of the next
    column, so the patterns are never read as indices and the last step
    holds the block and a 1/(q-1) share of it.  A chunk holds at most
    max(P r, _SWEEP_CHUNK) syndrome entries (P patterns of r symbols), its
    supports listed as it is built.
    The C(n, w) (q-1)^w candidates of the level (C(n, w) (q-1)^(w-1) with
    lead_one) are checked against the `sweep_level` budget up front.
    """
    q, (r, n) = field.q, H.shape
    npat = (q - 1) ** (w - lead_one)
    check_budget("sweep_level", math.comb(n, w) * npat,
                 f"syndrome sweep: C({n},{w}) x {npat} candidates")
    lead = (1 if lead_one else q - 1,)
    patterns = np.indices(lead + (q - 1,) * (w - 1), dtype=np.int32).reshape(w, -1).T + 1
    per_chunk = max(1, _SWEEP_CHUNK // (npat * max(r, 1)))
    # nonzero multiples: contrib[j, c - 1] = c H[:, j], n x (q-1) x r
    contrib = field.mul_np(np.arange(1, q)[None, :, None], H.T[:, None, :])
    first = contrib[:, :1] if lead_one else contrib
    subsets = combinations(range(n), w)
    while (S := np.fromiter(chain.from_iterable(islice(subsets, per_chunk)),
                            dtype=np.intp).reshape(-1, w)).size:
        syn = first[S[:, 0]]
        for j in range(1, w):
            syn = field.add_np(syn[:, :, None], contrib[S[:, j], None])
            syn = syn.reshape(len(S), syn.shape[1] * (q - 1), r)
        yield S, patterns, syn


def _lead_one_blocks(C: LinearCode):
    """Codeword blocks of the messages whose first nonzero symbol is 1, the
    ranges [q^j, 2 q^j) for j < k, in message order.

    In RREF that symbol is the word's first nonzero entry (the coordinates
    before pivot p_i depend only on the symbols before i), so these are
    the words with leading entry 1, one per scalar orbit.  The ranges with
    j >= k2 are whole blocks of q^k2 words; every range below one block
    (j < k2) is a slice of the first block [0, q^k2), built once.  So the
    stream visits q^k2 + (q^k - q^k2) / (q - 1) words, never more than q^k.
    The block size is read from `_MAX_BLOCK` on each call.
    """
    q, k = C.field.q, C.k
    if k == 0:
        yield np.zeros((0, C.n), dtype=C.field.np_dtype)
        return
    k2 = _suffix_symbols(q, k)
    _, first = next(iter_codeword_blocks(C, 0, q ** k2))
    for j in range(k2):
        yield first[q ** j:2 * q ** j]
    for j in range(k2, k):
        for _, block in iter_codeword_blocks(C, q ** j, 2 * q ** j):
            yield block


def codewords_of_weight(C: LinearCode, w: int, method: str = "auto",
                        projective: bool = False) -> np.ndarray:
    """All weight-w codewords, or with projective=True the weight-w words
    whose first nonzero entry is 1 (one per scalar orbit), as a
    lexicographically sorted C-contiguous array of `field.np_dtype`.

    scan: run the syndrome sweep over all supports and nonzero patterns
    (projective: the patterns with value 1 at S[0]), keeping vectors whose
    syndrome against the dual generator vanishes.  enumerate: filter the
    full codeword stream (projective: the lead-one ranges of
    `_lead_one_blocks`).  auto takes the cheaper estimate; projective
    divides both costs by about q - 1, so the choice does not depend on
    it.

    The scan finds rows in (support, pattern) order, so they are sorted by
    their big-endian bytes.  The enumerated stream is already sorted, as
    every generator is in RREF, and is not sorted again: with pivot
    columns p_0 < ... < p_(k-1), coordinate p_i of the word of message m
    is m_i (G[i, p_i] = 1 is the only nonzero entry of its column), and
    every coordinate j < p_i depends only on m_0..m_(i-1)
    (rows i and later are zero before their pivots).  So if m < m' first
    differ at symbol i, the two words agree before p_i and differ first at
    p_i, where m_i < m'_i: message order is strictly increasing
    lexicographic word order, and so is any filtered sub-stream (the
    lead-one ranges come in increasing message order).
    """
    q, n, dtype = C.field.q, C.n, C.field.np_dtype
    if not 0 <= w <= n:
        raise ParameterError(f"weight {w} out of range")
    if w == 0:
        return np.zeros((0 if projective else 1, n), dtype=dtype)
    enum_cost = C.size
    scan_cost = math.comb(n, w) * (q - 1) ** w
    if method == "auto":
        method = "scan" if scan_cost < enum_cost else "enumerate"
    if method == "enumerate":
        blocks = _lead_one_blocks(C) if projective else (b for _, b in iter_codeword_blocks(C))
        out = np.concatenate([block[_block_weights(block) == w] for block in blocks])
        return np.ascontiguousarray(out)
    if method != "scan":
        raise ParameterError(f"unknown method {method!r}")
    found = []
    for S, patterns, syn in _syndrome_sweep(C.field, dual(C).gen, w, lead_one=projective):
        si, pi = np.nonzero(~syn.any(axis=2))
        vecs = np.zeros((si.size, n), dtype=dtype)
        np.put_along_axis(vecs, S[si], patterns[pi], axis=1)
        found.append(vecs)
    out = np.concatenate(found)
    # the big-endian bytes of a row, as one np.void, order like its entries;
    # equal keys are equal rows, so an in-place sort of the keys needs no
    # stable order and no index (on uint8 fields the keys are out itself)
    key = np.ascontiguousarray(out, dtype=out.dtype.newbyteorder(">"))
    key.view(np.dtype((np.void, n * key.itemsize))).sort(axis=0)
    return key.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# puncture / shorten

def puncture(C: LinearCode, m: int) -> LinearCode:
    """Delete coordinate m (0-based) from every codeword."""
    if not 0 <= m < C.n:
        raise ParameterError(f"coordinate {m} out of range")
    return LinearCode(C.field, np.delete(C.gen, m, axis=1),
                      label=_derived_label(C, f"puncture[{m}]"))


def shorten(C: LinearCode, m: int) -> LinearCode:
    """Keep codewords that vanish at coordinate m, then delete it; the
    result may be the zero code (k = 0), as `dual` and `puncture` may."""
    if not 0 <= m < C.n:
        raise ParameterError(f"coordinate {m} out of range")
    field = C.field
    # with coordinate m first, only the first row can be nonzero there
    order = [m] + [j for j in range(C.n) if j != m]
    rows, pivots = _rref(field, C.gen[:, order])
    if pivots[:1] == [0]:
        rows = rows[1:]
    else:
        warnings.warn("shortening a coordinate that is identically zero; dimension kept")
    return LinearCode(field, rows[:, 1:],
                      label=_derived_label(C, f"shorten[{m}]"))


# ---------------------------------------------------------------------------
# radii and the profile

def _coset_sweep(C: LinearCode, max_weight: int):
    """The syndrome sweep of weights 1..max_weight against the dual, over
    q^(n-k) syndromes within the `syndromes` budget, until all are seen.
    Yields (w, S, patterns, new, ids) for each chunk that meets an unseen
    syndrome: the flat (support, pattern) indices of those candidates and
    their syndromes read as base-q numbers."""
    q, nk = C.field.q, C.n - C.k
    if nk == 0:
        return
    total = q ** nk
    check_budget("syndromes", total, f"coset scan: syndrome space {q}^{nk}")
    H = dual(C).gen
    seen = np.zeros(total, dtype=bool)
    seen[0] = True
    for w in range(1, max_weight + 1):
        for S, patterns, syn in _syndrome_sweep(C.field, H, w):
            # Horner over the r symbols: no temporary larger than ids
            ids = syn[..., -1].astype(np.int64)
            for j in range(nk - 2, -1, -1):
                ids *= q
                ids += syn[..., j]
            ids = ids.ravel()
            new = np.flatnonzero(~seen[ids])
            if new.size:
                yield w, S, patterns, new, ids[new]
                seen[ids] = True
                if seen.all():
                    return


def coset_representatives(C: LinearCode, max_weight: int) -> np.ndarray:
    """One minimum-weight leader per coset of leader weight <= max_weight,
    the rows of an (m, n) array in `field.np_dtype`: the first vector of
    each syndrome in (weight, support, value) order, zero first.  A
    leader's weight is its row weight."""
    n = C.n
    leaders = [np.zeros((1, n), dtype=C.field.np_dtype)]
    for _, S, patterns, new, ids in _coset_sweep(C, max_weight):
        # the first candidate of each new syndrome, in candidate order
        _, first = np.unique(ids, return_index=True)
        si, pi = np.divmod(new[np.sort(first)], len(patterns))
        vecs = np.zeros((si.size, n), dtype=C.field.np_dtype)
        np.put_along_axis(vecs, S[si], patterns[pi], axis=1)
        leaders.append(vecs)
    return np.concatenate(leaders)


def covering_radius(C: LinearCode) -> int:
    """Exact covering radius: the largest coset leader weight, the weight
    of the last chunk of the coset sweep that meets a new syndrome."""
    return max((w for w, *_ in _coset_sweep(C, C.n)), default=0)


def sphere_bound_radius(C: LinearCode) -> int:
    """Smallest r with |C| * sum_{i<=r} C(n,i)(q-1)^i >= q^n.

    This is the sphere-covering inequality; it lower-bounds the covering
    radius and equals it exactly for perfect codes.
    """
    q, n, k = C.field.q, C.n, C.k
    need = q ** n
    acc = 0
    for r in range(n + 1):
        acc += math.comb(n, r) * (q - 1) ** r
        if q ** k * acc >= need:
            return r
    raise AssertionError("sphere bound did not close")


def support_repeat_bound(n: int, q: int, d: int) -> int:
    """Largest h <= n with h - floor((h+q-2)/(q-1)) < d.

    Weights in [d, h] have every codeword support shared by exactly q-1
    codewords (the scalar multiples and nothing else).
    """
    h = 0
    for cand in range(1, n + 1):
        if cand - (cand + q - 2) // (q - 1) < d:
            h = cand
    return h


@dataclass
class CodeProfile:
    """The fundamental parameters of a code and its dual.  A covering
    radius rho handed in is checked against e <= rho <= s_dual (the upper
    bound for k < n)."""
    n: int
    k: int
    q: int
    counts: list[int]
    dual_counts: list[int]
    weights: list[int] = dc_field(init=False)
    dual_weights: list[int] = dc_field(init=False)
    d: int = dc_field(init=False)
    d_dual: int = dc_field(init=False)
    s: int = dc_field(init=False)
    s_dual: int = dc_field(init=False)
    e: int = dc_field(init=False)
    divisor: int = dc_field(init=False)
    h: int = dc_field(init=False)
    rho: int | None = None
    rho_sphere: int | None = None

    def __post_init__(self):
        self.weights = [i for i in range(1, self.n + 1) if self.counts[i]]
        self.dual_weights = [i for i in range(1, self.n + 1) if self.dual_counts[i]]
        self.d = self.weights[0] if self.weights else 0
        self.d_dual = self.dual_weights[0] if self.dual_weights else 0
        self.s = len(self.weights)
        self.s_dual = len(self.dual_weights)
        self.e = (self.d - 1) // 2 if self.d else 0
        g = 0
        for w in self.weights:
            g = math.gcd(g, w)
        self.divisor = g if g > 1 else 1
        self.h = support_repeat_bound(self.n, self.q, self.d) if self.d else 0
        if self.rho is not None and (self.rho < self.e or
                                     (self.rho > self.s_dual and self.k < self.n)):
            raise AssertionError("covering radius violates e <= rho <= s_dual")

    @property
    def is_mds(self) -> bool:
        return self.d == self.n - self.k + 1

    @property
    def is_perfect(self) -> bool | None:
        if self.rho is None:
            return None
        return self.e == self.rho

    def to_dict(self) -> dict:
        out = {
            "n": self.n, "k": self.k, "q": self.q,
            "d": self.d, "d_dual": self.d_dual,
            "s": self.s, "s_dual": self.s_dual,
            "e": self.e, "rho": self.rho, "rho_sphere_bound": self.rho_sphere,
            "divisor": self.divisor, "h": self.h,
            "weights": self.weights, "dual_weights": self.dual_weights,
            "counts": {str(i): int(c) for i, c in enumerate(self.counts) if c},
            "dual_counts": {str(i): int(c) for i, c in enumerate(self.dual_counts) if c},
            "mds": self.is_mds, "perfect": self.is_perfect,
        }
        if self.rho is not None and self.rho_sphere is not None:
            out["rho_definitions_agree"] = self.rho == self.rho_sphere
        return out


def code_profile(C: LinearCode, compute_rho: bool = False, threads: int = 1) -> CodeProfile:
    """Fill every profile field; exact rho only on request (syndrome sweep).

    The sphere-bound radius is always reported separately: it is a lower
    bound that can differ from the true covering radius on non-perfect
    codes, and divergences are flagged rather than resolved.
    """
    counts = weight_distribution(C, "auto", threads=threads)
    dual_counts = macwilliams_transform(counts, C.n, C.field.q)
    return CodeProfile(C.n, C.k, C.field.q, [int(x) for x in counts], dual_counts,
                       rho=covering_radius(C) if compute_rho else None,
                       rho_sphere=sphere_bound_radius(C))


# ---------------------------------------------------------------------------
# matrix text format: a header line, then rows of n element indices

def _write_matrix(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(" ".join(str(int(v)) for v in header) + "\n")
        for row in rows:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def _read_matrix(path, fields: str) -> tuple[list[int], np.ndarray]:
    """Parse a header of integer `fields` ('q n k' or 'q n w B': the order q
    first, the row length n second, the row count last), then exactly that
    many rows of n element indices in [0, q).  A negative length or count,
    and any non-blank line after the declared rows, is a ParseError.
    Returns the header values and the rows as an int32 array."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    head = lines[0].split()
    if len(head) != len(fields.split()):
        raise ParseError(f"expected '{fields}' header", line=1)
    try:
        head = [int(v) for v in head]
    except ValueError:
        raise ParseError("non-integer header field", line=1) from None
    q, n, count = head[0], head[1], head[-1]
    if n < 0 or count < 0:
        raise ParseError("negative row length or row count", line=1)
    if len(lines) < 1 + count:
        raise ParseError(f"expected {count} rows after the header", line=len(lines))
    rows = []
    for i, line in enumerate(lines[1:1 + count], start=2):
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries", line=i)
        try:
            row = [int(v) for v in parts]
        except ValueError:
            raise ParseError("non-integer entry", line=i) from None
        if any(not 0 <= v < q for v in row):
            raise ParseError(f"entry outside [0, {q})", line=i)
        rows.append(row)
    for i, line in enumerate(lines[1 + count:], start=2 + count):
        if line.strip():
            raise ParseError(f"content after the {count} declared rows", line=i)
    return head, np.array(rows, dtype=np.int32).reshape(count, n)


def save_generator(C: LinearCode, path) -> None:
    """Text format: first line 'q n k', then k rows of n element indices."""
    _write_matrix(path, (C.field.q, C.n, C.k), C.gen)


def load_generator(path) -> LinearCode:
    (q, _, _), rows = _read_matrix(path, "q n k")
    return code_from_generator(field_make(q), rows, strict=True)
