"""Exact verification of q-ary and classical t-design properties.

A block family is a set of constant-weight vectors over GF(q).  The
q-ary check counts, for every weight-t vector x, the blocks that cover
x (agree with x on each of its nonzero coordinates); the classical
check counts, for every t-subset, the distinct block supports (as in
support designs of codes) or the support multiset containing it.  Both
give the common index or a deterministic failure witness.

One counting kernel serves every check: each row adds one to the cell
(lexrank(S), pattern on S) of every t-subset S of its support, one
`np.bincount` per chunk of rows, C(n,t) * P cells in all, at most
the `count_table` budget.  lexrank(S) = C(n,t) - 1 - sum_j C(n-1-s_j, t-j)
and the pattern is the values on S in radix q-1, S[0] most significant,
so the first deviant cell is the first deviant (support, values) in
lexicographic order.  A cell is a sum of one term per place of S, so the
cells of a chunk are built from prefix sums: for each first place, the
subsets of later places grow one place at a time, and appending a place
to every shorter subset before it is one contiguous slice plus one
broadcast row, with no per-cell gather.  The classical check counts
supports (P = 1) on the reflected coordinates n-1-s:
colex(S) = C(n,t) - 1 - lexrank({n-1-s}), so the reversed table is in
colex order.  The fixed-support check counts the projection onto its t
coordinates, a single subset.

One verdict serves every check, `_verdict`: a table passes when every
cell holds the target, the forced index when it is integral, else (and
always in the fixed-support check) cell 0, and the first cell off target
is the witness.  With want_witness=False a non-integral forced index
fails before anything is counted or budgeted.  t is checked before
emptiness (`_vacuous`): t outside [1, w] raises on an empty family too.

Scalar orbits.  A weight class of a linear code is closed under nonzero
scalars, so N(x) = N(cx).  On a family that holds each orbit once,
with its representatives known (`BlockFamily.scalar_orbits`), the
kernel and the one support dedup (cached on the family as
`distinct_supports`) run on the B/(q-1) representatives.  Each has one
multiple with value 1 at S[0]; counting the values divided by the value
at S[0], (q-1)^(t-1) patterns, gives the witness, count and index of the
full count, since every other pattern counts as its multiple with value
1 at S[0].  Other families are counted block by block over all (q-1)^t
patterns.

A family decides its orbit form once, when it is built.  Its native
form is one representative per orbit: closed by construction and holding
R rows for its (q-1) R blocks, whose `blocks` are built on access, one
coordinate at a time, as the transpose of an (n, B) array.  Part c - 1
of a coordinate is c times its entries in the reps, written by one
multiples helper, `_scalar_multiples`: in characteristic 2, where
addition is XOR, only the power-of-two scalars are gathered, from
`GF.multiples`, and every other part is the XOR of two earlier ones,
c = h + (c - h) with h the top bit of c; other fields build no table and
take each part through the log tables.  Every native
family passes one representative check, `_orbit_form`: a private copy,
normalized (left as it is when every leading entry is 1), whose rows
must be distinct.  That is decided in three steps: at once when their
byte keys strictly increase (the compare stops at the first pair out of
order); else when their support keys, one packed support per row (a
uint64 when n <= 64), are distinct, as equal rows share a support; and
only a tie between support keys sorts the rows themselves.
`BlockFamily.from_orbits` raises when it fails.  `family_from_code`
hands `from_orbits` the words whose first nonzero entry is 1, which
`codewords_of_weight` finds directly (`projective=True`) in increasing
order, so the check neither divides nor sorts them.  Only the order of
`blocks` differs from the sorted class, c * rep with c outer, and no
count, index or witness depends on row order: a count table is a sum
over rows, the witness is its first deviant cell, and the support dedup
keys rows by their packed supports.  `BlockFamily(field, n, w, rows)`
builds the native form too when its rows are listed in the order
`from_orbits` gives its blocks (`_listed_orbits`, which checks the later
parts with the same multiples helper), as a monomial image of a native
family and a saved native family read back by `load_family` are; it then
keeps part 0 and no copy of the rows.  Any other rows, such
as the sorted class of `codewords_of_weight`, are kept as a private
copy; such a family has no orbits and is counted block by block, with
the same counts, indices and witnesses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import ParameterError, check_budget
from .fields import GF, field_make
from .linear import (LinearCode, _block_weights, _checked_entries, _read_matrix,
                     _write_matrix, codewords_of_weight, coset_representatives,
                     iter_codeword_blocks)

_CELL_CHUNK = 1 << 20            # (row, t-subset) cells summed per bincount


class BlockFamily:
    """Constant-weight vectors over GF(q) with (n, q, w) metadata.

    A family decides its orbit form once, when it is built.  In native
    form it holds only its R orbit representatives, and `scalar_orbits`
    holds them normalized (first nonzero entry 1): `from_orbits` and
    `family_from_code` build this form, and so does `__init__` when the
    rows handed in are listed as `from_orbits` lists them (part 0 is kept
    as the representatives, see `_listed_orbits`).  Its representatives
    pass `_orbit_form`, whose distinctness check tries strictly increasing
    rows, then distinct packed supports, and sorts the rows only on a tie
    between supports.  Its read-only `blocks` are built coordinate by
    coordinate on each access and not cached: the transpose of a
    C-contiguous (n, B) array, so a column of `blocks` is contiguous, whose
    part c - 1 is c times the reps (`_scalar_multiples`: XOR-built from the
    power-of-two multiples in characteristic 2).  Any other family holds a
    read-only private C-contiguous copy of its rows as `blocks`, has
    `scalar_orbits` None and is counted block by block.  The support dedup
    is cached on first use.  Both constructors take a 2-d array with n
    columns, or an empty input.
    """

    def __init__(self, field: GF, n: int, w: int, blocks, source: str = ""):
        arr = _entry_rows(field, n, blocks)
        # a w = 0 or empty family has no orbits to list
        orbits = _listed_orbits(field, w, arr) if w and len(arr) else None
        if orbits is not None:
            self._hold(field, n, w, source, reps=orbits[0], norm=orbits[1])
            return
        _check_weights(arr, w)
        self._hold(field, n, w, source, blocks=np.array(arr, dtype=field.np_dtype, order="C"))

    @classmethod
    def from_orbits(cls, field: GF, n: int, w: int, reps, source: str = "") -> BlockFamily:
        """The family of every nonzero multiple of every row of reps,
        (q-1) R blocks; no two rows may be scalar multiples.

        `blocks` lists c * rep for c = 1..q-1 (outer), then the reps in the
        order given.
        """
        if w < 1:
            raise ParameterError("orbit representatives need weight >= 1")
        arr = _entry_rows(field, n, reps)
        # checked before the private copy is made, so a temporary and the copy never coexist
        _check_weights(arr, w)
        orbits = _orbit_form(field, arr)
        if orbits is None:
            raise ParameterError("two orbit representatives are scalar multiples")
        fam = cls.__new__(cls)
        fam._hold(field, n, w, source, reps=orbits[0], norm=orbits[1])
        return fam

    def _hold(self, field: GF, n: int, w: int, source: str, blocks=None, reps=None,
              norm=None) -> None:
        """Keep either the rows of a family counted block by block or the
        representatives of a native one (and their normalized rows), all
        read-only."""
        self.field, self.n, self.w, self.source = field, n, w, source
        for arr in (blocks, reps, norm):
            if arr is not None:
                arr.flags.writeable = False
        self._blocks, self._reps = blocks, reps
        self._len = len(blocks) if reps is None else (field.q - 1) * len(reps)
        # the read-only (R, n) orbit representatives, each with first
        # nonzero entry 1, of a native family with R > 0, else None
        self.scalar_orbits = norm if reps is not None and len(reps) else None

    @property
    def blocks(self) -> np.ndarray:
        if self._blocks is not None:
            return self._blocks
        # row j of cols is coordinate j of every block; its part c - 1 is
        # c times coordinate j of the reps
        reps, n = self._reps, self.n
        cols = np.empty((n, self.field.q - 1, len(reps)), dtype=reps.dtype)
        for j in range(n):
            cols[j, 0] = reps[:, j]
            _scalar_multiples(self.field, cols[j])
        out = cols.reshape(n, len(self)).T
        out.flags.writeable = False
        return out

    @functools.cached_property
    def distinct_supports(self) -> tuple[np.ndarray, np.ndarray]:
        """(a counting row per distinct support, the blocks sharing it), as
        read-only arrays in packed order; see `_distinct_supports`."""
        rows, counts = _distinct_supports(self)
        rows.flags.writeable = False
        counts.flags.writeable = False
        return rows, counts

    def __len__(self):
        return self._len

    def __repr__(self):
        return f"BlockFamily(n={self.n}, q={self.field.q}, w={self.w}, blocks={len(self)})"


_ORBIT_CHUNK = 1 << 16  # entries of part 0 per listed compare


def _check_weights(rows: np.ndarray, w: int) -> None:
    if rows.size and not (_block_weights(rows) == w).all():
        raise ParameterError("blocks do not all have the declared weight")


def _entry_rows(field: GF, n: int, rows) -> np.ndarray:
    """rows as a (B, n) array of element indices; no rows is the empty
    (0, n) family, and any other shape is a ParameterError."""
    arr = _checked_entries(field, rows, "block")
    if arr.ndim == 2 and arr.shape[1] == n:
        return arr
    if arr.shape[:1] == (0,):
        return arr.reshape(0, n)
    raise ParameterError(f"blocks must be a 2-d array with {n} columns, got shape {arr.shape}")


def _leads(rows: np.ndarray) -> np.ndarray:
    """The first nonzero entry of every row."""
    return rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]


def _normalized(field: GF, rows: np.ndarray) -> np.ndarray:
    """Every row of an array in the element dtype divided by its first
    nonzero entry: the rows themselves when every such entry is 1, as
    over GF(2) and for the lead-one words of a code."""
    leads = _leads(rows)
    if (leads == 1).all():
        return rows
    return field.div_np(rows, leads[:, None])


def _increasing(key: np.ndarray) -> bool:
    """Whether a 1-d array strictly increases; neighbours are compared in
    doubling runs, so an array out of order is left near its first pair
    out of order."""
    a, step = 0, 64
    while a < len(key) - 1:
        b = min(a + step, len(key) - 1)
        if not (key[a + 1:b + 1] > key[a:b]).all():
            return False
        a, step = b, 2 * step
    return True


def _support_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row whose order is the byte order of its packed support,
    `np.packbits(rows != 0, axis=1)`: the packed bytes, zero-padded on the
    right, read as one big-endian uint64 when n <= 64, else a void key."""
    bits = np.packbits(rows != 0, axis=1)
    if bits.shape[1] > 8:
        return bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    word = np.zeros((len(bits), 8), dtype=np.uint8)
    word[:, :bits.shape[1]] = bits
    return word.view(">u8").ravel().astype(np.uint64)


def _distinct_rows(rows: np.ndarray) -> bool:
    """Whether no two rows of a C-contiguous array are equal: at once when
    their byte keys strictly increase, else when their support keys are
    distinct, else when no two neighbours of the sorted rows agree."""
    width = rows.shape[1] * rows.itemsize
    # a row's big-endian bytes, as one fixed-width bytes string, order
    # like its entries (numpy drops trailing nulls when it compares, and
    # null is the least byte, so equal widths compare byte by byte)
    key = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    if _increasing(key.view(f"S{width}").ravel()):
        return True
    # equal rows have equal supports, so distinct supports settle it
    key = np.sort(_support_keys(rows))
    if not (key[1:] == key[:-1]).any():
        return True
    key = np.sort(rows.view(np.dtype((np.void, width))).ravel())
    return not (key[1:] == key[:-1]).any()


def _orbit_form(field: GF, reps: np.ndarray):
    """(reps, norm) of checked rows, reps a private C-contiguous copy in the
    element dtype and norm its rows normalized, or None when two rows are
    proportional (their normalized rows are equal)."""
    reps = np.array(reps, dtype=field.np_dtype, order="C")
    norm = _normalized(field, reps)
    if not _distinct_rows(norm):
        return None
    return reps, norm


def _scalar_multiples(field: GF, out: np.ndarray, check: bool = False) -> bool:
    """Write c * x into out[c - 1] for c = 2..q-1, x = out[0] (element
    indices, in the element dtype); or, with check, compare the rows out
    holds with them, stopping at the first row that differs.  Any shape of
    x; False when a row differs.

    In characteristic 2, where addition is XOR, only the power-of-two
    scalars are gathered, from their rows of `GF.multiples`: row c is row h
    XOR row c - h, h the top bit of c, as c = h + (c - h).  A checked row is
    compared before it is read, so the XOR of two held rows stands for the
    product.  Other fields build no table: each row is one product through
    the log tables, O(len(x)) per scalar.
    """
    q = field.q
    powers = [1 << i for i in range(1, field.m)] if field.p == 2 else []
    tab = dict(zip(powers, field.multiples(powers).astype(out.dtype))) if powers else {}
    # one index conversion for every gather (GF(2) and odd fields have none)
    idx = out[0].astype(np.intp, order="C") if tab else None
    for c in range(2, q):
        h = 1 << (c.bit_length() - 1)
        row = None if check else out[c - 1]
        if field.p != 2:
            row = field.mul_np(c, out[0])
            if not check:
                out[c - 1] = row
        elif c in tab:
            # the entries are checked, so "clip" never clips
            row = np.take(tab[c], idx, out=row, mode="clip")
        else:
            row = np.bitwise_xor(out[h - 1], out[c - h - 1], out=row)
        if check and not np.array_equal(row, out[c - 1]):
            return False
    return True


def _listed_orbits(field: GF, w: int, rows: np.ndarray):
    """`_orbit_form` of part 0 of rows listed as `from_orbits` lists
    them, else None.  rows hold checked entries; a row of part 0 whose
    weight is not w raises ParameterError.

    Listed means B = (q-1) R rows whose part c - 1, rows [(c-1) R, c R),
    equals c times part 0 for every c = 2..q-1, and no two rows of part 0
    proportional.  Then each row of part 0 stands for one orbit, once, and
    every later row is a nonzero multiple of its row of part 0, so it has
    that row's weight.  The rows of about `_ORBIT_CHUNK` entries of part 0
    and their later parts are taken to the element dtype and checked by
    `_scalar_multiples`, part by part; the check stops at the first part
    that differs, so a family in any other order costs about one chunk and
    one part before it is left to the caller.
    """
    q, n = field.q, rows.shape[1]
    R, rest = divmod(len(rows), q - 1)
    if rest:
        return None
    base = rows[:R]
    _check_weights(base, w)
    parts = rows.reshape(q - 1, R, n)
    step = max(1, _ORBIT_CHUNK // n)
    for a in range(0, R, step):
        given = np.asarray(parts[:, a:a + step], dtype=field.np_dtype)
        if not _scalar_multiples(field, given, check=True):
            return None
    return _orbit_form(field, base)


def family_from_code(C: LinearCode, w: int, method: str = "auto") -> BlockFamily:
    """The weight-w codewords of C as a family in native form: its lead-one
    words, one per scalar orbit, handed to `BlockFamily.from_orbits`.  They
    are their own normalized rows in strictly increasing order, so the
    orbit check neither divides nor sorts them.

    The lead-one words come straight from `codewords_of_weight` with
    projective=True, except under an explicit method="enumerate", which
    streams every codeword and keeps the lead-one rows of the full class.
    The class of weight 0, the zero word, is a one-block family.
    """
    src = f"{C.label or 'code'}[{C.n},{C.k}]_{C.field.q}:w={w}"
    if w == 0:
        return BlockFamily(C.field, C.n, 0, codewords_of_weight(C, 0), source=src)
    projective = method != "enumerate"
    rows = codewords_of_weight(C, w, method=method, projective=projective)
    if not projective:
        rows = rows[_leads(rows) == 1]
    return BlockFamily.from_orbits(C.field, C.n, w, rows, source=src)


def covers(a, b) -> bool:
    """True iff a agrees with b on every nonzero coordinate of b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ParameterError("length mismatch")
    nz = b != 0
    return bool((a[nz] == b[nz]).all())


@dataclass
class DesignCheck:
    """Outcome of a single design verification at strength t."""
    kind: str                   # "qary" | "classical"
    t: int
    ok: bool
    lam: int | None = None
    witness: tuple | None = None
    witness_count: int | None = None
    expected: Fraction | None = None
    vacuous: bool = False
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "t": self.t, "ok": self.ok,
            "lambda": self.lam,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_count": self.witness_count,
            "expected_index": _frac_str(self.expected),
            "vacuous": self.vacuous, "detail": self.detail,
        }


def _frac_str(f):
    if f is None:
        return None
    if isinstance(f, Fraction) and f.denominator == 1:
        return int(f)
    return str(f)


def expected_index(count: int, t: int, n: int, w: int, q: int, qary: bool = True) -> Fraction:
    """Index forced by the block count; non-integral means no design at t."""
    denom = math.comb(n, t) * ((q - 1) ** t if qary else 1)
    return Fraction(count * math.comb(w, t), denom)


def qary_design_index(fam: BlockFamily, t: int, want_witness: bool = True) -> DesignCheck:
    """Check whether the family covers every weight-t vector equally often.

    With want_witness=False a non-integral forced index short-circuits the
    count; otherwise the whole table is counted and the lexicographically
    first deviant (support, values) pattern is the witness.
    """
    if (vacuous := _vacuous("qary", fam, t)) is not None:
        return vacuous
    q, n, w = fam.field.q, fam.n, fam.w
    rows, normalized = _counting_rows(fam)
    npat = (q - 1) ** (t - normalized)
    return _verdict("qary", t, expected_index(len(fam), t, n, w, q, qary=True), want_witness,
                    lambda: _count_table(rows, w, t, fam.field, normalized),
                    lambda cell: _unrank(cell, n, t, q, npat), "deviant cover count")


def _vacuous(kind: str, fam: BlockFamily, t: int) -> DesignCheck | None:
    """The vacuous check of an empty family, else None.  t outside [1, w]
    is a ParameterError, on an empty family too."""
    if not 1 <= t <= fam.w:
        raise ParameterError(f"need 1 <= t <= w, got t={t}, w={fam.w}")
    if len(fam) == 0:
        return DesignCheck(kind, t, ok=False, vacuous=True, detail="empty family")
    return None


def _verdict(kind: str, t: int, expected: Fraction | None, want_witness: bool, count,
             witness, detail: str, ok_detail: str = "") -> DesignCheck:
    """The check of the table `count()`: each cell must hold the target,
    `expected` when integral, else (always when it is None) cell 0.  The
    first cell off target fails it, `witness(cell)` its vector; a
    non-integral expected index with want_witness False fails before
    `count()` runs."""
    integral = expected is not None and expected.denominator == 1
    if expected is not None and not integral and not want_witness:
        return DesignCheck(kind, t, ok=False, expected=expected,
                           detail="forced index non-integral")
    counts = count()
    target = int(expected) if integral else int(counts[0])
    bad = np.flatnonzero(counts != target)
    if bad.size:
        cell = int(bad[0])
        return DesignCheck(kind, t, ok=False, witness=tuple(witness(cell)),
                           witness_count=int(counts[cell]), expected=expected, detail=detail)
    return DesignCheck(kind, t, ok=True, lam=target, expected=expected, detail=ok_detail)


def _counting_rows(fam: BlockFamily):
    """(rows, normalized) for the counting kernel: the orbit
    representatives of the family, or every block.  Over GF(2) each orbit
    is a single block, so a native family's representatives are its
    blocks and the (q-1)^(t-1) = 1 pattern per subset is the only one."""
    reps = fam.scalar_orbits
    if reps is None:
        return fam.blocks, False
    return reps, True


def _count_table(rows: np.ndarray, w: int, t: int, field: GF | None = None,
                 normalized: bool = False) -> np.ndarray:
    """Cell lexrank(S) * P + pattern counts the rows, all of weight w,
    whose support holds S with that pattern on it: supports only with no
    field (P = 1), values over the value at S[0] when normalized
    (P = (q-1)^(t-1)), else all P = (q-1)^t value patterns."""
    B, n = rows.shape
    nsub = math.comb(n, t)
    q1 = 1 if field is None else field.q - 1
    npat = q1 ** (t - normalized)
    cells = nsub * npat
    check_budget("count_table", cells, f"count table of C({n},{t}) x {npat} cells")
    counts = np.zeros(cells, dtype=np.int64)
    # place j of S adds share[j, s_j] and the pattern digit times digit[j];
    # the shares sum to lexrank(S) * P.  Under the budget int32 holds a cell.
    share = np.array([[-math.comb(n - 1 - s, t - j) for s in range(n)]
                      for j in range(t)], dtype=np.int32) * npat
    share[0] += (nsub - 1) * npat
    digit = q1 ** np.arange(t - 1, -1, -1, dtype=np.int32)[:, None, None]
    ncomb = math.comb(w, t)  # <= nsub <= cells, so one row's cells fit a chunk
    rc = max(1, max(_CELL_CHUNK, cells) // max(ncomb, w))
    for a in range(0, B, rc):
        part = rows[a:a + rc]
        # the flat index of each support position, then its column
        pos = np.flatnonzero(part != 0).reshape(len(part), w)
        # the values on the support; a normalized count at t = 1 reads none
        vals = None if field is None or (normalized and t == 1) else part.take(pos).T
        pos -= np.arange(0, len(part) * n, n)[:, None]
        # tab[j, l] is the share of place j at the l-th support position,
        # one contiguous row per (j, l) over the rows of the chunk
        tab = share[:, pos.T]
        if field is not None and not normalized:
            tab += (vals - 1) * digit
        if t == 1:
            flat = tab[0]
        else:
            flat = np.empty((ncomb, len(part)), dtype=np.int32)
            _fill_cells(flat, tab, vals, field if normalized else None, digit)
        counts += np.bincount(flat.ravel(), minlength=cells)
    return counts


def _fill_cells(out, tab, vals, field, digit) -> None:
    """Write sum_j tab[j, l_j] for every t-subset l_0 < ... < l_{t-1} of the
    w support positions into the C(w,t) rows of out, in some order.  With
    a field (normalized mode) place j >= 1 also adds the digit of its value
    over the value at l_0.

    For each l_0 the subsets are built place by place over the places
    after l_0, numbered from 0.  Level j holds the j-subsets of them, each
    one row of partial sums, ordered by their last place, so the (j-1)-
    subsets whose last place is below l are the first C(l, j-1) rows of
    level j-1; appending place l to them adds one row of tab to that
    prefix.  The last level is written straight into out.
    """
    t, w, _ = tab.shape
    binom = [[math.comb(a, b) for b in range(t)] for a in range(w)]
    o = 0
    for l0 in range(w - t + 1):
        later = tab[1:, l0 + 1:]
        if field is not None:
            later = later + (field.div_np(vals[l0 + 1:], vals[l0]) - 1) * digit[1:]
        span = w - 1 - l0  # places after l0
        lev = tab[0, l0][None]
        for j in range(1, t):
            hi = span - (t - 1 - j)  # leave room for the places still to come
            new = out[o:o + binom[hi][j]] if j == t - 1 else np.empty(
                (binom[hi][j], lev.shape[1]), dtype=np.int32)
            b = 0
            for l in range(j - 1, hi):
                k = binom[l][j - 1]
                np.add(lev[:k], later[j - 1, l], out=new[b:b + k])
                b += k
            lev = new
        o += len(lev)


def _unrank(cell: int, n: int, t: int, q: int, npat: int) -> list[int]:
    """The weight-t vector of a count-table cell with npat patterns per
    subset: values on S, S[0] first, with S of that lexicographic rank."""
    rank, pat = divmod(cell, npat)
    vec, s = [0] * n, 0
    for j in range(t):
        while math.comb(n - 1 - s, t - 1 - j) <= rank:
            rank -= math.comb(n - 1 - s, t - 1 - j)
            s += 1
        vec[s] = pat // (q - 1) ** (t - 1 - j) % (q - 1) + 1
        s += 1
    return vec


def _distinct_supports(fam: BlockFamily):
    """(a counting row per distinct support, the blocks sharing it) in packed
    order; a counting row stands for len(fam) / len(rows) blocks, and an
    empty family has no rows and no counts."""
    rows = _counting_rows(fam)[0]
    _, first, counts = np.unique(_support_keys(rows), return_index=True, return_counts=True)
    return rows[first], counts * (len(fam) // max(len(rows), 1))


def classical_design_index(fam: BlockFamily, t: int, distinct: bool = True,
                           want_witness: bool = True) -> DesignCheck:
    """Check whether block supports form a classical t-design.

    distinct=True counts the deduplicated support set (the support design
    of a code); distinct=False counts the support multiset.  The witness
    is the first deviant t-subset in colex order.
    """
    if (vacuous := _vacuous("classical", fam, t)) is not None:
        return vacuous
    n, w, q = fam.n, fam.w, fam.field.q
    rows = fam.distinct_supports[0] if distinct else _counting_rows(fam)[0]
    m = 1 if distinct else len(fam) // len(rows)
    def witness(cell):
        vec = _unrank(math.comb(n, t) - 1 - cell, n, t, q, 1)
        return sorted(n - 1 - s for s in range(n) if vec[s])
    # lex order of the reflected subsets {n-1-s}, reversed, is colex order
    return _verdict("classical", t, expected_index(len(rows) * m, t, n, w, q, qary=False),
                    want_witness, lambda: _count_table(rows[:, ::-1], w, t)[::-1] * m, witness,
                    "deviant containment count" + ("" if distinct else " (multiset)"),
                    "" if distinct else "multiset")


def is_complete_support_design(fam: BlockFamily) -> bool:
    """True iff the distinct supports are all w-subsets of the points."""
    return len(fam.distinct_supports[0]) == math.comb(fam.n, fam.w)


@dataclass
class StrengthReport:
    t_qary: int
    t_classical: int
    qary_table: dict = dc_field(default_factory=dict)
    classical_table: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return {
            "t_qary": self.t_qary, "t_classical": self.t_classical,
            "qary": {str(t): c.to_dict() for t, c in sorted(self.qary_table.items())},
            "classical": {str(t): c.to_dict() for t, c in sorted(self.classical_table.items())},
        }


def max_strengths(fam: BlockFamily, want_witness: bool = False,
                  t_cap: int | None = None) -> StrengthReport:
    """Largest verified strengths, scanning t upward until the first failure."""
    cap = fam.w if t_cap is None else min(t_cap, fam.w)
    rep = StrengthReport(0, 0)
    for t in range(1, cap + 1):
        chk = qary_design_index(fam, t, want_witness=want_witness)
        rep.qary_table[t] = chk
        if not chk.ok:
            break
        rep.t_qary = t
    for t in range(1, cap + 1):
        chk = classical_design_index(fam, t, want_witness=want_witness)
        rep.classical_table[t] = chk
        if not chk.ok:
            break
        rep.t_classical = t
    return rep


# ---------------------------------------------------------------------------
# index arithmetic

def scaled_index(lam, t: int, i: int, n: int, w: int, q: int, qary: bool = True) -> Fraction:
    """Index at reduced strength i of a (q-ary) t-(n, w, lam) design.

    q-ary: lam * (q-1)^(t-i) * C(n-i, t-i) / C(w-i, t-i); the classical
    variant drops the (q-1) power.
    """
    if not 0 <= i <= t <= w <= n:
        raise ParameterError("need 0 <= i <= t <= w <= n")
    scale = Fraction(math.comb(n - i, t - i), math.comb(w - i, t - i))
    if qary:
        scale *= (q - 1) ** (t - i)
    return Fraction(lam) * scale


def constrained_cover_index(lam, t: int, n: int, w: int, q: int,
                            agree: int, differ: int, zero: int) -> Fraction:
    """Blocks matching a nonzero pattern on `agree` coordinates, nonzero but
    different on `differ`, and zero on `zero` coordinates, for a q-ary
    t-(n, w, lam) design:

        lam * (q-2)^differ * (q-1)^(t-agree-differ)
            * C(n-agree-differ-zero, w-agree-differ) / C(n-t, w-t)
    """
    x, y, z = agree, differ, zero
    if x + y + z > t:
        raise ParameterError("need agree + differ + zero <= t")
    num = math.comb(n - x - y - z, w - x - y)
    den = math.comb(n - t, w - t)
    return Fraction(lam) * (q - 2) ** y * (q - 1) ** (t - x - y) * Fraction(num, den)


def count_constrained(fam: BlockFamily, agree_at: dict[int, int],
                      differ_at: dict[int, int], zero_at) -> int:
    """Direct count of blocks matching an agree/differ/zero constraint."""
    blocks = fam.blocks
    keep = np.ones(len(fam), dtype=bool)
    for pos, val in agree_at.items():
        keep &= blocks[:, pos] == val
    for pos, val in differ_at.items():
        col = blocks[:, pos]
        keep &= (col != 0) & (col != val)
    for pos in zero_at:
        keep &= blocks[:, pos] == 0
    return int(keep.sum())


# ---------------------------------------------------------------------------
# support multiplicity / fixed-coordinate counting

@dataclass
class SupportMultiplicity:
    ok: bool
    distinct: int
    multiplicity: int | None
    witness: tuple | None = None
    witness_count: int | None = None


def support_multiplicity(fam: BlockFamily, expect: int | None = None) -> SupportMultiplicity:
    """Check that every distinct support is shared by equally many blocks.

    expect defaults to q-1, the multiplicity that holds for weights up to
    the repeat bound of the originating code.  An empty family fails with
    no distinct supports, as the design checks call an empty family vacuous.
    """
    if len(fam) == 0:
        return SupportMultiplicity(False, 0, None)
    if expect is None:
        expect = fam.field.q - 1
    rows, counts = fam.distinct_supports
    if (counts == expect).all():
        return SupportMultiplicity(True, len(rows), expect)
    bad = int(np.flatnonzero(counts != expect)[0])
    wit = tuple(int(i) for i in np.flatnonzero(rows[bad] != 0))
    return SupportMultiplicity(False, len(rows), None, witness=wit,
                               witness_count=int(counts[bad]))


def fixed_support_index(fam: BlockFamily, t: int, positions) -> DesignCheck:
    """Cover counts restricted to the (q-1)^t weight-t vectors on one support.

    A constant count certifies a design only when the code's automorphism
    group is known to be t-transitive; callers record that proviso.
    """
    q, n = fam.field.q, fam.n
    S = tuple(positions)
    if len(S) != t or len(set(S)) != t or not all(0 <= p < n for p in S):
        raise ParameterError("positions must be t distinct coordinates")
    if (vacuous := _vacuous("qary", fam, t)) is not None:
        return vacuous
    rows, normalized = _counting_rows(fam)
    sub = rows[:, S]
    npat = (q - 1) ** (t - normalized)
    def witness(cell):
        vals = dict(zip(S, _unrank(cell, t, t, q, npat)))
        return [vals.get(i, 0) for i in range(n)]
    # the projection onto S, in the order of S, of the rows nonzero on all of S
    return _verdict("qary", t, None, True,
                    lambda: _count_table(sub[(sub != 0).all(axis=1)], t, t, fam.field, normalized),
                    witness, "non-constant count on fixed support",
                    "fixed-support count; design conclusion requires t-transitive automorphisms")


# ---------------------------------------------------------------------------
# group divisible designs

@dataclass
class GddInstance:
    """Points [n] x nonzero-symbols; one group per coordinate."""
    n_groups: int
    group_size: int
    t: int
    lam: int
    blocks: list[frozenset]

    @property
    def n_points(self):
        return self.n_groups * self.group_size

    def groups(self):
        g = self.group_size
        return [frozenset(range(i * g, (i + 1) * g)) for i in range(self.n_groups)]


def to_gdd(fam: BlockFamily, t: int, lam: int) -> GddInstance:
    """Convert a q-ary t-(n, w, lam) family to a group divisible design of
    type (q-1)^n: point (i, v) <-> coordinate i holding value v.

    A block holds one point per nonzero coordinate, so it meets each group
    at most once, and t points from t distinct groups are a weight-t
    vector: the GDD has index lam exactly when the family is a q-ary
    t-design of index lam.  `qary_design_index` checks that, and a family
    that is not one raises AssertionError; an empty family is not one, and
    t outside [1, w] is a ParameterError.
    """
    chk = qary_design_index(fam, t, want_witness=False)
    if not (chk.ok and chk.lam == lam):
        raise AssertionError(f"not a q-ary {t}-design of index {lam}: "
                             f"{chk.detail or f'its index is {chk.lam}'}")
    g = fam.field.q - 1
    blocks = [frozenset(int(i) * g + int(v) - 1 for i, v in enumerate(row) if v)
              for row in fam.blocks]
    return GddInstance(fam.n, g, t, lam, blocks)


# ---------------------------------------------------------------------------
# outer distribution and t-regularity

def outer_distribution(C: LinearCode, x) -> np.ndarray:
    """B_{x,i}: number of codewords at Hamming distance i from x."""
    x = _checked_entries(C.field, x, "vector")
    if x.shape != (C.n,):
        raise ParameterError("vector length mismatch")
    return _outer_table(C, x[None])[0]


def _outer_table(C: LinearCode, vectors: np.ndarray) -> np.ndarray:
    """Row i: the outer distribution of vectors[i], all from one codeword
    stream.  A block is compared with about `_CELL_CHUNK` entries of
    vectors at a time, and one bincount of the distances, offset by each
    vector's place, adds their rows; no codeword list is held."""
    L, n = len(vectors), C.n
    table = np.zeros((L, n + 1), dtype=np.int64)
    for _, block in iter_codeword_blocks(C):
        step = max(1, _CELL_CHUNK // block.size)
        for a in range(0, L, step):
            d = (block != vectors[a:a + step, None]).sum(axis=2)
            d += (n + 1) * np.arange(len(d))[:, None]
            cells = np.bincount(d.ravel(), minlength=len(d) * (n + 1))
            table[a:a + step] += cells.reshape(len(d), n + 1)
    return table


@dataclass
class RegularityResult:
    regular: bool
    t: int
    exhaustive: bool
    witness: tuple | None = None
    detail: str = ""


def is_t_regular(C: LinearCode, t: int) -> RegularityResult:
    """Whether the outer-distribution row depends only on d(x, C) over all
    x with d(x, C) <= t.

    B_x is constant on cosets, so the scan runs the coset leaders of
    `linear.coset_representatives` (d(x, C) is a leader's row weight),
    and one codeword stream fills every leader's row at once
    (`_outer_table`).  It is always exhaustive: a syndrome space or
    codeword stream over budget raises CapacityError naming the budget
    (`syndromes` or `codewords`), the syndrome space first.
    """
    leaders = coset_representatives(C, t)
    table = _outer_table(C, leaders)
    rows_by_d: dict[int, np.ndarray] = {}
    for w, vec, row in zip(_block_weights(leaders), leaders, table):
        if not np.array_equal(rows_by_d.setdefault(int(w), row), row):
            return RegularityResult(False, t, True,
                                    witness=tuple(int(v) for v in vec),
                                    detail=f"rows differ at distance {w}")
    return RegularityResult(True, t, True)


# ---------------------------------------------------------------------------
# block family text format and reports

def save_family(fam: BlockFamily, path) -> None:
    """Text format: first line 'q n w B', then B rows of n element indices."""
    _write_matrix(path, (fam.field.q, fam.n, fam.w, len(fam)), fam.blocks)


def load_family(path) -> BlockFamily:
    """The family of a file in the `save_family` format.  The blocks of a
    saved native family are listed, so it is read back native."""
    (q, n, w, _), rows = _read_matrix(path, "q n w B")
    return BlockFamily(field_make(q), n, w, rows)


def design_report(fam: BlockFamily, checks: list[DesignCheck],
                  strengths: StrengthReport | None = None,
                  provisos: list[str] | None = None) -> dict:
    out = {
        "family": {"n": fam.n, "q": fam.field.q, "w": fam.w,
                   "blocks": len(fam), "source": fam.source},
        "checks": [c.to_dict() for c in checks],
        "provisos": provisos or [],
    }
    if strengths is not None:
        out["strengths"] = strengths.to_dict()
    return out
