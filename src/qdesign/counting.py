"""Subset counting and elementary-symmetric-polynomial block sets.

Exact counts of fixed-size subsets of Z_n with a prescribed sum (and,
through discrete logs, subsets of the multiplicative group with a
prescribed product), plus the enumeration of k-subsets of the norm-one
group U of a quadratic extension whose degree-l elementary symmetric
polynomial vanishes -- either of the subset itself or of some translate
B - a with a in B.

Elementary symmetric polynomials (ESPs) have one recurrence: the
coefficients of prod (x + u_i), updated one element at a time.  `esp`
runs it on one multiset; `esp_np` runs it on every row of an element
matrix at once, for the blocks whose sigmas the trace-code families in
`zoo` need.  The block sets run it over the subset tree instead, one
level per subset size in colex order: the j-subsets with largest element
m are the (j-1)-subsets below m with u_m appended, so each update is a
contiguous slice of the level before plus one take from the row of
multiples of the scalar u_m, and no subset is listed as a row of
elements.  The colex ranks kept are unranked and sorted lexicographically
at the end.  The translated variant sweeps to size k-1 only: B - a holds
0, so sigma_l(B - a) = sigma_l(D - a) with D = B minus a, a binomial
shift of the sigmas of D whose coefficients are scalars for each point a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .designs import BlockFamily
from .errors import ParameterError, check_budget
from .fields import GF, QuadExt, factorize, field_make


def moebius(n: int) -> int:
    if n < 1:
        raise ParameterError("moebius needs n >= 1")
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def esp(field: GF, elements, degree: int):
    """Elementary symmetric polynomials sigma_0..sigma_degree of a multiset.

    Computed as the leading coefficients of prod (x + u_i), updated one
    element at a time.
    """
    elements = list(elements)
    if not 0 <= degree <= len(elements):
        raise ParameterError("degree out of range")
    sig = [1] + [0] * degree
    for u in elements:
        for j in range(degree, 0, -1):
            sig[j] = field.add(sig[j], field.mul(int(u), sig[j - 1]))
    return sig


def esp_np(field: GF, elems: np.ndarray, degree: int) -> np.ndarray:
    """sigma_0..sigma_degree of every row of an (N x k) element matrix, as a
    (degree + 1) x N int32 array: the recurrence of `esp`, run on all rows
    at once.  After i elements sigma_j vanishes for j > i, so those
    updates are skipped (and rows past sigma_k stay zero); sigma_0 = 1, so
    the update of sigma_1 is an addition."""
    n_rows, k = elems.shape
    if degree < 0:
        raise ParameterError("degree out of range")
    sig = np.zeros((degree + 1, n_rows), dtype=np.int32)
    sig[0] = 1
    for i in range(k):
        u = elems[:, i]
        for j in range(min(degree, i + 1), 0, -1):
            term = u if j == 1 else field.mul_np(u, sig[j - 1])
            sig[j] = field.add_np(sig[j], term)
    return sig


# ---------------------------------------------------------------------------
# subset sums in Z_n and subset products in GF(q)*

def subset_sum_count(n: int, k: int, target: int) -> int:
    """Number of k-subsets of Z_n whose elements sum to target.

    (1/n) * sum over r | gcd(n,k) of (-1)^(k + k/r) C(n/r, k/r) C_r(b),
    with C_r(b) = sum over d | gcd(r,b) of mu(r/d) d and gcd(r, 0) = r.
    """
    if not 0 <= k <= n:
        raise ParameterError("need 0 <= k <= n")
    b = target % n
    if k == 0:
        return 1 if b == 0 else 0
    total = 0
    for r in _divisors(math.gcd(n, k)):
        g = r if b == 0 else math.gcd(r, b)
        c_r = sum(moebius(r // d) * d for d in _divisors(g))
        total += (-1) ** (k + k // r) * math.comb(n // r, k // r) * c_r
    q, rem = divmod(total, n)
    if rem:
        raise AssertionError("subset-sum formula did not divide evenly")
    return q


def subset_sum_counts_bruteforce(n: int, k: int) -> list[int]:
    """Number of k-subsets of Z_n with each sum b = 0..n-1, from one pass
    over the C(n, k) subsets."""
    counts = [0] * n
    for S in combinations(range(n), k):
        counts[sum(S) % n] += 1
    return counts


def subset_sum_count_bruteforce(n: int, k: int, target: int) -> int:
    b = target % n
    return sum(1 for S in combinations(range(n), k) if sum(S) % n == b)


def subset_product_count(field: GF, k: int, c: int) -> int:
    """Number of k-subsets of GF(q)* whose elements multiply to c != 0.

    Discrete logs turn products into sums in Z_{q-1}.  When gcd(k, q-1) = 1
    the count is C(q-1, k)/(q-1), independent of c.
    """
    if c == 0:
        raise ParameterError("target product must be nonzero")
    n = field.q - 1
    return subset_sum_count(n, k, field.dlog(c))


def subset_product_constancy(field: GF, k: int) -> tuple[bool, dict[int, int]]:
    """Whether N(k, c) is the same for every nonzero c; returns the table."""
    table = {c: subset_product_count(field, k, c) for c in range(1, field.q)}
    vals = set(table.values())
    return len(vals) == 1, table


# ---------------------------------------------------------------------------
# block sets over the norm-one group

@dataclass
class BlockSets:
    """k-subsets of U (as position tuples into the power listing of U)."""
    q: int
    k: int
    l: int
    variant: str
    positions: np.ndarray           # (N x k) indices into U
    base_counts: np.ndarray | None  # shifted variant: number of valid bases
    base_mask: np.ndarray | None = None  # shifted variant: (N x k) base flags

    def __len__(self):
        return self.positions.shape[0]


def _esp_sweep(field: GF, U: np.ndarray, k: int, lo: int, hi: int) -> dict[int, np.ndarray]:
    """{i: sigma_i of every k-subset of the elements U, in colex order} for
    1 <= lo <= i <= hi <= k (sigma_0 = 1 is left out).

    Level j of the subset tree holds the j-subsets in colex order, each one
    column of sigmas.  The j-subsets with largest element m are the first
    C(m, j-1) columns of level j-1 with u_m appended, so each update
    sigma_i += u_m sigma_(i-1) is one contiguous slice plus one take from
    the row of multiples of u_m.  Below level k a level stops at the
    largest element that leaves room for the rest of the subset, and keeps
    only the degrees that reach lo..hi at level k.
    """
    n = len(U)
    rows = field.multiples(U).astype(np.intp)
    lev: dict = {}
    for j in range(1, k + 1):
        last = n - 1 - (k - j)
        degrees = range(max(1, lo - (k - j)), min(j, hi) + 1)
        new = {i: np.empty(math.comb(last + 1, j), dtype=np.intp) for i in degrees}
        for m in range(j - 1, last + 1):
            c, o = math.comb(m, j - 1), math.comb(m, j)
            for i in degrees:
                dst = new[i][o:o + c]
                if i == 1:
                    dst[...] = U[m]
                else:
                    np.take(rows[m], lev[i - 1][:c], out=dst)
                if i < j:
                    dst[...] = field.add_np(lev[i][:c], dst)
        lev = new
    return lev


def _colex_unrank(ranks: np.ndarray, n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) with these colex ranks, one sorted row each."""
    out = np.empty((len(ranks), k), dtype=np.int16)
    r = np.array(ranks, dtype=np.int64)
    for j in range(k, 0, -1):
        col = np.array([math.comb(b, j) for b in range(n)], dtype=np.int64)
        b = np.searchsorted(col, r, side="right") - 1
        out[:, j - 1] = b
        r -= col[b]
    return out


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """The order that sorts subset rows lexicographically."""
    return np.lexsort(rows.T[::-1])


def _block_args(ext: QuadExt, k: int, l: int):
    """(q, U) after the parameter and budget checks of a block-set call;
    U is None when no k-subset qualifies (sigma_0 = 1, or k > q + 1)."""
    if not 0 <= l <= k:
        raise ParameterError("degree out of range")
    q = ext.base.q
    check_budget("subsets", math.comb(q + 1, k), f"C({q + 1},{k}) subsets")
    if l == 0 or k > q + 1:
        return q, None
    return q, ext.norm_one_np


def esp_zero_blocks(ext: QuadExt, k: int, l: int) -> BlockSets:
    """All k-subsets B of the norm-one group with sigma_l(B) = 0, in
    lexicographic order."""
    q, U = _block_args(ext, k, l)
    if U is None:
        return BlockSets(q, k, l, "plain", np.zeros((0, k), dtype=np.int16), None)
    ranks = np.flatnonzero(_esp_sweep(ext.top, U, k, l, l)[l] == 0)
    rows = _colex_unrank(ranks, q + 1, k)
    return BlockSets(q, k, l, "plain", rows[_lex_order(rows)], None)


def shifted_esp_zero_blocks(ext: QuadExt, k: int, l: int) -> BlockSets:
    """All k-subsets B of the norm-one group with sigma_l(B - a) = 0 for
    some a in B, in lexicographic order; base_counts records how many a
    work per block and base_mask which.

    One sweep gives the sigmas of every (k-1)-subset D; for each point a
    of U the shift to sigma_l(D - a) is one take per degree, and a zero
    with a outside D is the block D + a with base a.
    """
    top = ext.top
    q, U = _block_args(ext, k, l)
    if U is None:
        return BlockSets(q, k, l, "shifted", np.zeros((0, k), dtype=np.int16),
                         np.zeros(0, dtype=np.int16), np.zeros((0, k), dtype=bool))
    n, deg = q + 1, min(l, k - 1)
    sig = _esp_sweep(top, U, k - 1, 1, deg)
    # sigma_l(D - a) = sum_i (-a)^(l-i) C(k-1-i, l-i) sigma_i(D), sigma_0 = 1
    shifted = np.zeros((n, math.comb(n, k - 1)), dtype=np.int32)
    for i in range(deg + 1):
        coeff = (-1) ** (l - i) * math.comb(k - 1 - i, l - i) % top.p
        if coeff == 0:
            continue
        scal = [top.mul(coeff, top.pow(int(a), l - i)) for a in U]
        if i == 0:
            term = np.array(scal, dtype=np.int32)[:, None]
        else:
            tab = top.multiples(scal)
            term = np.take(tab, sig[i], axis=1)
        shifted = top.add_np(shifted, term)
    base, d = np.nonzero(shifted == 0)
    rest = _colex_unrank(d, n, k - 1)
    outside = (rest != base[:, None]).all(axis=1)
    rest, base = rest[outside], base[outside]
    blocks = np.sort(np.column_stack([rest, base]), axis=1).astype(np.int16)
    binom = np.array([[math.comb(b, j + 1) for j in range(k)] for b in range(n)],
                     dtype=np.int64)
    colex = binom[blocks, np.arange(k)].sum(axis=1)
    _, first, inv, counts = np.unique(colex, return_index=True, return_inverse=True,
                                      return_counts=True)
    base_mask = np.zeros((len(first), k), dtype=bool)
    base_mask[inv, (rest < base[:, None]).sum(axis=1)] = True
    rows = blocks[first]
    order = _lex_order(rows)
    return BlockSets(q, k, l, "shifted", rows[order], counts[order].astype(np.int16),
                     base_mask[order])


def block_sets(ext: QuadExt, k: int, l: int, variant: str = "plain") -> BlockSets:
    if variant == "plain":
        return esp_zero_blocks(ext, k, l)
    if variant == "shifted":
        return shifted_esp_zero_blocks(ext, k, l)
    raise ParameterError(f"unknown variant {variant!r}")


def blocks_as_family(bs: BlockSets) -> BlockFamily:
    """Characteristic vectors over GF(2) on U's index set, for reuse of the
    classical design checker."""
    n = bs.q + 1
    rows = np.zeros((len(bs), n), dtype=np.int32)
    rows[np.arange(len(bs))[:, None], bs.positions.astype(np.int64)] = 1
    return BlockFamily(field_make(2), n, bs.k, rows,
                       source=f"esp-zero blocks k={bs.k} l={bs.l} ({bs.variant})")
