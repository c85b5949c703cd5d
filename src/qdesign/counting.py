"""Subset counting and elementary-symmetric-polynomial block sets.

Exact counts of fixed-size subsets of Z_n with a prescribed sum (and,
through discrete logs, subsets of the multiplicative group with a
prescribed product), plus the enumeration of k-subsets of the norm-one
group U of a quadratic extension whose degree-l elementary symmetric
polynomial vanishes -- either of the subset itself or of some translate
B - a with a in B.

Elementary symmetric polynomials (ESPs) have one recurrence: the
coefficients of prod (x + u_i), updated one element at a time.  `esp`
runs it on one multiset and is the oracle of `block_sets_bruteforce`;
`esp_np` runs it on every row of an element matrix at once and is the
kernel of the block sets here and of the trace-code families in `zoo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .designs import BlockFamily, _subsets
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


def esp_value(field: GF, elements, degree: int) -> int:
    return esp(field, elements, degree)[degree]


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


def subset_product_count_bruteforce(field: GF, k: int, c: int) -> int:
    if c == 0:
        raise ParameterError("target product must be nonzero")
    count = 0
    for S in combinations(range(1, field.q), k):
        prod = 1
        for v in S:
            prod = field.mul(prod, v)
        if prod == c:
            count += 1
    return count


def subset_product_constancy(field: GF, k: int) -> tuple[bool, dict[int, int]]:
    """Whether N(k, c) is the same for every nonzero c; returns the table."""
    table = {c: subset_product_count(field, k, c) for c in range(1, field.q)}
    vals = set(table.values())
    return len(vals) == 1, table


# ---------------------------------------------------------------------------
# block sets over the norm-one group

def _combo_matrix(n: int, k: int) -> np.ndarray:
    check_budget("subsets", math.comb(n, k), f"C({n},{k}) subsets")
    return _subsets(n, k)


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


def esp_zero_blocks(ext: QuadExt, k: int, l: int) -> BlockSets:
    """All k-subsets B of the norm-one group with sigma_l(B) = 0."""
    q = ext.base.q
    U = np.array(ext.norm_one_group(), dtype=np.int32)
    combos = _combo_matrix(q + 1, k)
    elems = U[combos]
    keep = esp_np(ext.top, elems, l)[l] == 0
    return BlockSets(q, k, l, "plain", combos[keep].astype(np.int16), None)


def shifted_esp_zero_blocks(ext: QuadExt, k: int, l: int) -> BlockSets:
    """All k-subsets B of the norm-one group with sigma_l(B - a) = 0 for
    some a in B; base_counts records how many a work per block."""
    top = ext.top
    q = ext.base.q
    U = np.array(ext.norm_one_group(), dtype=np.int32)
    combos = _combo_matrix(q + 1, k)
    elems = U[combos]
    n_rows = combos.shape[0]
    p = top.p

    base_mask = np.zeros((n_rows, k), dtype=bool)
    for j in range(k):
        a = elems[:, j]
        # sigma_i of the deleted set, i = 0..l
        sigs = esp_np(top, np.delete(elems, j, axis=1), l)
        # sigma_l of {u - a}: binomial shift of the deleted-set polynomials
        shifted = np.zeros(n_rows, dtype=np.int32)
        for i in range(l + 1):
            coeff = ((-1) ** (l - i) * math.comb(k - 1 - i, l - i)) % p
            if coeff == 0:
                continue
            term = top.mul_np(_pow_np(top, a, l - i), sigs[i])
            if coeff != 1:
                term = top.mul_scalar_np(coeff, term)
            shifted = top.add_np(shifted, term)
        base_mask[:, j] = shifted == 0
    base_count = base_mask.sum(axis=1).astype(np.int16)
    keep = base_count > 0
    return BlockSets(q, k, l, "shifted", combos[keep].astype(np.int16),
                     base_count[keep], base_mask[keep])


def _pow_np(field: GF, x: np.ndarray, e: int) -> np.ndarray:
    if e == 0:
        return np.ones_like(x, dtype=np.int32)
    out = field._exp_np[(field._log_np[x].astype(np.int64) * e) % (field.q - 1)]
    return np.where(x == 0, 0, out).astype(np.int32)


def block_sets(ext: QuadExt, k: int, l: int, variant: str = "plain") -> BlockSets:
    if variant == "plain":
        return esp_zero_blocks(ext, k, l)
    if variant == "shifted":
        return shifted_esp_zero_blocks(ext, k, l)
    raise ParameterError(f"unknown variant {variant!r}")


def block_sets_bruteforce(ext: QuadExt, k: int, l: int, variant: str = "plain"):
    """Direct per-subset oracle (small q only)."""
    top = ext.top
    U = ext.norm_one_group()
    out = []
    for S in combinations(range(len(U)), k):
        elems = [U[i] for i in S]
        if variant == "plain":
            if esp_value(top, elems, l) == 0:
                out.append(S)
        else:
            hits = 0
            for a in elems:
                shifted = [top.sub(u, a) for u in elems]
                if esp_value(top, shifted, l) == 0:
                    hits += 1
            if hits:
                out.append((S, hits))
    return out


def blocks_as_family(bs: BlockSets) -> BlockFamily:
    """Characteristic vectors over GF(2) on U's index set, for reuse of the
    classical design checker."""
    n = bs.q + 1
    rows = np.zeros((len(bs), n), dtype=np.int32)
    rows[np.arange(len(bs))[:, None], bs.positions.astype(np.int64)] = 1
    return BlockFamily(field_make(2), n, bs.k, rows,
                       source=f"esp-zero blocks k={bs.k} l={bs.l} ({bs.variant})")
