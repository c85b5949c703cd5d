"""Deterministic constructors for the code families under study.

Every constructor fixes a canonical generator matrix (projective point
orderings, conference-matrix layout, evaluation order, trace basis) so
codes are bit-identical across runs, and carries an expected-parameter
record that the tests check against computed profiles.  Transitivity
flags record externally asserted automorphism facts; nothing here
computes automorphism groups, and fixed-coordinate design conclusions
are only valid under those assertions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import BlockSets, esp_np, esp_zero_blocks, shifted_esp_zero_blocks
from .designs import BlockFamily, family_from_code
from .errors import ParameterError, check_budget
from .fields import QuadExt, field_make, quadratic_extension, _digits, _pmod
from .linear import LinearCode, code_from_generator, dual


# ---------------------------------------------------------------------------
# classical families

def simplex_code(q: int, m: int) -> LinearCode:
    """One generator column per point of PG(m-1, q), first-nonzero normalized,
    in index order: the [(q^m - 1)/(q - 1), m, q^(m-1)] one-weight code."""
    if m < 2:
        raise ParameterError("need m >= 2")
    field = field_make(q)
    n = (q ** m - 1) // (q - 1)
    check_budget("simplex_length", n, f"simplex({q},{m}) length")
    cols = []
    for idx in range(1, q ** m):
        vec = _digits(idx, q, m)
        lead = next(v for v in vec if v)
        if lead == 1:
            cols.append(vec)
    gen = np.array(cols, dtype=np.int32).T
    return code_from_generator(field, gen, label=f"simplex({q},{m})")


def hamming_code(q: int, m: int) -> LinearCode:
    C = dual(simplex_code(q, m))
    C.label = f"hamming({q},{m})"
    return C


def reed_solomon_code(q: int, k: int) -> LinearCode:
    """Polynomials of degree < k evaluated at 1, a, a^2, ..., a^(q-2)."""
    if not 1 <= k <= q - 1:
        raise ParameterError("need 1 <= k <= q-1")
    field = field_make(q)
    gen = np.zeros((k, q - 1), dtype=np.int32)
    for i in range(k):
        for j in range(q - 1):
            gen[i, j] = field.exp(j * i)
    return code_from_generator(field, gen, label=f"rs({q},{k})")


def doubly_extended_rs_code(q: int, k: int) -> LinearCode:
    """Evaluations at 0, 1, a, ..., a^(q-2) and at infinity (the x^(k-1)
    coefficient): the [q+1, k, q-k+2] MDS code."""
    if not 1 <= k <= q + 1:
        raise ParameterError("need 1 <= k <= q+1")
    field = field_make(q)
    gen = np.zeros((k, q + 1), dtype=np.int32)
    for i in range(k):
        gen[i, 0] = 1 if i == 0 else 0
        for j in range(q - 1):
            gen[i, 1 + j] = field.exp(j * i)
        gen[i, q] = 1 if i == k - 1 else 0
    return code_from_generator(field, gen, label=f"drs({q},{k})")


def ternary_golay_code() -> LinearCode:
    """Cyclic [11, 6, 5] code over GF(3): rows are shifts of the smallest
    degree-5 divisor of x^11 - 1."""
    p, n, deg = 3, 11, 5
    target = [p - 1] + [0] * (n - 1) + [1]  # x^11 - 1
    gpoly = None
    for enc in range(p ** deg):
        g = _digits(enc, p, deg) + [1]
        if g[0] == 0:
            continue
        if _pmod(target, g, p) == [0]:
            gpoly = g
            break
    assert gpoly is not None
    rows = [[0] * i + gpoly + [0] * (n - deg - 1 - i) for i in range(n - deg)]
    return code_from_generator(field_make(3), rows, label="ternary-golay")


def golay_dual_code() -> LinearCode:
    """The [11, 5, 6] two-weight dual of the ternary Golay code."""
    C = dual(ternary_golay_code())
    C.label = "rt6"
    return C


def pless_symmetry_code(n: int) -> LinearCode:
    """[I | S] over GF(3) with S the Paley conference matrix of order p+1,
    p = n/2 - 1 prime: the self-dual symmetry code of length n."""
    if n not in (12, 24):
        raise ParameterError("supported lengths: 12, 24")
    p = n // 2 - 1
    chi = [0] * p
    for x in range(1, p):
        chi[(x * x) % p] = 1
    chi = [0] + [1 if chi[x] else -1 for x in range(1, p)]  # Legendre symbol
    size = p + 1
    S = np.zeros((size, size), dtype=np.int64)
    S[0, 0] = 0
    S[0, 1:] = 1
    for a in range(p):
        S[1 + a, 0] = chi[(p - 1) % p]  # chi(-1)
        for b in range(p):
            S[1 + a, 1 + b] = chi[(b - a) % p]
    gen = np.concatenate([np.eye(size, dtype=np.int64), S % 3], axis=1)
    return code_from_generator(field_make(3), gen, label=f"pless({n})")


def hyperoval_code(q: int) -> LinearCode:
    """Columns (1, t, t^2) for t in GF(q) plus (0,1,0) and (0,0,1): the
    two-weight [q+2, 3, q] code from a regular hyperoval (q even)."""
    field = field_make(q)
    if field.p != 2 or q <= 2:
        raise ParameterError("need even q > 2")
    cols = [[1, t, field.mul(t, t)] for t in range(q)]
    cols += [[0, 1, 0], [0, 0, 1]]
    gen = np.array(cols, dtype=np.int32).T
    return code_from_generator(field, gen, label=f"tf1({q})")


def _irreducible_binary_quadratic(field) -> tuple[int, int]:
    """Smallest (b, c) with t^2 + b t + c root-free over GF(q)."""
    for b in range(field.q):
        for c in range(1, field.q):
            if all(field.add(field.add(field.mul(t, t), field.mul(b, t)), c)
                   for t in range(field.q)):
                return b, c
    raise AssertionError("no irreducible quadratic found")


def ovoid_code(q: int) -> LinearCode:
    """Columns on an elliptic quadric of PG(3, q): the two-weight
    [q^2+1, 4, q^2-q] code (q >= 4)."""
    if q < 4:
        raise ParameterError("need q >= 4")
    field = field_make(q)
    b, c = _irreducible_binary_quadratic(field)
    cols = []
    for i in range(q * q):
        y, z = i % q, i // q
        f = field.add(field.add(field.mul(y, y), field.mul(field.mul(b, y), z)),
                      field.mul(c, field.mul(z, z)))
        cols.append([1, field.neg(f), y, z])
    cols.append([0, 1, 0, 0])
    gen = np.array(cols, dtype=np.int32).T
    return code_from_generator(field, gen, label=f"tf3({q})")


# ---------------------------------------------------------------------------
# the trace code with exponent set {1, 2, 3}

def _trace_extension(m: int) -> QuadExt:
    """GF(q^2) for trace123(m), q = 2^m: its [q+1, 6] code needs m >= 3."""
    if m < 3:
        raise ParameterError(f"trace123 needs m >= 3 (length 2^m + 1 >= 6), got m = {m}")
    return quadratic_extension(2 ** m)


def trace_exponent_code(m: int) -> LinearCode:
    """Length q+1 code over GF(q), q = 2^m, whose coordinates are
    Tr(a g^i + b g^(2i) + c g^(3i)) for i = 0..q, g generating the
    norm-one group of GF(q^2); rows come from the basis
    {1, alpha} x {first, second, third exponent slot}."""
    ext = _trace_extension(m)
    alpha = ext.top.generator
    basis = np.array([(1, 0, 0), (alpha, 0, 0), (0, 1, 0), (0, alpha, 0),
                      (0, 0, 1), (0, 0, alpha)])
    return code_from_generator(ext.base, _trace_columns(ext, *basis.T), label=f"trace123({m})")


@dataclass
class TraceFamily:
    """A parametrized low-weight class of the exponent-{1,2,3} trace code.

    Each word is the one of parameter triple (sigma_2, sigma_1, 1)/sqrt(sigma_6)
    of a 6-multiset M of the norm-one group with sigma_3(M) = 0: a zero-set
    block at weight q-5, a 5-point block with its base point twice at q-4.
    It is checked to vanish exactly on its block, so counts are certified
    lower bounds; equality with the full weight class holds under the
    zero-set classification assertion.
    """
    family: BlockFamily
    zero_sets: BlockSets
    w: int
    base_words: int


def _trace_columns(ext: QuadExt, a, b, c) -> np.ndarray:
    """Codeword matrix (rows = parameter triples, q+1 trace coordinates).

    The trace is additive and GF(q) adds by XOR, so coordinate i is
    Tr(g^i a) ^ Tr(g^(2i) b) ^ Tr(g^(3i) c), g = gamma^(q-1) of order q+1:
    three byte gathers from the tables of Tr(g^(k i) x) over every x in
    GF(q^2), k = 1, 2, 3.  As g has order q + 1, every g^(k i) is one of
    the norm-one elements g^0, ..., g^q, so one table of the traces of their
    multiples, in the element dtype, holds them all: g^(k i) is row k i mod (q + 1).
    """
    top, q = ext.top, ext.base.q
    trace = ext.trace_np.astype(ext.base.np_dtype)
    tabs = np.empty((q + 1, top.q), dtype=trace.dtype)
    for row, g in zip(tabs, ext.norm_one_np):
        trace.take(top.multiples(g), out=row)
    idx = [np.asarray(v).astype(np.intp) for v in (a, b, c)]
    out = np.empty((len(idx[0]), q + 1), dtype=ext.base.np_dtype)
    for i in range(q + 1):
        col = tabs[i].take(idx[0])
        col ^= tabs[2 * i % (q + 1)].take(idx[1])
        col ^= tabs[3 * i % (q + 1)].take(idx[2])
        out[:, i] = col
    return out


def _trace_family(m: int, w: int, zero_sets: BlockSets, zeros: np.ndarray,
                  roots: np.ndarray) -> TraceFamily:
    """Weight-w family of the words of the 6-multisets M in `roots` (rows of
    positions into U), each checked to vanish exactly on its row of `zeros`.
    As u^q = 1/u on U, u^3 Tr(a u + b u^2 + c u^3) = c prod (u + r), r in M,
    for (a, b, c) = (sigma_2, sigma_1, 1)/sqrt(sigma_6) of M when sigma_3(M) = 0."""
    ext = quadratic_extension(2 ** m)
    top = ext.top
    sig = esp_np(top, ext.norm_one_np[roots], 6)
    inv = top.inv_np(ext.sqrt_np[sig[6]])
    words = _trace_columns(ext, top.mul_np(sig[2], inv), top.mul_np(sig[1], inv), inv)
    zero = np.zeros(words.shape, dtype=bool)
    np.put_along_axis(zero, zeros.astype(np.intp), True, axis=1)
    if not np.array_equal(words == 0, zero):
        raise AssertionError("reconstructed codeword does not vanish exactly on its block")
    fam = BlockFamily.from_orbits(ext.base, ext.base.q + 1, w, words,
                                  source=f"trace123({m}):w={w} (zero-set parametrization)")
    return TraceFamily(fam, zero_sets, w, len(words))


def trace_min_weight_family(m: int) -> TraceFamily:
    """Weight q-5 codewords: one per (zero-set block, nonzero scalar); each
    6-point block B with sigma_3(B) = 0 is its own multiset."""
    bs = esp_zero_blocks(_trace_extension(m), 6, 3)
    return _trace_family(m, 2 ** m - 5, bs, bs.positions, bs.positions)


def trace_next_weight_family(m: int) -> TraceFamily:
    """Weight q-4 codewords: one per (block, base point, nonzero scalar).

    A 5-point block B with sigma_3(B - a) = 0, a in B, gives the multiset
    B + {a}: in characteristic 2 that condition is sigma_3(D) + a^2 sigma_1(D)
    = 0, D = B minus a, which is sigma_3 of D + {a, a} as (x + a)^2 = x^2 + a^2,
    so a is a double root.  Pairs go base column by base column, as `blocks` do.
    """
    bs = shifted_esp_zero_blocks(_trace_extension(m), 5, 3)
    j, rows = np.nonzero(bs.base_mask.T)
    zeros = bs.positions[rows]
    roots = np.column_stack([zeros, zeros[np.arange(len(rows)), j]])
    return _trace_family(m, 2 ** m - 4, bs, zeros, roots)


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class ZooEntry:
    key: str
    builder: object
    params: tuple[str, ...]
    transitivity: int | None
    summary: str
    family_builder: object = None  # (w, **params) -> BlockFamily, when special


def _trace_family_dispatch(w: int, m: int) -> BlockFamily:
    q = 2 ** m
    if w == q - 5:
        return trace_min_weight_family(m).family
    if w == q - 4:
        return trace_next_weight_family(m).family
    return family_from_code(trace_exponent_code(m), w)


ZOO: dict[str, ZooEntry] = {
    "simplex": ZooEntry("simplex", simplex_code, ("q", "m"), None,
                        "one-weight projective code [(q^m-1)/(q-1), m]"),
    "hamming": ZooEntry("hamming", hamming_code, ("q", "m"), None,
                        "perfect [n, n-m, 3] code, dual of simplex"),
    "rs": ZooEntry("rs", reed_solomon_code, ("q", "k"), None,
                   "Reed-Solomon [q-1, k, q-k] evaluation code"),
    "drs": ZooEntry("drs", doubly_extended_rs_code, ("q", "k"), 3,
                    "doubly-extended Reed-Solomon [q+1, k, q-k+2] MDS code"),
    "ternary-golay": ZooEntry("ternary-golay", ternary_golay_code, (), None,
                              "perfect [11, 6, 5] cyclic code over GF(3)"),
    "rt6": ZooEntry("rt6", golay_dual_code, (), None,
                    "two-weight [11, 5, 6] dual of the ternary Golay code"),
    "pless": ZooEntry("pless", pless_symmetry_code, ("n",), None,
                      "self-dual ternary symmetry code, n in {12, 24}"),
    "tf1": ZooEntry("tf1", hyperoval_code, ("q",), None,
                    "two-weight [q+2, 3, q] hyperoval code, q even"),
    "tf3": ZooEntry("tf3", ovoid_code, ("q",), None,
                    "two-weight [q^2+1, 4, q^2-q] ovoid code, q >= 4"),
    "trace123": ZooEntry("trace123", trace_exponent_code, ("m",), 3,
                         "[q+1, 6] trace code over GF(2^m), exponents {1,2,3}; "
                         "d = q-5 at m = 4, 5 (d = 4 at m = 3)",
                         family_builder=_trace_family_dispatch),
}


def _zoo_args(key: str, params: dict) -> tuple[ZooEntry, dict]:
    """The registry entry of `key` and its parameters as ints; an unknown
    id, a missing parameter or an unexpected one is a ParameterError."""
    entry = ZOO.get(key)
    if entry is None:
        raise ParameterError(f"unknown zoo id {key!r}; known: {sorted(ZOO)}")
    missing = [p for p in entry.params if p not in params]
    extra = [p for p in params if p not in entry.params]
    if missing or extra:
        raise ParameterError(
            f"zoo id {key!r} takes parameters {entry.params}; "
            f"missing {missing}, unexpected {extra}")
    return entry, {p: int(params[p]) for p in entry.params}


def zoo_build(key: str, **params) -> LinearCode:
    entry, args = _zoo_args(key, params)
    return entry.builder(**args)


def zoo_family(key: str, w: int, **params) -> BlockFamily:
    """Weight-w block family of a zoo code, using a parametrized
    constructor when one exists and enumeration otherwise."""
    entry, args = _zoo_args(key, params)
    if entry.family_builder is not None:
        return entry.family_builder(w, **args)
    return family_from_code(zoo_build(key, **params), w)


def zoo_transitivity(key: str) -> int | None:
    entry = ZOO.get(key)
    return entry.transitivity if entry else None
