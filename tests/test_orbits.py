"""Scalar-orbit counting against the per-block kernels it replaced.

The reference functions below are the per-subset bodies that counted
every block; their indices are checked in turn against a brute force
built on `covers()`.  Families are weight classes of random small codes,
closed under scalars, plus variants that break closure (a dropped row),
repeat every block, add one foreign orbit (a deviant) or list the class
as `BlockFamily.from_orbits` lists its blocks.  A family has orbit
representatives exactly when its rows are listed so (`is_listed`), and
they are then those of the dictionary oracle `ref_orbits`.
"""

import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdesign import designs as D
from qdesign.designs import (
    BlockFamily,
    DesignCheck,
    SupportMultiplicity,
    covers,
    expected_index,
    fixed_support_index,
    qary_design_index,
    support_multiplicity,
)
from qdesign.errors import RankError
from qdesign.fields import field_make
from qdesign.linear import code_from_generator, codewords_of_weight, iter_codeword_blocks

FIELDS = (2, 3, 4, 5, 7, 8, 9)


# ---------------------------------------------------------------------------
# reference kernels: every block, every subset


def _pattern_counts(fam, S):
    q, t = fam.field.q, len(S)
    sub = fam.blocks[:, S]
    vals = sub[(sub != 0).all(axis=1)].astype(np.int64) - 1
    radix = ((q - 1) ** np.arange(t - 1, -1, -1)).astype(np.int64)
    return np.bincount(vals @ radix, minlength=(q - 1) ** t)


def _decode(S, pat, q, n):
    vec = [0] * n
    for pos in reversed(S):
        pat, digit = divmod(pat, q - 1)
        vec[pos] = digit + 1
    return vec


def ref_qary(fam, t, want_witness=True):
    q, n, w = fam.field.q, fam.n, fam.w
    if len(fam) == 0:
        return DesignCheck("qary", t, ok=False, vacuous=True, detail="empty family")
    exp = expected_index(len(fam), t, n, w, q, qary=True)
    if exp.denominator != 1 and not want_witness:
        return DesignCheck("qary", t, ok=False, expected=exp,
                           detail="forced index non-integral")
    target = int(exp) if exp.denominator == 1 else None
    reference = None
    for S in combinations(range(n), t):
        counts = _pattern_counts(fam, S)
        if reference is None:
            reference = int(counts[0])
        cmp = target if target is not None else reference
        bad = np.flatnonzero(counts != cmp)
        if bad.size:
            return DesignCheck("qary", t, ok=False,
                               witness=tuple(_decode(S, int(bad[0]), q, n)),
                               witness_count=int(counts[bad[0]]), expected=exp,
                               detail="deviant cover count")
    return DesignCheck("qary", t, ok=True,
                       lam=target if target is not None else reference, expected=exp)


def ref_fixed(fam, t, positions):
    q, n = fam.field.q, fam.n
    S = tuple(positions)
    counts = _pattern_counts(fam, S)
    first = int(counts[0])
    bad = np.flatnonzero(counts != first)
    if bad.size:
        return DesignCheck("qary", t, ok=False,
                           witness=tuple(_decode(S, int(bad[0]), q, n)),
                           witness_count=int(counts[bad[0]]),
                           detail="non-constant count on fixed support")
    return DesignCheck("qary", t, ok=True, lam=first,
                       detail="fixed-support count; design conclusion requires "
                              "t-transitive automorphisms")


def ref_support_multiplicity(fam, expect=None):
    if expect is None:
        expect = fam.field.q - 1
    bits = np.packbits((fam.blocks != 0).astype(np.uint8), axis=1)
    packed = bits.view([("", bits.dtype)] * bits.shape[1]).ravel()
    uniq, counts = np.unique(packed, return_counts=True)
    if (counts == expect).all():
        return SupportMultiplicity(True, len(uniq), expect)
    bad = int(np.flatnonzero(counts != expect)[0])
    row = int(np.flatnonzero(packed == uniq[bad])[0])
    wit = tuple(int(i) for i in np.flatnonzero(fam.blocks[row] != 0))
    return SupportMultiplicity(False, len(uniq), None, witness=wit,
                               witness_count=int(counts[bad]))


def brute_qary(fam, t):
    """(ok, lam, witness, witness_count) from covers() over every weight-t
    vector, in lexicographic (support, values) order."""
    q, n = fam.field.q, fam.n
    exp = expected_index(len(fam), t, n, fam.w, q, qary=True)
    target = int(exp) if exp.denominator == 1 else None
    for S in combinations(range(n), t):
        for vals in product(range(1, q), repeat=t):
            x = np.zeros(n, dtype=np.int64)
            x[list(S)] = vals
            count = sum(covers(b, x) for b in fam.blocks)
            if target is None:
                target = count
            if count != target:
                return False, None, tuple(int(v) for v in x), count
    return True, target, None, None


def ref_orbits(fam):
    """(sorted normalized rows, m) when every (orbit, leading scalar) pair
    holds m blocks, else None, from a dictionary of scalar divisions."""
    F = fam.field
    pairs = Counter()
    for row in fam.blocks.tolist():
        lead = next(v for v in row if v)
        inv = F.inv(lead)
        pairs[tuple(F.mul(v, inv) for v in row), lead] += 1
    reps = sorted({norm for norm, _ in pairs})
    counts = {pairs[r, c] for r in reps for c in range(1, F.q)}
    return (reps, counts.pop()) if len(counts) == 1 else None


def is_listed(F, rows):
    """Whether rows are listed as `from_orbits` lists them, by a plain loop."""
    q, rows = F.q, rows.tolist()
    R, rest = divmod(len(rows), q - 1)
    if rest:
        return False
    for c in range(2, q):
        for i in range(R):
            if [F.mul(c, v) for v in rows[i]] != rows[(c - 1) * R + i]:
                return False
    norms = {tuple(F.mul(v, F.inv(next(x for x in row if x))) for v in row)
             for row in rows[:R]}
    return len(norms) == R


def assert_orbits_match_oracle(fam):
    """A family has representatives exactly when its rows are listed, and
    then they are the oracle's, each orbit once, read-only and in the
    element dtype."""
    got = fam.scalar_orbits
    if not (fam.w and len(fam) and is_listed(fam.field, fam.blocks)):
        assert got is None
        return
    reps, m = ref_orbits(fam)
    assert m == 1 and len(got) * (fam.field.q - 1) == len(fam)
    assert got.dtype == fam.field.np_dtype and got.flags.c_contiguous
    assert not got.flags.writeable
    assert sorted(map(tuple, got.tolist())) == reps


# ---------------------------------------------------------------------------
# random families


@st.composite
def families(draw):
    q = draw(st.sampled_from(FIELDS))
    F = field_make(q)
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, 3 if q <= 5 else 2))
    gen = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                        min_size=k, max_size=k))
    try:
        C = code_from_generator(F, gen, strict=False)
    except RankError:
        gen[0][0] = 1
        C = code_from_generator(F, gen, strict=False)
    words = np.concatenate([b for _, b in iter_codeword_blocks(C)])
    w = draw(st.sampled_from(sorted(set(np.count_nonzero(words, axis=1).tolist()) - {0})))
    rows = codewords_of_weight(C, w)
    variant = draw(st.sampled_from(("closed", "dropped", "doubled", "extra", "listed")))
    if variant == "listed":
        rows = BlockFamily.from_orbits(F, n, w, rows[D._leads(rows) == 1]).blocks
    elif variant == "dropped":
        rows = np.delete(rows, draw(st.integers(0, len(rows) - 1)), axis=0)
    elif variant == "doubled":
        rows = np.concatenate([rows, rows])
    elif variant == "extra":
        S = draw(st.lists(st.integers(0, n - 1), min_size=w, max_size=w, unique=True))
        v = np.zeros(n, dtype=np.int64)
        v[S] = draw(st.lists(st.integers(1, q - 1), min_size=w, max_size=w))
        orbit = [F.mul_scalar_np(c, v) for c in range(1, q)]
        rows = np.concatenate([rows, np.array(orbit)])
    if len(rows) == 0:
        rows = codewords_of_weight(C, w)
    return BlockFamily(F, n, w, rows, source=variant), variant


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(families(), st.data())
def test_orbit_kernels_match_reference(case, data):
    fam, variant = case
    q, n, w = fam.field.q, fam.n, fam.w
    assert_orbits_match_oracle(fam)
    if variant == "listed":
        assert fam.scalar_orbits is not None
    elif variant in ("dropped", "doubled") and q > 2:
        assert fam.scalar_orbits is None
    for t in range(1, min(w, 3) + 1):
        for want in (True, False):
            assert qary_design_index(fam, t, want_witness=want) == ref_qary(fam, t, want)
        S = tuple(data.draw(st.permutations(range(n)))[:t])
        assert fixed_support_index(fam, t, S) == ref_fixed(fam, t, S)
    assert support_multiplicity(fam) == ref_support_multiplicity(fam)
    expect = data.draw(st.integers(1, 2 * (q - 1)))
    assert support_multiplicity(fam, expect) == ref_support_multiplicity(fam, expect)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(families(), st.integers(1, 2))
def test_reference_matches_covers_bruteforce(case, t):
    fam, _ = case
    q, n = fam.field.q, fam.n
    if t > fam.w or len(fam) * math.comb(n, t) * (q - 1) ** t > 40_000:
        return
    ref = ref_qary(fam, t)
    assert (ref.ok, ref.lam, ref.witness, ref.witness_count) == brute_qary(fam, t)


def test_blocks_are_read_only():
    F = field_make(3)
    fam = BlockFamily(F, 3, 2, [[1, 1, 0], [2, 2, 0]])
    with pytest.raises(ValueError):
        fam.blocks[0, 0] = 2
    with pytest.raises(AttributeError):
        fam.blocks = np.zeros((1, 3), dtype=int)


def test_caller_array_is_copied():
    """A later write to the array a family was built from reaches neither
    its blocks nor its cached orbits."""
    F = field_make(3)
    src = np.array([[1, 1, 0], [2, 2, 0]], dtype=F.np_dtype)
    fam = BlockFamily(F, 3, 2, src)
    assert fam.scalar_orbits.tolist() == [[1, 1, 0]]
    src[:] = [[1, 0, 1], [2, 0, 2]]
    assert fam.blocks.tolist() == [[1, 1, 0], [2, 2, 0]]
    assert fam.scalar_orbits.tolist() == [[1, 1, 0]]
    assert support_multiplicity(fam) == SupportMultiplicity(True, 1, 2)


def test_support_dedup_is_cached_and_read_only(monkeypatch):
    """Every support check after the first reuses one dedup, whose arrays
    cannot be written through."""
    F = field_make(3)
    fam = BlockFamily(F, 4, 2, [[1, 1, 0, 0], [2, 2, 0, 0], [0, 1, 2, 0], [0, 2, 1, 0]])
    calls = []
    dedup = D._distinct_supports
    monkeypatch.setattr(D, "_distinct_supports", lambda f: calls.append(f) or dedup(f))
    for t in (1, 2):
        D.classical_design_index(fam, t)
    support_multiplicity(fam)
    D.is_complete_support_design(fam)
    assert calls == [fam]
    rows, counts = fam.distinct_supports
    assert counts.tolist() == [2, 2]
    for arr in (rows, counts):
        with pytest.raises(ValueError):
            arr[0] = 0


def shuffled(F, rows):
    """rows in a fixed random order, one that the listed check rejects, so
    a family of them is counted block by block."""
    rows = rows[np.random.default_rng(17).permutation(len(rows))]
    assert D._listed_orbits(F, int(np.count_nonzero(rows[0])), rows) is None
    return rows


def _mul_scalar_by_logs(F, c, x):
    """The log-table product that mul_scalar_np computed before the row gather."""
    x = np.asarray(x)
    if c == 0:
        return np.zeros_like(x, dtype=np.int32)
    if c == 1:
        return x.astype(np.int32, copy=True)
    out = F._exp_np[(F._log_np[x] + F._log[c]) % (F.q - 1)]
    return np.where(x == 0, 0, out)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25, 32, 1024])
def test_mul_scalar_np_matches_log_tables(q):
    F = field_make(q)
    small = np.array([0, 1, q - 1])
    large = np.arange(q).reshape(-1, 1).repeat(2, axis=1)
    for c in range(q):
        for x in (small, large):
            out, want = F.mul_scalar_np(c, x), _mul_scalar_by_logs(F, c, x)
            assert out.dtype == want.dtype == np.int32
            assert np.array_equal(out, want)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 32, 1024, 2048])
def test_div_np_inverts_multiplication(q):
    F = field_make(q)
    x = np.arange(q)
    for c in sorted({1, 2 % q or 1, q - 1}):
        out = F.div_np(x, np.full(q, c))
        assert out.dtype == F.np_dtype
        assert [F.mul(int(v), c) for v in out] == x.tolist()
