import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from qdesign.errors import ParameterError
from qdesign.fields import (
    GF,
    field_make,
    pinned_modulus,
    prime_power,
    quadratic_extension,
)


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(31) == (31, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_non_prime_power_rejected():
    with pytest.raises(ParameterError):
        field_make(12)
    with pytest.raises(ParameterError):
        GF(6)


def test_f2_and_f4_basics():
    F2 = field_make(2)
    assert F2.add(1, 1) == 0 and F2.mul(1, 1) == 1
    F4 = field_make(4)
    # elements {0, 1, w, w+1} with w = index 2
    w = 2
    assert F4.mul(w, F4.add(w, 1)) == 1
    assert F4.add(2, 2) == 0


def test_f3_addition():
    F3 = field_make(3)
    assert F3.add(2, 2) == 1
    assert F3.neg(1) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 64, 81, 121, 1024])
def test_field_axioms_sampled(q):
    F = field_make(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25, 32, 1024])
def test_mul_np_matches_scalar_mul(q):
    F = field_make(q)
    if q <= 32:  # every pair
        x, y = (a.ravel() for a in np.meshgrid(np.arange(q), np.arange(q)))
    else:
        rng = np.random.default_rng(q)
        x, y = rng.integers(0, q, size=(2, 1 << 20))
    got = F.mul_np(x, y)
    assert got.dtype == np.int32
    assert got.tolist() == [F.mul(a, b) for a, b in zip(x.tolist(), y.tolist())]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 32])
def test_generator_order_and_tables(q):
    F = field_make(q)
    assert F.pow(F.generator, q - 1) == 1
    seen = {F.pow(F.generator, i) for i in range(q - 1)}
    assert len(seen) == q - 1
    for x in range(1, q):
        assert F.exp(F.dlog(x)) == x


def test_dlog_edges():
    F8 = field_make(8)
    assert F8.dlog(1) == 0
    assert F8.dlog(F8.generator) == 1
    with pytest.raises(ParameterError):
        F8.dlog(0)
    with pytest.raises(ZeroDivisionError):
        F8.inv(0)


def test_pinned_modulus_is_deterministic_and_primitive():
    assert pinned_modulus(2, 5) == (1, 0, 1, 0, 0, 1)  # x^5 + x^2 + 1
    assert pinned_modulus(3, 2) == (2, 1, 1)           # x^2 + x + 2
    # rebuilding from scratch yields identical tables
    a, b = GF(27), GF(27)
    assert a.modulus == b.modulus and a._exp == b._exp


@pytest.mark.parametrize("q", [2, 3, 4])
def test_trace_linearity_exhaustive(q):
    ext = quadratic_extension(q)
    top, base = ext.top, ext.base
    for lam in range(q):
        lam_top = int(ext.embed_np[lam])
        for x in range(top.q):
            for y in range(0, top.q, max(1, top.q // 8)):
                lhs = ext.trace_to_base(top.add(top.mul(lam_top, x), y))
                rhs = base.add(base.mul(lam, ext.trace_to_base(x)),
                               ext.trace_to_base(y))
                assert lhs == rhs


def test_trace_fibers_q4():
    # each base value is hit by exactly q elements of the extension
    ext = quadratic_extension(4)
    fibers = Counter(int(ext.trace_np[x]) for x in range(16))
    assert fibers == {0: 4, 1: 4, 2: 4, 3: 4}


def test_trace_zero_and_membership():
    ext = quadratic_extension(8)
    assert ext.trace_to_base(0) == 0
    for x in range(64):
        assert 0 <= ext.trace_to_base(x) < 8


def test_embedding_is_field_homomorphism():
    ext = quadratic_extension(9)
    base, top = ext.base, ext.top
    rng = random.Random(9)
    for _ in range(100):
        a, b = rng.randrange(9), rng.randrange(9)
        assert ext.embed(base.add(a, b)) == top.add(ext.embed(a), ext.embed(b))
        assert ext.embed(base.mul(a, b)) == top.mul(ext.embed(a), ext.embed(b))


@pytest.mark.parametrize("q", [4, 8, 32])
def test_norm_one_group(q):
    ext = quadratic_extension(q)
    U = ext.norm_one_group()
    assert len(U) == q + 1
    assert 1 in U
    top = ext.top
    brute = sorted(u for u in range(1, top.q) if top.pow(u, q + 1) == 1)
    assert sorted(U) == brute
    # one int32 array behind the list, every entry of norm one
    assert ext.norm_one_np.dtype == np.int32 and ext.norm_one_np.tolist() == U
    assert all(top.pow(u, q + 1) == 1 for u in ext.norm_one_np.tolist())
    # closed under multiplication and inversion
    uset = set(U)
    for u in U[:8]:
        assert top.inv(u) in uset
        for v in U[:8]:
            assert top.mul(u, v) in uset


def test_sqrt_table_char2():
    ext = quadratic_extension(32)
    top = ext.top
    for x in range(0, top.q, 37):
        s = ext.sqrt(x)
        assert top.mul(s, s) == x


@pytest.mark.parametrize("q", [3, 9, 25, 27, 243, 729, 1849])
def test_add_table_matches_scalar_add(q):
    F = GF(q)
    assert F._add_np is not None and F._add_np.dtype == np.int32
    if q <= 243:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(q), np.arange(q)))
    else:
        rng = np.random.default_rng(q)
        a, b = rng.integers(0, q, (2, 10 ** 5))
    want = [F.add(int(x), int(y)) for x, y in zip(a, b)]
    assert F.add_np(a, b).tolist() == want


def test_pinned_moduli_digest():
    """The modulus search, rerun past its cache, for every prime p <= 256
    and m >= 2 with p^m <= 2^16 (93 pairs)."""
    pairs = [(p, m, pinned_modulus.__wrapped__(p, m))
             for p in range(2, 257) if prime_power(p) == (p, 1)
             for m in range(2, 17) if p ** m <= 2 ** 16]
    assert len(pairs) == 93
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == "2f4584c20ab1e2ed5d9496faba36233382e38f4de2f1ffb03f6a1a1d5867d8ef"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64])
def test_extension_tables_match_scalar_definitions(q):
    ext = quadratic_extension(q)
    base, top = ext.base, ext.top
    for table in (ext.frob_np, ext.embed_np, ext.project_np, ext.trace_np):
        assert table.dtype == np.int32
    X = range(top.q)
    assert ext.frob_np.tolist() == [top.pow(x, q) for x in X]
    if base.m >= 2:
        # index p is the class of x, which maps to the smallest root of the
        # base modulus
        def at(r):
            acc = 0
            for c in reversed(base.modulus):
                acc = top.add(top.mul(acc, r), c)
            return acc
        assert int(ext.embed_np[base.p]) == next(r for r in X if at(r) == 0)
    a, b = (v.ravel() for v in np.meshgrid(np.arange(q), np.arange(q)))
    embed = ext.embed_np
    assert np.array_equal(embed[base.add_np(a, b)], top.add_np(embed[a], embed[b]))
    assert np.array_equal(embed[base.mul_np(a, b)], top.mul_np(embed[a], embed[b]))
    assert np.array_equal(ext.project_np[embed], np.arange(q))
    assert (ext.project_np >= 0).sum() == q
    assert ext.trace_np.tolist() == [ext.project(top.add(x, top.pow(x, q))) for x in X]
    if base.p == 2:
        assert ext.sqrt_np.dtype == np.int32
        assert [top.mul(s, s) for s in ext.sqrt_np.tolist()] == list(X)
    else:
        assert ext.sqrt_np is None
