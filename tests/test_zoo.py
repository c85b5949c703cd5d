import tracemalloc

import numpy as np
import pytest

from qdesign.designs import family_from_code
from qdesign.errors import CapacityError, ParameterError
from qdesign.fields import quadratic_extension
from qdesign.linear import (
    code_profile,
    dual,
    load_generator,
    same_code,
    save_generator,
    weight_distribution,
)
from qdesign.zoo import (
    ZOO,
    _trace_columns,
    doubly_extended_rs_code,
    golay_dual_code,
    hamming_code,
    hyperoval_code,
    ovoid_code,
    pless_symmetry_code,
    reed_solomon_code,
    simplex_code,
    ternary_golay_code,
    trace_exponent_code,
    trace_min_weight_family,
    trace_next_weight_family,
    zoo_build,
    zoo_family,
    zoo_transitivity,
)


def _counts(C):
    wd = weight_distribution(C)
    return {i: int(c) for i, c in enumerate(wd) if c and i}


def test_simplex_profiles():
    S = simplex_code(3, 3)
    prof = code_profile(S)
    assert S.params() == (13, 3) and prof.d == 9 and prof.s == 1
    assert simplex_code(2, 3).params() == (7, 3)
    assert code_profile(simplex_code(2, 3)).d == 4
    assert simplex_code(4, 2).params() == (5, 2)
    with pytest.raises(ParameterError):
        simplex_code(3, 1)


def test_hamming_profiles():
    H = hamming_code(3, 3)
    assert H.params() == (13, 10)
    assert code_profile(H).d == 3


def test_reed_solomon_profiles():
    C = reed_solomon_code(16, 4)
    assert C.params() == (15, 4)
    prof = code_profile(C)
    assert prof.d == 12 and prof.is_mds
    with pytest.raises(ParameterError):
        reed_solomon_code(16, 16)


def test_drs_profiles():
    for q, k in ((8, 3), (9, 4), (16, 5)):
        C = doubly_extended_rs_code(q, k)
        assert C.params() == (q + 1, k)
        prof = code_profile(C)
        assert prof.d == q - k + 2 and prof.is_mds
    # the zero polynomial gives the zero codeword only
    wd = weight_distribution(doubly_extended_rs_code(5, 2))
    assert wd[0] == 1


def test_golay_and_dual():
    G = ternary_golay_code()
    assert _counts(G) == {5: 132, 6: 132, 8: 330, 9: 110, 11: 24}
    R = golay_dual_code()
    assert R.params() == (11, 5)
    assert _counts(R) == {6: 132, 9: 110}
    assert same_code(R, dual(G))


def test_pless_enumerators_and_self_duality():
    P12 = pless_symmetry_code(12)
    assert _counts(P12) == {6: 264, 9: 440, 12: 24}
    assert same_code(P12, dual(P12))
    P24 = pless_symmetry_code(24)
    assert _counts(P24) == {9: 4048, 12: 61824, 15: 242880,
                            18: 198352, 21: 24288, 24: 48}
    assert same_code(P24, dual(P24))
    with pytest.raises(ParameterError):
        pless_symmetry_code(36)


def test_hyperoval_enumerators():
    for q in (4, 8):
        T = hyperoval_code(q)
        assert T.params() == (q + 2, 3)
        assert _counts(T) == {q: (q + 2) * (q * q - 1) // 2,
                              q + 2: q * (q - 1) ** 2 // 2}
        Td = dual(T)
        assert Td.params() == (q + 2, q - 1)
        assert code_profile(Td).d == 4
    with pytest.raises(ParameterError):
        hyperoval_code(5)
    with pytest.raises(ParameterError):
        hyperoval_code(2)


def test_ovoid_enumerator():
    T = ovoid_code(4)
    assert T.params() == (17, 4)
    assert _counts(T) == {12: 204, 16: 51}
    assert code_profile(T).d == 12
    with pytest.raises(ParameterError):
        ovoid_code(3)


def test_ovoid_odd_characteristic():
    T = ovoid_code(5)
    prof = code_profile(T)
    q = 5
    assert T.params() == (26, 4)
    assert prof.weights == [q * q - q, q * q]
    assert prof.counts[q * q - q] == (q * q - q) * (q * q + 1)


def test_trace_code_small():
    # q = 8 sits below the regime where the minimum weight is q-5: no
    # 6-subset of the 9 norm-one elements kills the cubic symmetric
    # polynomial there, so the minimum-weight words have five zeros
    C = trace_exponent_code(3)
    assert C.params() == (9, 6)
    prof = code_profile(C)
    assert prof.d == 4
    assert prof.counts[4] == 7 * 126  # (q-1) words per based 5-subset
    with pytest.raises(ParameterError):
        trace_exponent_code(1)
    # an [n, 6] code needs n = q + 1 >= 6: every trace123 builder rejects
    # m = 2 by name, before any rank or orbit check
    for build in (trace_exponent_code, trace_min_weight_family, trace_next_weight_family,
                  lambda m: zoo_family("trace123", 0, m=m)):
        with pytest.raises(ParameterError, match="m >= 3.*m = 2"):
            build(2)


def _orbit_rows(fam):
    """The normalized representatives of a native family, as a set."""
    return set() if fam.scalar_orbits is None else set(map(tuple, fam.scalar_orbits.tolist()))


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("build", [trace_min_weight_family, trace_next_weight_family],
                         ids=lambda f: f.__name__)
def test_trace_families_equal_the_enumerated_weight_classes(build, m):
    """The words of the 6-multiset formula are the whole weight class that
    enumeration finds (empty at m = 3, w = q - 5)."""
    tf = build(m)
    want = family_from_code(trace_exponent_code(m), tf.w)
    assert len(tf.family) == len(want) == (2 ** m - 1) * tf.base_words
    assert _orbit_rows(tf.family) == _orbit_rows(want)


def test_trace_family_counts_m5():
    fam = trace_min_weight_family(5)
    assert fam.base_words == 32736
    assert len(fam.family) == 31 * 32736


def test_zoo_build_and_registry():
    C = zoo_build("ternary-golay")
    assert C.params() == (11, 6)
    C = zoo_build("drs", q=8, k=3)
    assert C.params() == (9, 3)
    assert zoo_transitivity("drs") == 3
    assert zoo_transitivity("trace123") == 3
    assert zoo_transitivity("ternary-golay") is None
    with pytest.raises(ParameterError):
        zoo_build("nope")
    with pytest.raises(ParameterError):
        zoo_build("drs", q=8)  # missing k
    with pytest.raises(ParameterError):
        zoo_build("ternary-golay", q=3)  # unexpected parameter


def test_zoo_family_checks_parameters():
    with pytest.raises(ParameterError, match="missing"):
        zoo_family("trace123", 27)
    with pytest.raises(ParameterError, match="unexpected"):
        zoo_family("trace123", 27, m=4, n=9)
    with pytest.raises(ParameterError, match="unexpected"):
        zoo_family("rt6", 6, q=3)


def test_trace_code_rows_match_the_trace_expression():
    """The six basis rows, before row reduction, are Tr(a g^i + b g^2i + c g^3i)
    evaluated one coordinate at a time."""
    for m in (2, 3, 4, 5):
        q = 2 ** m
        ext = quadratic_extension(q)
        top, alpha = ext.top, ext.top.generator
        basis = [(1, 0, 0), (alpha, 0, 0), (0, 1, 0), (0, alpha, 0), (0, 0, 1), (0, 0, alpha)]
        U = ext.norm_one_group()
        want = [[ext.trace_to_base(top.add(top.add(top.mul(a, g), top.mul(b, top.pow(g, 2))),
                                           top.mul(c, top.pow(g, 3))))
                 for g in U] for a, b, c in basis]
        got = _trace_columns(ext, *np.array(basis).T)
        assert got.tolist() == want


def _trace_columns_by_products(ext, a, b, c):
    """Tr(g^i a + g^(2i) b + g^(3i) c) at every coordinate i, from three
    products by a scalar and one trace gather per coordinate."""
    top, q = ext.top, ext.base.q
    out = np.zeros((len(a), q + 1), dtype=ext.base.np_dtype)
    for i in range(q + 1):
        g = [top._exp[((q - 1) * k * i) % (top.q - 1)] for k in (1, 2, 3)]
        t = (top.mul_scalar_np(g[0], a) ^ top.mul_scalar_np(g[1], b)
             ^ top.mul_scalar_np(g[2], c))
        out[:, i] = ext.trace_np[t]
    return out


@pytest.mark.parametrize("m", [2, 3, 5])
def test_trace_tables_equal_the_trace_of_products(m):
    """The trace-table columns equal the per-coordinate products on 5,000
    random parameter triples over GF(q^2), entry for entry and in dtype."""
    ext = quadratic_extension(2 ** m)
    rng = np.random.default_rng(m)
    a, b, c = (rng.integers(0, ext.top.q, 5000).astype(np.int32) for _ in range(3))
    got = _trace_columns(ext, a, b, c)
    want = _trace_columns_by_products(ext, a, b, c)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_trace_columns_take_memory_of_their_table():
    """At m = 7 the (q+1) x q^2 table of traces of multiples is 2.1 MB in
    uint8; the six basis rows peak below 4 MB, with no int32 copy of it."""
    ext = quadratic_extension(2 ** 7)
    alpha = ext.top.generator
    basis = np.array([(1, 0, 0), (alpha, 0, 0), (0, 1, 0), (0, alpha, 0), (0, 0, 1), (0, 0, alpha)])
    tracemalloc.start()
    try:
        _trace_columns(ext, *basis.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_zoo_family_dispatch():
    fam = zoo_family("rt6", 6)
    assert len(fam) == 132
    fam27 = zoo_family("trace123", 27, m=5)
    assert len(fam27) == 1014816
    # no parametrized family: the code's lead-one words, here none
    fam20 = zoo_family("trace123", 20, m=5)
    assert len(fam20) == 0 and (fam20.n, fam20.w) == (33, 20)


def test_zoo_entries_complete():
    assert set(ZOO) == {"simplex", "hamming", "rs", "drs", "ternary-golay",
                        "rt6", "pless", "tf1", "tf3", "trace123"}


def test_generator_file_roundtrip_via_zoo(tmp_path):
    C = zoo_build("tf1", q=4)
    path = tmp_path / "tf1.txt"
    save_generator(C, path)
    back = load_generator(path)
    assert np.array_equal(C.gen, back.gen)


def test_simplex_cap_names_its_knob():
    assert simplex_code(2, 13).n == 8191
    with pytest.raises(CapacityError, match=r"errors\.BUDGETS\['simplex_length'\] = 10000"):
        simplex_code(2, 14)  # length 16383
