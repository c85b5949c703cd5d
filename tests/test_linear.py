import random

import numpy as np
import pytest

from qdesign.errors import BUDGETS, CapacityError, ParameterError, ParseError, RankError
from qdesign.fields import field_make
from qdesign.linear import (
    LinearCode,
    code_from_generator,
    code_profile,
    codewords_of_weight,
    covering_radius,
    dual,
    iter_codeword_blocks,
    load_generator,
    macwilliams_transform,
    puncture,
    same_code,
    save_generator,
    shorten,
    sphere_bound_radius,
    support_repeat_bound,
    weight_distribution,
)
from qdesign.zoo import (
    golay_dual_code,
    hamming_code,
    hyperoval_code,
    simplex_code,
    ternary_golay_code,
)

F3 = field_make(3)


def _random_code(rng, q, n, k):
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        try:
            return code_from_generator(field_make(q), rows, strict=False)
        except RankError:
            continue


def _words(C, start=0, stop=None):
    """The codewords of messages [start, stop) as tuples, in message order."""
    return [tuple(map(int, v)) for _, block in iter_codeword_blocks(C, start, stop)
            for v in block]


def test_identity_generator_full_space():
    C = code_from_generator(F3, np.eye(4, dtype=int))
    assert C.params() == (4, 4)
    prof = code_profile(C)
    assert prof.d == 1 and sum(prof.counts) == 81


def test_simplex_small_code_count():
    C = simplex_code(3, 2)
    assert C.params() == (4, 2)
    assert len(_words(C)) == 9


def test_duplicate_rows_strict_rank_error():
    with pytest.raises(RankError):
        code_from_generator(F3, [[1, 0, 1], [2, 0, 2]])
    C = code_from_generator(F3, [[1, 0, 1], [2, 0, 2]], strict=False)
    assert C.k == 1


def test_entry_validation():
    with pytest.raises(ParameterError):
        code_from_generator(F3, [[0, 3, 1]])


@pytest.mark.parametrize("rows, message", [
    ([[1.5, 0, 2], [0, 1, 1]], "not integers"),
    ([[1.7, 0, 5]], "not integers"),
    ([[float("nan"), 0, 1]], "not integers"),
    ([[float("inf"), 0, 1]], "not integers"),
    ([["1", "0", "2"]], "must be integers"),
    ([[1, 0, 5]], r"outside the field: 5 is outside \[0, 3\)"),
    ([[1, -1, 0]], r"outside \[0, 3\)"),
])
def test_generator_entries_are_checked(rows, message):
    # the one entry check, for codes built directly and from rows
    for build in (LinearCode, code_from_generator):
        with pytest.raises(ParameterError, match=message):
            build(F3, rows)


def test_constructor_takes_any_2d_array_of_field_elements():
    with pytest.raises(ParameterError, match="2-d"):
        LinearCode(F3, [1, 0, 2])
    assert LinearCode(F3, [[1.0, 0.0, 2.0]]).gen.tolist() == [[1, 0, 2]]
    assert LinearCode(F3, np.array([[0, 2, 2]], dtype=np.uint16)).gen.tolist() == [[0, 1, 1]]
    assert LinearCode(F3, np.array([[True, False, True]])).gen.tolist() == [[1, 0, 1]]
    zero = LinearCode(F3, np.zeros((0, 4), dtype=int))
    assert (zero.n, zero.k) == (4, 0) and zero.gen.dtype == np.int32
    assert weight_distribution(zero, "direct").tolist() == [1, 0, 0, 0, 0]
    assert puncture(code_from_generator(F3, [[2]]), 0).params() == (0, 0)
    # rank 1 given as two rows: each word is counted once
    C = LinearCode(F3, [[1, 1, 0], [2, 2, 0]])
    assert C.k == 1 and C.gen.tolist() == [[1, 1, 0]]
    for method in ("direct", "macwilliams"):
        assert weight_distribution(C, method).tolist() == [1, 0, 2, 0]
    assert codewords_of_weight(C, 2, method="enumerate").tolist() == [[1, 1, 0], [2, 2, 0]]


def test_same_code_compares_fields():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert same_code(LinearCode(field_make(2), rows), LinearCode(field_make(2), rows))
    assert not same_code(LinearCode(field_make(2), rows), LinearCode(F3, rows))
    assert not same_code(LinearCode(F3, rows), LinearCode(F3, rows[:1]))


def test_dual_golay_parameters():
    G = ternary_golay_code()
    D = dual(G)
    assert D.params() == (11, 5)
    prof = code_profile(D)
    assert prof.d == 6


def test_dual_orthogonality_sampled():
    G = ternary_golay_code()
    D = dual(G)
    rng = random.Random(7)
    cws = np.concatenate([b for _, b in iter_codeword_blocks(G)])
    dws = np.concatenate([b for _, b in iter_codeword_blocks(D)])
    f = G.field
    for _ in range(1000):
        x = cws[rng.randrange(len(cws))]
        y = dws[rng.randrange(len(dws))]
        acc = 0
        for xi, yi in zip(x, y):
            acc = f.add(acc, f.mul(int(xi), int(yi)))
        assert acc == 0


def test_dual_of_full_space_is_zero_code():
    C = code_from_generator(F3, np.eye(3, dtype=int))
    Z = dual(C)
    assert Z.k == 0
    assert _words(Z) == [(0, 0, 0)]  # just the zero word


def test_dual_involutive():
    rng = random.Random(11)
    for _ in range(10):
        C = _random_code(rng, 3, 8, 4)
        assert same_code(dual(dual(C)), C)


def test_enumeration_order_and_partition():
    C = simplex_code(3, 2)
    full = _words(C)
    assert len(full) == 9 and len(set(full)) == 9
    # partition into 8 uneven ranges covers exactly the same stream
    bounds = [0, 1, 2, 3, 5, 6, 7, 8, 9]
    parts = []
    for a, b in zip(bounds, bounds[1:]):
        parts.extend(_words(C, a, b))
    assert parts == full


def test_enumeration_weight_filter_golay():
    G = ternary_golay_code()
    assert sum(int((w == 5).sum()) for _, w in iter_codeword_blocks(G, weights=True)) == 132


def test_enumeration_budget_errors(monkeypatch):
    G = ternary_golay_code()
    monkeypatch.setenv("QDESIGN_BUDGET", "100")
    with pytest.raises(CapacityError, match=r"BUDGETS\['codewords'\]"):
        list(iter_codeword_blocks(G))
    monkeypatch.delenv("QDESIGN_BUDGET")


def test_weight_distribution_methods_agree_random():
    rng = random.Random(23)
    for _ in range(50):
        k = rng.randint(1, 5)
        C = _random_code(rng, 3, 10, k)
        a = weight_distribution(C, "direct")
        b = weight_distribution(C, "macwilliams")
        assert (a == b).all()


def test_macwilliams_transform_involutive():
    G = ternary_golay_code()
    counts = weight_distribution(G, "direct")
    dual_counts = macwilliams_transform(counts, 11, 3)
    back = macwilliams_transform(dual_counts, 11, 3)
    assert list(back) == [int(c) for c in counts]


def test_golay_weight_enumerator():
    prof = code_profile(ternary_golay_code())
    assert {i: c for i, c in enumerate(prof.counts) if c} == {
        0: 1, 5: 132, 6: 132, 8: 330, 9: 110, 11: 24}


def test_codewords_of_weight_methods_agree():
    R = golay_dual_code()
    a = codewords_of_weight(R, 6, method="enumerate")
    b = codewords_of_weight(R, 6, method="scan")
    assert np.array_equal(a, b)
    assert a.shape[0] == 132


def test_puncture_shorten_hyperoval_dual():
    T = dual(hyperoval_code(4))  # [6, 3, 4]
    P = puncture(T, 0)
    S = shorten(T, 0)
    assert P.params() == (5, 3) and code_profile(P).d == 3
    assert S.params() == (5, 2) and code_profile(S).d == 4


def test_puncture_shorten_duality_identities():
    rng = random.Random(31)
    for _ in range(20):
        q = rng.choice([2, 3, 4])
        C = _random_code(rng, q, rng.randint(4, 7), rng.randint(2, 3))
        m = rng.randrange(C.n)
        try:
            lhs = shorten(dual(C), m)
            rhs = dual(puncture(C, m))
        except RankError:
            continue
        assert same_code(lhs, rhs)
        lhs2 = puncture(dual(C), m)
        rhs2 = dual(shorten(C, m))
        assert same_code(lhs2, rhs2)


def test_duality_identity_by_enumeration_oracle():
    C = code_from_generator(F3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    m = 2
    lhs = shorten(dual(C), m)
    rhs = dual(puncture(C, m))
    a = set(_words(lhs))
    b = set(_words(rhs))
    assert a == b


def test_support_repeat_bound():
    assert support_repeat_bound(11, 3, 5) == 9
    assert support_repeat_bound(13, 3, 3) == 5
    for n in (5, 9, 17):
        assert support_repeat_bound(n, 2, 3) == n  # binary: bound is length


def test_profile_golay_reference_values():
    prof = code_profile(ternary_golay_code(), compute_rho=True)
    assert (prof.d, prof.d_dual, prof.s, prof.s_dual) == (5, 6, 5, 2)
    assert (prof.e, prof.rho, prof.h) == (2, 2, 9)
    assert prof.weights == [5, 6, 8, 9, 11]
    assert prof.dual_weights == [6, 9]
    assert prof.is_perfect and not prof.is_mds
    assert prof.rho_sphere == prof.rho


def test_profile_hamming_perfect():
    prof = code_profile(hamming_code(3, 3), compute_rho=True)
    assert prof.d == 3 and prof.e == 1 and prof.rho == 1
    assert prof.is_perfect


def test_covering_radius_brute_oracle():
    # tetracode: rho by definition, max over vectors of distance to code
    C = code_from_generator(F3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    cws = np.concatenate([b for _, b in iter_codeword_blocks(C)])
    worst = 0
    for idx in range(3 ** 4):
        v = np.array([(idx // 3 ** i) % 3 for i in range(4)], dtype=np.int32)
        worst = max(worst, int(((cws != v[None, :]).sum(axis=1)).min()))
    assert covering_radius(C) == worst


def test_sphere_bound_below_rho():
    S = simplex_code(3, 3)
    rho = covering_radius(S)
    lo = sphere_bound_radius(S)
    assert lo <= rho
    assert (S.k, rho != lo) == (3, True)  # non-perfect: the two definitions split


def test_profile_invariants_random():
    rng = random.Random(47)
    for _ in range(15):
        C = _random_code(rng, rng.choice([2, 3, 4]), rng.randint(4, 8), rng.randint(1, 4))
        prof = code_profile(C, compute_rho=True)
        assert sum(prof.counts) == C.size
        assert prof.counts[0] == 1
        if prof.weights:
            assert prof.d == prof.weights[0]
            assert prof.e <= prof.rho <= max(prof.s_dual, prof.e)
        for w in prof.weights:
            assert w % prof.divisor == 0


def test_divisor_pless():
    from qdesign.zoo import pless_symmetry_code
    assert code_profile(pless_symmetry_code(12)).divisor == 3


def test_generator_file_roundtrip(tmp_path):
    G = ternary_golay_code()
    path = tmp_path / "g.txt"
    save_generator(G, path)
    H = load_generator(path)
    assert same_code(G, H)
    assert np.array_equal(G.gen, H.gen)


def test_generator_file_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 4\n")
    with pytest.raises(ParseError):
        load_generator(path)
    path.write_text("3 4 2\n1 0 1 1\n0 1 9 2\n")
    with pytest.raises(ParseError) as err:
        load_generator(path)
    assert err.value.line == 3


def test_generator_file_rejects_rows_past_the_header_count(tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("3 4 2\n1 0 1 1\n0 1 1 2\n\n1 1 2 0\n")
    with pytest.raises(ParseError) as err:
        load_generator(path)
    assert err.value.line == 5
    path.write_text("3 4 2\n1 0 1 1\n0 1 1 2\n\n  \n")  # trailing blank lines are fine
    assert load_generator(path).k == 2


def test_macwilliams_enumeration_is_budgeted(monkeypatch):
    G = ternary_golay_code()  # the dual side has 3^5 = 243 words
    monkeypatch.setenv("QDESIGN_BUDGET", "100")
    with pytest.raises(CapacityError, match="QDESIGN_BUDGET"):
        weight_distribution(G, "macwilliams")
    with pytest.raises(CapacityError, match="QDESIGN_BUDGET"):
        weight_distribution(G, "direct")
    monkeypatch.setenv("QDESIGN_BUDGET", "243")
    assert weight_distribution(G, "macwilliams")[5] == 132


def test_covering_radius_budget_names_its_knob(monkeypatch):
    F3 = field_make(3)
    C = code_from_generator(F3, [[1, 0, 1, 1], [0, 1, 1, 2]])  # syndrome space 3^2
    monkeypatch.setitem(BUDGETS, "syndromes", 9)
    assert covering_radius(C) == 1
    monkeypatch.setitem(BUDGETS, "syndromes", 8)
    with pytest.raises(CapacityError, match=r"errors\.BUDGETS\['syndromes'\] = 8"):
        covering_radius(C)


@pytest.mark.parametrize("q", [512, 729])
def test_weight_class_sort_order_on_uint16_fields(q):
    # entries past 255 use both bytes of the uint16 element dtype, so a
    # little-endian row key would order these classes by their low bytes
    F = field_make(q)
    assert F.np_dtype == np.uint16
    C = code_from_generator(F, [[1, 0, 300], [0, 1, q - 2]])
    for w in (2, 3):
        methods = ("enumerate", "scan") if w == 2 else ("enumerate",)
        for method in methods:
            out = codewords_of_weight(C, w, method=method)
            assert out.dtype == F.np_dtype
            assert len(out) > q
            assert out.tolist() == sorted(out.tolist())
        if w == 2:
            assert np.array_equal(codewords_of_weight(C, w, "scan"),
                                  codewords_of_weight(C, w, "enumerate"))


def test_generator_is_a_private_copy():
    # a later write to the caller's array must not reach the code, its
    # enumeration or its cached row tables
    F = field_make(3)
    src = np.array([[1, 0, 1, 2], [0, 1, 2, 2]], dtype=np.int32)
    C = LinearCode(F, src)
    before = np.concatenate([b for _, b in iter_codeword_blocks(C)]).tolist()
    src[:] = 0
    src[0, 0] = 1
    assert C.gen.tolist() == [[1, 0, 1, 2], [0, 1, 2, 2]]
    assert np.concatenate([b for _, b in iter_codeword_blocks(C)]).tolist() == before
    assert weight_distribution(C, "direct").tolist() == [1, 0, 0, 8, 0]
    with pytest.raises(ValueError):
        C.gen[0, 0] = 2
