import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from outer_oracles import full_outer_table
from qdesign.designs import (
    BlockFamily,
    classical_design_index,
    constrained_cover_index,
    count_constrained,
    coset_representatives,
    covers,
    expected_index,
    family_from_code,
    fixed_support_index,
    is_complete_support_design,
    is_t_regular,
    load_family,
    max_strengths,
    outer_distribution,
    qary_design_index,
    save_family,
    scaled_index,
    support_multiplicity,
    to_gdd,
)
from qdesign.errors import CapacityError, ParameterError, ParseError
from qdesign.fields import field_make
from qdesign.linear import code_from_generator, weight_distribution
from qdesign.zoo import (
    doubly_extended_rs_code,
    golay_dual_code,
    hamming_code,
    reed_solomon_code,
    simplex_code,
    ternary_golay_code,
)

F3 = field_make(3)


@pytest.fixture(scope="module")
def golay5():
    return family_from_code(ternary_golay_code(), 5)


@pytest.fixture(scope="module")
def simplex9():
    return family_from_code(simplex_code(3, 3), 9)


def test_covers_basics():
    assert covers([1, 0, 2], [1, 0, 0])
    assert not covers([1, 0, 2], [2, 0, 0])
    assert covers([2, 1, 0], [0, 0, 0])
    with pytest.raises(ParameterError):
        covers([1, 0], [1, 0, 0])


def test_block_family_validates_weight():
    with pytest.raises(ParameterError):
        BlockFamily(F3, 3, 2, [[1, 1, 1]])
    with pytest.raises(ParameterError):
        BlockFamily(F3, 3, 2, [[1, 3, 0]])


def test_rows_of_the_wrong_width_are_rejected():
    """Rows are never re-chunked to n columns: a row of another width, or
    an array that is not 2-d, is a ParameterError naming its shape, ragged
    rows are a ParameterError, and an input with no rows is the empty
    family."""
    with pytest.raises(ParameterError, match=r"3 columns, got shape \(1, 6\)"):
        BlockFamily(F3, 3, 2, [[1, 1, 0, 0, 1, 1]])
    with pytest.raises(ParameterError, match=r"2 columns, got shape \(1, 4\)"):
        BlockFamily.from_orbits(F3, 2, 1, [[1, 0, 0, 1]])
    with pytest.raises(ParameterError, match=r"3 columns, got shape \(1, 4\)"):
        BlockFamily(F3, 3, 1, np.array([[1, 0, 0, 0]]))
    with pytest.raises(ParameterError, match=r"got shape \(3,\)"):
        BlockFamily.from_orbits(F3, 3, 2, [1, 1, 0])
    for build in (BlockFamily, BlockFamily.from_orbits):
        with pytest.raises(ParameterError, match="block rows are ragged"):
            build(F3, 2, 1, [[1, 0], [1]])
        for rows in ([], np.zeros((0, 5), dtype=int)):
            fam = build(F3, 3, 2, rows)
            assert len(fam) == 0 and fam.blocks.shape == (0, 3)


def test_golay_qary_steiner(golay5):
    chk = qary_design_index(golay5, 3)
    assert chk.ok and chk.lam == 1
    # reduced-strength indices match the scaling formula
    for i in (1, 2):
        assert qary_design_index(golay5, i).lam == scaled_index(1, 3, i, 11, 5, 3)
    assert qary_design_index(golay5, 2).lam == 6


def test_golay_classical_steiner(golay5):
    chk = classical_design_index(golay5, 4)
    assert chk.ok and chk.lam == 1
    multi = classical_design_index(golay5, 4, distinct=False)
    assert multi.ok and multi.lam == 2  # every support twice


def test_qt_to_t_index_relation(golay5):
    # multiset classical index at t equals (q-1)^t times the q-ary index
    t, lam = 3, 1
    multi = classical_design_index(golay5, t, distinct=False)
    assert multi.lam == (3 - 1) ** t * lam


def test_repeat_bound_index_relation():
    # below the support-repeat bound, the deduplicated classical index at
    # the q-ary strength is (q-1)^(t-1) times the q-ary index
    for fam, t, lam in ((family_from_code(ternary_golay_code(), 5), 3, 1),
                        (family_from_code(golay_dual_code(), 6), 3, 2)):
        assert support_multiplicity(fam).ok
        chk = classical_design_index(fam, t)
        assert chk.ok and chk.lam == 2 ** (t - 1) * lam


def test_simplex_qary_two_design(simplex9):
    chk = qary_design_index(simplex9, 2)
    assert chk.ok and chk.lam == 3  # q^(m-2)
    bad = qary_design_index(simplex9, 3)
    assert not bad.ok and bad.witness is not None
    # witness is reproducible
    again = qary_design_index(simplex9, 3)
    assert bad.witness == again.witness and bad.witness_count == again.witness_count


def test_rs_failure_witness():
    fam = family_from_code(reed_solomon_code(16, 4), 12)
    assert qary_design_index(fam, 1).lam == 364
    chk = qary_design_index(fam, 2)
    assert not chk.ok and chk.witness is not None


def test_strengths_golay(golay5):
    rep = max_strengths(golay5)
    assert (rep.t_qary, rep.t_classical) == (3, 4)
    # monotone tables: every t below the strength passed
    assert all(rep.qary_table[t].ok for t in range(1, 4))
    assert all(rep.classical_table[t].ok for t in range(1, 5))


def test_strengths_classical_at_least_qary():
    # supports of a q-ary design form designs of at least that strength
    for fam in (family_from_code(golay_dual_code(), 6),
                family_from_code(simplex_code(3, 3), 9)):
        rep = max_strengths(fam)
        assert rep.t_classical >= rep.t_qary


def test_empty_family_vacuous():
    fam = BlockFamily(F3, 4, 2, np.zeros((0, 4), dtype=int))
    checks = (lambda t: qary_design_index(fam, t),
              lambda t: classical_design_index(fam, t),
              lambda t: fixed_support_index(fam, t, tuple(range(t))))
    for check in checks:
        chk = check(1)
        assert chk.vacuous and not chk.ok
        # t is checked before emptiness: t outside [1, w] is malformed on
        # an empty family too
        for t in (0, fam.w + 1):
            with pytest.raises(ParameterError, match=r"need 1 <= t <= w"):
                check(t)


def test_scaled_index_identities(golay5):
    # i = t returns lam; i = 0 returns the block count
    assert scaled_index(1, 3, 3, 11, 5, 3) == 1
    assert scaled_index(1, 3, 0, 11, 5, 3) == len(golay5)
    assert scaled_index(1, 3, 2, 11, 5, 3) == 6 == qary_design_index(golay5, 2).lam


def test_scaled_index_flags_impossible_parameters():
    # 810 blocks of weight 14 on 27 points cannot form a q-ary 2-design:
    # the forced index is not an integer
    forced = expected_index(810, 2, 27, 14, 3)
    assert forced.denominator != 1
    assert forced == Fraction(810 * math.comb(14, 2), 4 * math.comb(27, 2))


def test_constrained_cover_index_consistency(golay5):
    # zero mismatch columns: reduces to the plain scaled index
    for x in range(0, 4):
        assert constrained_cover_index(1, 3, 11, 5, 3, x, 0, 0) == \
            scaled_index(1, 3, x, 11, 5, 3)
    # differ-only relation: (q-2)^y times the scaled index
    for x, y in ((1, 1), (0, 2), (2, 1)):
        assert constrained_cover_index(1, 3, 11, 5, 3, x, y, 0) == \
            (3 - 2) ** y * scaled_index(1, 3, x + y, 11, 5, 3)


def test_constrained_cover_counts_brute_force(golay5):
    lam, t, n, w, q = 1, 3, 11, 5, 3
    # every (agree, differ, zero) split and every placement/value must give
    # the same count, equal to the closed formula
    for x, y, z in [(1, 1, 1), (0, 1, 2), (2, 0, 1), (1, 0, 0), (0, 0, 3)]:
        want = constrained_cover_index(lam, t, n, w, q, x, y, z)
        assert want.denominator == 1
        seen = set()
        for pos in combinations(range(n), x + y + z):
            for vals in np.ndindex(*([q - 1] * (x + y + z))):
                agree = {pos[i]: vals[i] + 1 for i in range(x)}
                differ = {pos[x + i]: vals[x + i] + 1 for i in range(y)}
                zero = [pos[x + y + i] for i in range(z)]
                seen.add(count_constrained(golay5, agree, differ, zero))
        assert seen == {int(want)}


def test_support_multiplicity(golay5):
    rep = support_multiplicity(golay5)
    assert rep.ok and rep.distinct == 66 and rep.multiplicity == 2


def test_support_multiplicity_binary():
    C = code_from_generator(field_make(2), [[1, 1, 0, 0], [0, 0, 1, 1]])
    fam = family_from_code(C, 2)
    rep = support_multiplicity(fam)
    assert rep.ok and rep.multiplicity == 1


def test_support_multiplicity_witness():
    fam = BlockFamily(F3, 3, 2, [[1, 1, 0], [2, 2, 0], [1, 0, 1]])
    rep = support_multiplicity(fam)
    assert not rep.ok and rep.witness is not None


def test_complete_design_detection():
    fam = family_from_code(golay_dual_code(), 9)
    assert is_complete_support_design(fam)


def test_fixed_support_index_golay(golay5):
    for S in [(0, 1, 2), (3, 7, 9)]:
        chk = fixed_support_index(golay5, 3, S)
        assert chk.ok and chk.lam == 1


def test_fixed_support_index_drs():
    fam = family_from_code(doubly_extended_rs_code(8, 3), 7)
    chk = fixed_support_index(fam, 2, (0, 1))
    assert chk.ok and chk.lam == 3 == math.comb(7, 2) // 7


def test_fixed_support_constant_zero_is_not_a_design_proof():
    # all blocks vanish on the fixed support: the count is constant 0,
    # which only certifies a design under the transitivity proviso
    fam = BlockFamily(F3, 4, 2, [[0, 0, 1, 1], [0, 0, 1, 2]])
    chk = fixed_support_index(fam, 2, (0, 1))
    assert chk.ok and chk.lam == 0
    assert "transitive" in chk.detail


def test_gdd_simplex(simplex9):
    inst = to_gdd(simplex9, 2, 3)
    assert inst.n_points == 26 and inst.group_size == 2 and inst.n_groups == 13
    # point i * g + v - 1 is value v at coordinate i
    g = inst.group_size
    decoded = set()
    for b in inst.blocks:
        row = [0] * inst.n_groups
        for p in b:
            row[p // g] = p % g + 1
        decoded.add(tuple(row))
    assert len(inst.blocks) == len(simplex9)
    assert decoded == set(map(tuple, simplex9.blocks.tolist()))


def test_gdd_binary_is_classical():
    fam = family_from_code(simplex_code(2, 3), 4)  # 2-(7,4,2) binary design
    chk = qary_design_index(fam, 2)
    assert chk.ok and chk.lam == 2
    inst = to_gdd(fam, 2, chk.lam)
    assert inst.group_size == 1 and inst.n_points == 7
    assert all(len(b) == 4 for b in inst.blocks)


def test_gdd_verification_rejects_bad_index(simplex9):
    with pytest.raises(AssertionError):
        to_gdd(simplex9, 2, 4)


def test_outer_distribution_at_zero_is_weight_distribution():
    G = ternary_golay_code()
    counts = outer_distribution(G, np.zeros(11, dtype=int))
    assert (counts == weight_distribution(G, "direct")).all()


@pytest.mark.parametrize("x", [[3] * 11, [-1] + [0] * 10, [0] * 10 + [7]])
def test_outer_distribution_rejects_vectors_outside_the_space(x):
    with pytest.raises(ParameterError, match=r"outside \[0, 3\)"):
        outer_distribution(ternary_golay_code(), x)


def test_hamming_completely_regular():
    H = hamming_code(3, 3)
    assert is_t_regular(H, 1).regular  # rho = 1: complete regularity


def test_golay_completely_regular():
    G = ternary_golay_code()
    res = is_t_regular(G, 2)
    assert res.regular and res.exhaustive


def test_regularity_over_budget_raises_and_names_the_budget(monkeypatch):
    F2 = field_make(2)
    wide = code_from_generator(F2, [[1] * 26])  # syndrome space 2^25
    with pytest.raises(CapacityError, match=r"BUDGETS\['syndromes'\]"):
        is_t_regular(wide, 1)
    rows = np.concatenate([np.eye(23, dtype=int), np.ones((23, 1), dtype=int)], axis=1)
    big = code_from_generator(F2, rows)  # 2^23 codewords
    monkeypatch.setenv("QDESIGN_BUDGET", str((1 << 23) - 1))
    with pytest.raises(CapacityError, match=r"BUDGETS\['codewords'\]"):
        is_t_regular(big, 1)


def test_regularity_against_full_table_oracle():
    C = code_from_generator(F3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    dist, hist = full_outer_table(C)
    for t in (1, 2):
        expect = all(np.unique(hist[dist == dv], axis=0).shape[0] <= 1
                     for dv in range(t + 1))
        assert is_t_regular(C, t).regular == expect


def test_coset_representatives_match_brute_force_leaders():
    from collections import Counter
    C = code_from_generator(F3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    reps = coset_representatives(C, 4)
    assert len(reps) == 3 ** 2  # q^(n-k) cosets
    # d(x, C) is constant on cosets, so the brute-force distance histogram
    # over the whole space is |C| copies of the leader-weight histogram
    dist, _ = full_outer_table(C)
    brute = Counter(int(d) for d in dist)
    leaders = Counter(int(w) for w in (reps != 0).sum(axis=1))
    assert brute == {w: c * C.size for w, c in leaders.items()}


def test_family_file_roundtrip(tmp_path, golay5):
    """A saved native family lists its blocks, so it is read back native,
    and saving the reload writes the same bytes."""
    path = tmp_path / "fam.txt"
    save_family(golay5, path)
    back = load_family(path)
    assert back.n == 11 and back.w == 5 and len(back) == 132
    assert np.array_equal(back.blocks, golay5.blocks)
    assert back._blocks is None and len(back.scalar_orbits) == 66
    save_family(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("text, line", [
    ("3 4 2 -3\n", 1),                            # negative block count
    ("3 4 2 2\n1 1 0 0\n2 3 0 0\n", 3),            # entry outside [0, q)
    ("3 4 2 1\n1 1 0 0\n\n2 2 0 0\n", 4),          # a row past the declared count
])
def test_family_file_parse_errors(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_family(path)
    assert err.value.line == line


def test_outer_distribution_is_budgeted(monkeypatch):
    G = ternary_golay_code()  # 3^6 = 729 codewords
    monkeypatch.setenv("QDESIGN_BUDGET", "100")
    with pytest.raises(CapacityError, match="QDESIGN_BUDGET"):
        outer_distribution(G, np.zeros(11, dtype=np.int32))
