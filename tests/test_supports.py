"""Support counting against set-of-supports oracles.

`classical_design_index` (distinct and multiset) is checked against a
containment count over every t-subset in colex order, and
`support_multiplicity` and `is_complete_support_design` against a plain
set of supports, on the random families of `test_orbits` over GF(2, 3, 4,
5, 7, 8, 9).  The count table's budget and its cell order are checked
directly.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdesign import designs as D
from qdesign.designs import (
    BlockFamily,
    DesignCheck,
    SupportMultiplicity,
    classical_design_index,
    expected_index,
    fixed_support_index,
    is_complete_support_design,
    qary_design_index,
    support_multiplicity,
)
from qdesign.errors import BUDGETS, CapacityError
from qdesign.fields import field_make
from qdesign.zoo import ternary_golay_code

from test_orbits import families


def _supports(fam):
    return [tuple(int(i) for i in np.flatnonzero(b)) for b in fam.blocks]


def brute_classical(fam, t, distinct=True, want_witness=True):
    q, n, w = fam.field.q, fam.n, fam.w
    sups = [set(s) for s in (set(_supports(fam)) if distinct else _supports(fam))]
    exp = expected_index(len(sups), t, n, w, q, qary=False)
    if exp.denominator != 1 and not want_witness:
        return DesignCheck("classical", t, ok=False, expected=exp,
                           detail="forced index non-integral")
    colex = sorted(combinations(range(n), t), key=lambda S: S[::-1])
    counts = [sum(set(S) <= s for s in sups) for S in colex]
    target = int(exp) if exp.denominator == 1 else counts[0]
    for S, count in zip(colex, counts):
        if count != target:
            return DesignCheck("classical", t, ok=False, witness=S, witness_count=count,
                               expected=exp, detail="deviant containment count"
                               + ("" if distinct else " (multiset)"))
    return DesignCheck("classical", t, ok=True, lam=target, expected=exp,
                       detail="" if distinct else "multiset")


def brute_support_multiplicity(fam, expect=None):
    """Supports as 0/1 vectors, visited in lexicographic order."""
    if expect is None:
        expect = fam.field.q - 1
    counts = Counter(tuple(int(v != 0) for v in b) for b in fam.blocks)
    for vec, count in sorted(counts.items()):
        if count != expect:
            wit = tuple(i for i, v in enumerate(vec) if v)
            return SupportMultiplicity(False, len(counts), None, witness=wit,
                                       witness_count=count)
    return SupportMultiplicity(True, len(counts), expect)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(families(), st.data())
def test_support_checks_match_set_oracle(case, data):
    fam, _ = case
    for t in range(1, min(fam.w, 4) + 1):
        for distinct in (True, False):
            for want in (True, False):
                got = classical_design_index(fam, t, distinct=distinct, want_witness=want)
                assert got == brute_classical(fam, t, distinct, want)
    assert support_multiplicity(fam) == brute_support_multiplicity(fam)
    expect = data.draw(st.integers(1, 2 * (fam.field.q - 1)))
    assert support_multiplicity(fam, expect) == brute_support_multiplicity(fam, expect)
    assert is_complete_support_design(fam) == \
        (len(set(_supports(fam))) == math.comb(fam.n, fam.w))


def test_complete_support_design_both_ways():
    F = field_make(3)
    every = [[1 if i in S else 0 for i in range(4)] for S in combinations(range(4), 2)]
    assert is_complete_support_design(BlockFamily(F, 4, 2, every))
    assert not is_complete_support_design(BlockFamily(F, 4, 2, every[1:]))


def test_an_empty_family_has_no_supports():
    """A weight class with no words (A_7 = 0 for the ternary Golay code) and
    an empty raw family: both support checks fail with no supports, as the
    design checks call an empty family vacuous."""
    F = field_make(3)
    for fam in (D.family_from_code(ternary_golay_code(), 7),
                BlockFamily(F, 4, 2, np.zeros((0, 4), dtype=int))):
        assert len(fam) == 0
        for expect in (None, 1):
            assert support_multiplicity(fam, expect) == SupportMultiplicity(False, 0, None)
        assert not is_complete_support_design(fam)
        assert classical_design_index(fam, 1).vacuous and qary_design_index(fam, 1).vacuous


@pytest.mark.parametrize("n,t,q,npat", [(6, 1, 3, 2), (6, 3, 3, 4), (7, 2, 4, 9), (5, 5, 2, 1)])
def test_cell_order_is_lex_subset_then_pattern(n, t, q, npat):
    cells = [(list(S), p) for S in combinations(range(n), t) for p in range(npat)]
    for cell, (S, p) in enumerate(cells):
        vec = D._unrank(cell, n, t, q, npat)
        assert [i for i in range(n) if vec[i]] == S
        digits = [vec[s] - 1 for s in S]
        assert sum(d * (q - 1) ** (t - 1 - j) for j, d in enumerate(digits)) == p


def test_count_table_budget(monkeypatch):
    # a single weight-20 block at t=10: C(40,10) subsets, one pattern
    big = BlockFamily(field_make(2), 40, 20, [[1] * 20 + [0] * 20])
    with pytest.raises(CapacityError, match=r"BUDGETS\['count_table'\]"):
        classical_design_index(big, 10)
    # its forced index C(20,10) / C(40,10) = 1/4588 is not an integer, so
    # without a witness both checks fail before the table is sized
    for check in (qary_design_index, classical_design_index):
        chk = check(big, 10, want_witness=False)
        assert not chk.ok and chk.detail == "forced index non-integral"
        assert chk.expected == Fraction(1, 4588) and chk.witness is None
        with pytest.raises(CapacityError, match=r"BUDGETS\['count_table'\]"):
            check(big, 10)
    # an open family over GF(1024): (q-1)^3 patterns on one support
    wide = BlockFamily(field_make(1024), 4, 3, [[1, 2, 3, 0]])
    with pytest.raises(CapacityError, match=r"BUDGETS\['count_table'\]"):
        fixed_support_index(wide, 3, (0, 1, 2))
    # the cap is on C(n,t) * P cells: 165 subsets of 11 points at t=3, and
    # (q-1)^(t-1) = 4 patterns for the closed ternary Golay class
    golay = D.family_from_code(ternary_golay_code(), 5)
    monkeypatch.setitem(BUDGETS, "count_table", 165)
    assert classical_design_index(golay, 3).ok
    with pytest.raises(CapacityError, match=r"errors\.BUDGETS\['count_table'\] = 165"):
        qary_design_index(golay, 3)
    monkeypatch.setitem(BUDGETS, "count_table", 660)
    assert qary_design_index(golay, 3).ok
    monkeypatch.setitem(BUDGETS, "count_table", 659)
    with pytest.raises(CapacityError, match=r"errors\.BUDGETS\['count_table'\] = 659"):
        qary_design_index(golay, 3)
    monkeypatch.setitem(BUDGETS, "count_table", 164)
    with pytest.raises(CapacityError, match=r"errors\.BUDGETS\['count_table'\] = 164"):
        classical_design_index(golay, 3)
