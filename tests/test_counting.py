import math
import random
from itertools import combinations

import pytest

from qdesign.counting import (
    block_sets,
    block_sets_bruteforce,
    blocks_as_family,
    esp,
    esp_value,
    moebius,
    shifted_esp_zero_blocks,
    subset_product_constancy,
    subset_product_count,
    subset_product_count_bruteforce,
    subset_sum_count,
    subset_sum_count_bruteforce,
)
from qdesign.designs import classical_design_index
from qdesign.errors import BUDGETS, CapacityError, ParameterError
from qdesign.fields import field_make, quadratic_extension


def test_moebius_small():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_esp_trivial_degrees():
    F = field_make(8)
    elems = [3, 5, 7, 2]
    assert esp_value(F, elems, 0) == 1
    s1 = 0
    for u in elems:
        s1 = F.add(s1, u)
    assert esp_value(F, elems, 1) == s1


def test_esp_matches_direct_expansion():
    F = field_make(9)
    rng = random.Random(5)
    for _ in range(20):
        elems = rng.sample(range(1, 9), 6)
        # direct 20-term expansion of the degree-3 polynomial
        acc = 0
        for trip in combinations(elems, 3):
            prod = 1
            for u in trip:
                prod = F.mul(prod, u)
            acc = F.add(acc, prod)
        assert esp_value(F, elems, 3) == acc


def test_esp_shift_identity_char2():
    # sigma_3 of a translated 4-set agrees with direct recomputation
    ext = quadratic_extension(8)
    top = ext.top
    rng = random.Random(8)
    for _ in range(30):
        elems = rng.sample(range(1, top.q), 4)
        a = rng.randrange(1, top.q)
        shifted = [top.sub(u, a) for u in elems]
        direct = esp_value(top, shifted, 3)
        # binomial-shift formula used by the vectorized path
        sig = esp(top, elems, 3)
        acc = 0
        for i in range(4):
            coeff = math.comb(4 - i, 3 - i) % 2
            if coeff:
                acc = top.add(acc, top.mul(top.pow(top.neg(a), 3 - i), sig[i]))
        assert direct == acc


def test_subset_sum_single_element():
    for n in range(2, 10):
        for b in range(n):
            assert subset_sum_count(n, 1, b) == 1


def test_subset_sum_small_case():
    assert subset_sum_count(4, 2, 0) == 1  # only {1, 3}


def test_subset_sum_formula_exhaustive():
    for n in range(1, 13):
        for k in range(n + 1):
            for b in range(n):
                assert subset_sum_count(n, k, b) == \
                    subset_sum_count_bruteforce(n, k, b), (n, k, b)


def test_subset_product_counts():
    F8 = field_make(8)
    for c in range(1, 8):
        assert subset_product_count(F8, 3, c) == 5
        assert subset_product_count_bruteforce(F8, 3, c) == 5
    F9 = field_make(9)
    assert subset_product_count(F9, 3, 5) == math.comb(8, 3) // 8 == 7
    with pytest.raises(ParameterError):
        subset_product_count(F8, 2, 0)


def test_subset_product_partition():
    F = field_make(9)
    for k in range(1, 8):
        total = sum(subset_product_count(F, k, c) for c in range(1, 9))
        assert total == math.comb(8, k)


def test_subset_product_constancy_matches_gcd():
    for q in (4, 5, 7, 8, 9, 11, 13, 16):
        F = field_make(q)
        for k in range(1, q - 1):
            const, table = subset_product_constancy(F, k)
            brute = {c: subset_product_count_bruteforce(F, k, c)
                     for c in range(1, q)} if q <= 9 else None
            if brute is not None:
                assert table == brute
            if math.gcd(k, q - 1) == 1:
                assert const
                assert set(table.values()) == {math.comb(q - 1, k) // (q - 1)}


def test_block_sets_match_bruteforce_q8():
    ext = quadratic_extension(8)
    bs = block_sets(ext, 6, 3, "plain")
    brute = block_sets_bruteforce(ext, 6, 3, "plain")
    assert [tuple(r) for r in bs.positions] == brute
    bsb = block_sets(ext, 5, 3, "shifted")
    bruteb = block_sets_bruteforce(ext, 5, 3, "shifted")
    assert [tuple(r) for r in bsb.positions] == [t[0] for t in bruteb]
    assert bsb.base_counts.tolist() == [t[1] for t in bruteb]


def test_block_sets_q8_sizes():
    # at q = 8 the plain family is empty (the design index (q-8)/2 vanishes)
    ext = quadratic_extension(8)
    assert len(block_sets(ext, 6, 3)) == 0
    assert len(block_sets(ext, 5, 3, "shifted")) == 126


def test_block_sets_q32_counts_and_designs():
    ext = quadratic_extension(32)
    b63 = block_sets(ext, 6, 3)
    assert len(b63) == 32736 == 12 * math.comb(33, 4) // math.comb(6, 4)
    chk = classical_design_index(blocks_as_family(b63), 4)
    assert chk.ok and chk.lam == 12
    b53 = shifted_esp_zero_blocks(ext, 5, 3)
    assert len(b53) == 40920
    chk = classical_design_index(blocks_as_family(b53), 4)
    assert chk.ok and chk.lam == 5
    assert set(b53.base_counts.tolist()) == {1}


def test_blocks_as_family_is_binary():
    ext = quadratic_extension(8)
    fam = blocks_as_family(block_sets(ext, 5, 3, "shifted"))
    assert fam.field.q == 2 and fam.n == 9 and fam.w == 5


def test_subset_budget_names_its_knob(monkeypatch):
    ext = quadratic_extension(4)  # C(5, 3) = 10 subsets of the norm-one group
    want = block_sets(ext, 3, 1).positions.tolist()
    monkeypatch.setitem(BUDGETS, "subsets", 10)
    assert block_sets(ext, 3, 1).positions.tolist() == want
    monkeypatch.setitem(BUDGETS, "subsets", 9)
    for variant in ("plain", "shifted"):
        with pytest.raises(CapacityError, match=r"errors\.BUDGETS\['subsets'\] = 9"):
            block_sets(ext, 3, 1, variant)
