import math
import random
from itertools import combinations

import numpy as np
import pytest

from counting_oracles import block_sets_bruteforce, esp_value, subset_product_count_bruteforce
from qdesign.counting import (
    block_sets,
    blocks_as_family,
    esp,
    esp_np,
    moebius,
    shifted_esp_zero_blocks,
    subset_product_constancy,
    subset_product_count,
    subset_sum_count,
    subset_sum_count_bruteforce,
    subset_sum_counts_bruteforce,
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


@pytest.mark.parametrize("elems, message", [
    ([1, 2, 9], "outside the field"), ([1, -1], "outside the field"),
    ([1, 2.5], "not integers"), (["a"], "not integers")])
def test_esp_checks_its_entries(elems, message):
    with pytest.raises(ParameterError, match=f"multiset entries .*{message}"):
        esp(field_make(4), elems, 1)
    assert esp(field_make(4), [1.0, 2, 3], 2) == esp(field_make(4), [1, 2, 3], 2)


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


def test_subset_sum_histogram_matches_one_target_counts():
    # the one-pass histogram of the drs suite against a count per target
    for n in range(1, 10):
        for k in range(n + 1):
            assert subset_sum_counts_bruteforce(n, k) == \
                [subset_sum_count_bruteforce(n, k, b) for b in range(n)], (n, k)


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


# the grid of (q, k, l) the subset-tree sweep is checked on against the
# per-subset oracle; q = 3, 5, 7, 9, 11, 13 are odd characteristic, where
# the coefficients of the binomial shift carry signs
GRID_Q = (3, 4, 5, 7, 8, 9, 11, 13)


def _assert_matches_bruteforce(ext, k, l, variant):
    bs = block_sets(ext, k, l, variant)
    brute = block_sets_bruteforce(ext, k, l, variant)
    assert bs.positions.dtype == np.int16 and bs.positions.shape == (len(brute), k)
    if variant == "plain":
        assert [tuple(r) for r in bs.positions.tolist()] == brute
        assert bs.base_counts is None and bs.base_mask is None
        return
    assert [tuple(r) for r in bs.positions.tolist()] == [b[0] for b in brute]
    assert bs.base_counts.dtype == np.int16
    assert bs.base_counts.tolist() == [b[1] for b in brute]
    assert bs.base_mask.dtype == bool
    assert [tuple(r) for r in bs.base_mask.tolist()] == [b[2] for b in brute]


@pytest.mark.parametrize("variant", ["plain", "shifted"])
@pytest.mark.parametrize("q", GRID_Q)
def test_sweep_matches_bruteforce(q, variant):
    ext = quadratic_extension(q)
    for k in range(2, min(q + 1, 6) + 1):
        for l in range(1, k):
            _assert_matches_bruteforce(ext, k, l, variant)


@pytest.mark.parametrize("q", [5, 8])
def test_degree_bounds(q):
    # l = k is in range: no k-subset has sigma_k = 0, and sigma_k(B - a)
    # vanishes for every point a of every k-subset; l = 0 gives nothing
    ext = quadratic_extension(q)
    for k in (1, 3, q + 1):
        for l in (0, k):
            for variant in ("plain", "shifted"):
                _assert_matches_bruteforce(ext, k, l, variant)
        shifted = shifted_esp_zero_blocks(ext, k, k)
        assert len(shifted) == math.comb(q + 1, k)
        assert set(shifted.base_counts.tolist()) == {k}
        for l in (-1, k + 1):
            for variant in ("plain", "shifted"):
                with pytest.raises(ParameterError, match="degree out of range"):
                    block_sets(ext, k, l, variant)
    assert len(block_sets(ext, q + 2, 1)) == 0


def _reference_block_sets(ext, k, l, variant):
    """Every k-subset as one row of a (C(q+1,k) x k) element matrix, sigmas
    by `esp_np` on all rows, and the shifted test as k deletions."""
    top = ext.top
    U = np.array(ext.norm_one_group(), dtype=np.int32)
    combos = np.array(list(combinations(range(len(U)), k)), dtype=np.int16)
    elems = U[combos]
    if variant == "plain":
        keep = esp_np(top, elems, l)[l] == 0
        return combos[keep], None, None
    mask = np.zeros(combos.shape, dtype=bool)
    for j in range(k):
        a = elems[:, j]
        sig = esp_np(top, np.delete(elems, j, axis=1), l)
        shifted = np.zeros(len(combos), dtype=np.int32)
        for i in range(l + 1):
            coeff = (-1) ** (l - i) * math.comb(k - 1 - i, l - i) % top.p
            power = np.array([top.pow(int(x), l - i) for x in a], dtype=np.int32)
            term = top.mul_scalar_np(coeff, top.mul_np(power, sig[i]))
            shifted = top.add_np(shifted, term)
        mask[:, j] = shifted == 0
    counts = mask.sum(axis=1).astype(np.int16)
    keep = counts > 0
    return combos[keep], counts[keep], mask[keep]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_sweep_matches_per_row_reference_q16(k):
    ext = quadratic_extension(16)
    for l in range(1, k):
        for variant in ("plain", "shifted"):
            bs = block_sets(ext, k, l, variant)
            for got, want in zip((bs.positions, bs.base_counts, bs.base_mask),
                                 _reference_block_sets(ext, k, l, variant)):
                if want is None:
                    assert got is None
                else:
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
