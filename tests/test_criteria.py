import math
import random
from fractions import Fraction

import pytest

import qdesign.linear as L
from qdesign.criteria import (
    assmus_mattson_criterion,
    criteria_bundle,
    dual_profile,
    extremal_quaternary_strength,
    extremal_ternary_strength,
    mds_check,
    parameter_gap_criterion,
    perfect_check,
    puncture_shorten_criterion,
)
from qdesign.designs import family_from_code, qary_design_index
from qdesign.errors import BUDGETS, CapacityError, ParameterError, RankError
from qdesign.fields import field_make
from qdesign.linear import code_from_generator, code_profile, dual, puncture, shorten
from qdesign.zoo import (
    doubly_extended_rs_code,
    hamming_code,
    hyperoval_code,
    ovoid_code,
    reed_solomon_code,
    simplex_code,
    ternary_golay_code,
)


@pytest.fixture(scope="module")
def golay_profile():
    return code_profile(ternary_golay_code(), compute_rho=True)


def test_parameter_gap_golay(golay_profile):
    rep = parameter_gap_criterion(golay_profile)
    assert rep.applies and rep.t == 3  # d - s_dual = 5 - 2
    assert rep.indices["A_5"] == 1


def test_parameter_gap_simplex():
    rep = parameter_gap_criterion(code_profile(simplex_code(3, 3)))
    assert rep.applies and rep.t == 2  # d_dual - s = 3 - 1
    assert rep.indices["A_9"] == 3


def test_parameter_gap_none_on_generic_code():
    rng = random.Random(3)
    found_none = False
    for _ in range(30):
        rows = [[rng.randrange(3) for _ in range(10)] for _ in range(5)]
        try:
            C = code_from_generator(field_make(3), rows, strict=False)
        except RankError:
            continue
        prof = code_profile(C)
        if prof.d <= prof.s_dual and prof.d_dual <= prof.s:
            rep = parameter_gap_criterion(prof)
            assert not rep.applies
            found_none = True
    assert found_none


def test_parameter_gap_predictions_confirmed(golay_profile):
    rep = parameter_gap_criterion(golay_profile)
    G = ternary_golay_code()
    for w in rep.code_weights:
        chk = qary_design_index(family_from_code(G, w), rep.t)
        assert chk.ok and chk.lam == rep.indices[f"A_{w}"]


def test_puncture_shorten_criterion_hyperoval_dual():
    for q in (4, 8):
        Td = dual(hyperoval_code(q))
        prof = code_profile(Td)
        rep = puncture_shorten_criterion(prof)
        assert rep.applies and rep.t == 2
        assert rep.indices["punctured:A_3"] == 1
        assert rep.indices["shortened:A_4"] == Fraction(q - 2, 2)
        # confirmed by counting on the actual punctured/shortened codes
        chk_p = qary_design_index(family_from_code(puncture(Td, 0), 3), 2)
        chk_s = qary_design_index(family_from_code(shorten(Td, 0), 4), 2)
        assert chk_p.lam == 1 and chk_s.lam == (q - 2) // 2


def test_puncture_shorten_needs_full_weight_dual():
    prof = code_profile(hamming_code(3, 3))
    rep = puncture_shorten_criterion(prof)
    # the simplex dual has a single nonzero weight 9 < 13
    assert not rep.applies


def test_puncture_shorten_divisible_code_covers_all_weights():
    # self-dual divisible code: every weight is isolated, so predictions
    # cover the whole weight set
    from qdesign.zoo import pless_symmetry_code
    P = pless_symmetry_code(12)
    rep = puncture_shorten_criterion(code_profile(P))
    assert rep.applies and rep.t == 3
    assert rep.code_weights == [6, 9, 12]
    # puncturing the length-12 symmetry code leaves a perfect [11,6,5] code
    # whose minimum-weight class confirms the predicted index
    assert rep.indices["punctured:A_5"] == 1
    chk = qary_design_index(family_from_code(puncture(P, 0), 5), 3)
    assert chk.ok and chk.lam == 1


def test_assmus_mattson_golay(golay_profile):
    rep = assmus_mattson_criterion(golay_profile)
    assert rep.applies and rep.t == 4
    assert rep.code_weights == [5, 6, 8, 9]
    assert rep.indices["B_5"] == 1


def test_assmus_mattson_ovoid_dual_side():
    prof = code_profile(ovoid_code(4))
    rep = assmus_mattson_criterion(dual_profile(prof))
    assert rep.applies and rep.t == 3
    assert 4 in rep.code_weights and 12 in rep.dual_weights
    assert rep.indices["B_4"] == 2
    assert rep.indices["B_12(dual)"] == 22


def test_assmus_mattson_none_when_dual_weights_everywhere():
    # the full space has every dual... use a code whose dual has all weights
    rng = random.Random(17)
    seen_none = False
    for _ in range(30):
        rows = [[rng.randrange(3) for _ in range(8)] for _ in range(4)]
        try:
            C = code_from_generator(field_make(3), rows, strict=False)
        except RankError:
            continue
        prof = code_profile(C)
        rep = assmus_mattson_criterion(prof)
        if not rep.applies:
            seen_none = True
    assert seen_none


def test_mds_check_rs_and_drs():
    prof = code_profile(reed_solomon_code(16, 4))
    rep = mds_check(prof)
    assert rep.applies
    assert rep.indices["A_12"] == math.comb(14, 11)
    assert rep.indices["count_A_12"] == 15 * math.comb(15, 12)
    assert not rep.provisos
    for q, k in ((8, 3), (9, 4), (16, 5)):
        assert mds_check(code_profile(doubly_extended_rs_code(q, k))).applies


def test_mds_check_hamming_false():
    rep = mds_check(code_profile(hamming_code(3, 3)))
    assert not rep.applies


def test_mds_design_cross_check():
    C = reed_solomon_code(16, 4)
    fam = family_from_code(C, 12)
    chk = qary_design_index(fam, 1)
    assert chk.ok and chk.lam == math.comb(14, 11) == 364


def test_perfect_check():
    assert perfect_check(code_profile(hamming_code(3, 3), compute_rho=True)).applies
    golay = perfect_check(code_profile(ternary_golay_code(), compute_rho=True))
    assert golay.applies and golay.t == 3
    simplex = perfect_check(code_profile(simplex_code(3, 3), compute_rho=True))
    assert not simplex.applies
    norho = perfect_check(code_profile(simplex_code(3, 3)))
    assert not norho.applies and "not computed" in norho.reason


def test_perfect_design_cross_check():
    H = hamming_code(3, 3)
    chk = qary_design_index(family_from_code(H, 3), 2)
    assert chk.ok and chk.lam == 1


def test_extremal_strength_schedules():
    assert extremal_ternary_strength(12) == 3
    assert extremal_ternary_strength(24) == 3
    assert extremal_ternary_strength(16) == 2
    assert extremal_ternary_strength(20) == 1
    assert extremal_quaternary_strength(30) == 2
    assert extremal_quaternary_strength(18) == 2
    with pytest.raises(ParameterError):
        extremal_ternary_strength(13)


def test_criteria_bundle_shape():
    out = criteria_bundle(ternary_golay_code())
    names = [r["criterion"] for r in out["criteria"]]
    assert names == ["parameter-gap", "puncture-shorten", "assmus-mattson",
                     "mds", "perfect"]
    assert out["profile"]["d"] == 5


def test_criteria_fallback_counts_the_codewords_once(monkeypatch):
    # ovoid_code(4) has a 4^13 syndrome space, over the `syndromes`
    # budget: rho is left None, and the weight distribution is not redone
    C = ovoid_code(4)
    want = code_profile(C).to_dict()
    calls = []

    def counted(*args, real=L.weight_distribution, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(L, "weight_distribution", counted)
    out = criteria_bundle(C)
    assert calls == [C]
    assert out["profile"]["rho"] is None and out["profile"]["perfect"] is None
    assert out["profile"] == want
    # a weight distribution over budget is not a fallback
    monkeypatch.setitem(BUDGETS, "codewords", C.size - 1)
    with pytest.raises(CapacityError, match="codewords"):
        criteria_bundle(C)
