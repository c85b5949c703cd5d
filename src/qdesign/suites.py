"""Reproducible verification suites.

Each suite runs a fixed list of claims -- exact-count design
verifications, criterion predictions, and cross-checks -- and reports
PASS, FAIL or SKIP per claim.  Claims are identified by stable ids and
self-contained mathematical descriptions; rows whose constructions are
not available (the two Hill two-weight codes, the length-30 quaternary
quadratic-residue extension) are reported SKIP with the reason, never
dropped.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import counting as K
from . import criteria as CR
from . import designs as D
from . import linear as L
from . import zoo as Z
from .errors import env_count
from .fields import field_make


@dataclass
class Claim:
    claim_id: str
    description: str
    status: str            # PASS | FAIL | SKIP
    details: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        extra = ""
        if self.status == "SKIP" and "reason" in self.details:
            extra = f"  ({self.details['reason']})"
        return f"{self.status:4s} {self.claim_id}: {self.description}{extra}"

    def to_dict(self) -> dict:
        return {"claim_id": self.claim_id, "description": self.description,
                "status": self.status, "details": D.report_value(self.details)}


def _claim(cid, desc, ok, **details) -> Claim:
    return Claim(cid, desc, "PASS" if ok else "FAIL", details)


def _skip(cid, desc, reason) -> Claim:
    return Claim(cid, desc, "SKIP", {"reason": reason})


def _qary(cid, fam, t, lam, desc=None) -> Claim:
    desc = desc or f"{fam.source} is a q-ary {t}-({fam.n},{fam.w},{lam}) design"
    chk = D.qary_design_index(fam, t)
    return _claim(cid, desc, chk.ok and chk.lam == lam,
                  found=chk.lam, expected=lam, witness=chk.witness)


def _classical(cid, fam, t, lam, desc=None) -> Claim:
    desc = desc or f"supports of {fam.source} form a {t}-({fam.n},{fam.w},{lam}) design"
    chk = D.classical_design_index(fam, t)
    return _claim(cid, desc, chk.ok and chk.lam == lam,
                  found=chk.lam, expected=lam, witness=chk.witness)


def _fixed(cid, fam, lam, desc) -> Claim:
    chk = D.fixed_support_index(fam, 2, (0, 1))
    return _claim(cid, desc, chk.ok and chk.lam == lam, found=chk.lam,
                  proviso="automorphism triple-transitivity is an asserted input, not computed")


def _complete(cid, fam, desc=None) -> Claim:
    desc = desc or f"supports of {fam.source} form the complete design"
    ok = D.is_complete_support_design(fam)
    return _claim(cid, desc, ok)


# ---------------------------------------------------------------------------
# suite: golay (perfect codes, Golay designs, simplex strength)

def suite_golay(threads=1, heavy=False) -> list[Claim]:
    claims = []

    H = Z.hamming_code(3, 3)
    prof = L.code_profile(H, compute_rho=True)
    claims.append(_claim("hamming-perfect",
                         "[13,10,3]_3 Hamming code is perfect (e = rho = 1)",
                         prof.is_perfect and prof.e == 1))
    all_ok = True
    for w in prof.weights:
        chk = D.qary_design_index(D.family_from_code(H, w), 2, want_witness=False)
        all_ok &= chk.ok
    claims.append(_claim("hamming-all-weights",
                         "every nonempty weight class of the [13,10,3]_3 Hamming "
                         "code is a ternary 2-design", all_ok))
    claims.append(_qary("hamming-A3", D.family_from_code(H, 3), 2, 1,
                        "[13,10,3]_3 Hamming weight-3 words form a 2-(13,3,1)_3 design"))

    G = Z.ternary_golay_code()
    gprof = L.code_profile(G, compute_rho=True)
    claims.append(_claim("golay-profile",
                         "[11,6,5]_3 Golay: d=5, dual distance 6, s=5, "
                         "external distance 2, e=rho=2, repeat bound 9",
                         (gprof.d, gprof.d_dual, gprof.s, gprof.s_dual, gprof.e,
                          gprof.rho, gprof.h) == (5, 6, 5, 2, 2, 2, 9)))
    gfam5 = D.family_from_code(G, 5)
    claims.append(_qary("golay-A5", gfam5, 3, 1,
                        "Golay weight-5 words form a 3-(11,5,1)_3 design"))
    claims.append(_classical("golay-B5", gfam5, 4, 1,
                             "Golay weight-5 supports form a 4-(11,5,1) design"))
    ok = True
    for w in gprof.weights:
        ok &= D.qary_design_index(D.family_from_code(G, w), 3, want_witness=False).ok
    claims.append(_claim("golay-all-weights",
                         "every nonempty weight class of the Golay code is a "
                         "ternary 3-design", ok))
    s5 = D.max_strengths(gfam5)
    claims.append(_claim("golay-strengths",
                         "Golay weight-5 strengths: exactly 3 (q-ary) and 4 (classical)",
                         (s5.t_qary, s5.t_classical) == (3, 4),
                         found=(s5.t_qary, s5.t_classical)))
    crit = CR.parameter_gap_criterion(gprof)
    claims.append(_claim("golay-parameter-gap",
                         "parameter-gap criterion predicts strength 3 for the Golay code",
                         crit.applies and crit.t == 3, found=crit.t))
    am = CR.assmus_mattson_criterion(gprof)
    claims.append(_claim("golay-assmus-mattson",
                         "Assmus-Mattson predicts classical 4-designs at weight 5",
                         am.applies and am.t == 4 and 5 in am.code_weights, found=am.t))

    S = Z.simplex_code(3, 3)
    sfam = D.family_from_code(S, 9)
    claims.append(_qary("simplex-A9", sfam, 2, 3,
                        "simplex(3,3) weight-9 words form a 2-(13,9,3)_3 design"))
    st = D.max_strengths(sfam, want_witness=True)
    claims.append(_claim("simplex-strength",
                         "simplex(3,3) weight-9 q-ary strength is exactly 2",
                         st.t_qary == 2 and st.qary_table[3].witness is not None,
                         witness=st.qary_table[3].witness))
    sprof = L.code_profile(S, compute_rho=True)
    claims.append(_claim("simplex-not-perfect",
                         "simplex(3,3) is not perfect (e=4 differs from rho)",
                         sprof.e == 4 and sprof.rho != sprof.e, rho=sprof.rho))
    gap = CR.parameter_gap_criterion(sprof)
    claims.append(_claim("simplex-parameter-gap",
                         "parameter-gap criterion predicts strength 2 for simplex(3,3)",
                         gap.applies and gap.t == 2, found=gap.t))
    return claims


# ---------------------------------------------------------------------------
# suite: two-weight (table rows for RT6 / TF1 / TF3 and their duals)

def suite_two_weight(threads=1, heavy=False) -> list[Claim]:
    claims = []

    R = Z.golay_dual_code()
    fam6 = D.family_from_code(R, 6)
    fam9 = D.family_from_code(R, 9)
    claims.append(_qary("rt6-A6", fam6, 3, 2,
                        "[11,5,6]_3 weight-6 words form a 3-(11,6,2)_3 design"))
    claims.append(_classical("rt6-B6", fam6, 4, 3,
                             "[11,5,6]_3 weight-6 supports form a 4-(11,6,3) design"))
    claims.append(_qary("rt6-A9", fam9, 3, 7,
                        "[11,5,6]_3 weight-9 words form a 3-(11,9,7)_3 design"))
    claims.append(_complete("rt6-B9", fam9,
                            "[11,5,6]_3 weight-9 supports form the complete design"))

    G = Z.ternary_golay_code()
    gfam = D.family_from_code(G, 5)
    claims.append(_qary("rt6-dual-A5", gfam, 3, 1,
                        "dual [11,6,5]_3 weight-5 words form a 3-(11,5,1)_3 design"))
    claims.append(_classical("rt6-dual-B5", gfam, 4, 1,
                             "dual [11,6,5]_3 weight-5 supports form a 4-(11,5,1) design"))

    for q in (4, 8):
        T = Z.hyperoval_code(q)
        lam = q // 2
        pa = L.code_profile(T)
        claims.append(_claim(
            f"tf1-{q}-enumerator",
            f"[{q + 2},3,{q}]_{q} hyperoval code weight counts are "
            f"(q+2)(q^2-1)/2 and q(q-1)^2/2",
            pa.counts[q] == (q + 2) * (q * q - 1) // 2
            and pa.counts[q + 2] == q * (q - 1) ** 2 // 2))
        claims.append(_qary(f"tf1-{q}-Aq", D.family_from_code(T, q), 2, lam))
        claims.append(_qary(f"tf1-{q}-Aq2", D.family_from_code(T, q + 2), 2, lam))
        Td = L.dual(T)
        fam4 = D.family_from_code(Td, 4)
        claims.append(_qary(f"tf1-{q}-dual-A4", fam4, 2, lam))
        claims.append(_complete(f"tf1-{q}-dual-B4", fam4))

        prof_d = L.code_profile(Td)
        ps = CR.puncture_shorten_criterion(prof_d)
        mu_p = ps.indices.get("punctured:A_3")
        mu_s = ps.indices.get("shortened:A_4")
        claims.append(_claim(
            f"tf1-{q}-ps-prediction",
            f"puncture-shorten criterion on the dual predicts indices 1 and (q-2)/2 "
            f"at length {q + 1}",
            ps.applies and ps.t == 2 and mu_p == 1 and mu_s == Fraction(q - 2, 2),
            punctured=mu_p, shortened=mu_s))
        TP, TS = L.puncture(Td, 0), L.shorten(Td, 0)
        claims.append(_qary(f"tf1-{q}-punctured-A3", D.family_from_code(TP, 3), 2, 1,
                            f"punctured dual yields a 2-({q + 1},3,1)_{q} design"))
        claims.append(_qary(f"tf1-{q}-shortened-A4", D.family_from_code(TS, 4), 2,
                            (q - 2) // 2,
                            f"shortened dual yields a 2-({q + 1},4,{(q - 2) // 2})_{q} design"))

    q = 4
    T3 = Z.ovoid_code(q)
    lam_a = q * q - q - 1
    lam_b = q ** 3 - 3 * q * q + q + 2
    lam_a2 = q + 1
    lam_d = (q + 1) * (q - 2) // 2
    lam_bd = q - 2
    p3 = L.code_profile(T3)
    claims.append(_claim(
        "tf3-4-enumerator",
        "[17,4,12]_4 ovoid code weight counts are (q^2-q)(q^2+1) and (q-1)(q^2+1)",
        p3.counts[12] == (q * q - q) * (q * q + 1)
        and p3.counts[16] == (q - 1) * (q * q + 1)))
    fam12 = D.family_from_code(T3, 12)
    fam16 = D.family_from_code(T3, 16)
    claims.append(_qary("tf3-4-A12", fam12, 2, lam_a,
                        f"ovoid weight-12 words form a 2-(17,12,{lam_a})_4 design"))
    claims.append(_classical("tf3-4-B12", fam12, 3, lam_b,
                             f"ovoid weight-12 supports form a 3-(17,12,{lam_b}) design"))
    claims.append(_qary("tf3-4-A16", fam16, 2, lam_a2,
                        f"ovoid weight-16 words form a 2-(17,16,{lam_a2})_4 design"))
    claims.append(_complete("tf3-4-B16", fam16))
    T3d = L.dual(T3)
    fam4 = D.family_from_code(T3d, 4)
    claims.append(_qary("tf3-4-dual-A4", fam4, 2, lam_d,
                        f"ovoid dual weight-4 words form a 2-(17,4,{lam_d})_4 design"))
    claims.append(_classical("tf3-4-dual-B4", fam4, 3, lam_bd,
                             f"ovoid dual weight-4 supports form a 3-(17,4,{lam_bd}) design"))
    am = CR.assmus_mattson_criterion(CR.dual_profile(p3))
    claims.append(_claim("tf3-4-assmus-mattson",
                         "Assmus-Mattson on the [17,13,4]_4 dual predicts classical "
                         "3-designs at weights 4 (dual) and 12 (ovoid code)",
                         am.applies and am.t == 3 and 12 in am.dual_weights
                         and 4 in am.code_weights, found=am.t))
    return claims


# ---------------------------------------------------------------------------
# suite: tables (two-weight rows plus out-of-scope rows and symbolic checks)

def suite_tables(threads=1, heavy=False) -> list[Claim]:
    claims = suite_two_weight(threads=threads, heavy=heavy)
    claims.append(_skip("fe2", "[56,6,36]_3 Hill-type two-weight code rows",
                        "no generator matrix construction included; "
                        "recorded parameters only"))
    claims.append(_skip("fe3", "[78,6,56]_4 Hill-type two-weight code rows",
                        "no generator matrix construction included; "
                        "recorded parameters only"))
    claims.append(_skip("qr30-enumeration",
                        "extremal [30,15,12]_4 quadratic-residue extension designs",
                        "4^15 codewords exceed desk scale; strength checked "
                        "symbolically instead"))
    claims.append(_claim("extremal-ternary-schedule",
                         "extremal self-dual ternary strengths: 3 at lengths 12 and 24, "
                         "2 at length 16, 1 at length 20",
                         (CR.extremal_ternary_strength(12),
                          CR.extremal_ternary_strength(24),
                          CR.extremal_ternary_strength(16),
                          CR.extremal_ternary_strength(20)) == (3, 3, 2, 1)))
    claims.append(_claim("extremal-quaternary-30",
                         "extremal Hermitian self-dual quaternary length 30 predicts "
                         "strength 2 without enumeration",
                         CR.extremal_quaternary_strength(30) == 2))
    return claims


# ---------------------------------------------------------------------------
# suite: pless (symmetry codes and their designs)

_P12_COUNTS = {6: 264, 9: 440, 12: 24}
_P24_COUNTS = {9: 4048, 12: 61824, 15: 242880, 18: 198352, 21: 24288, 24: 48}
_P12_QARY = {6: 3, 9: 21, 12: 3}
_P12_CLASSICAL = {6: (5, 1), 9: (5, 35), 12: (5, 1)}
_P24_QARY = {9: 21, 12: 840, 15: 6825, 18: 9996, 21: 1995, 24: 6}
_P24_CLASSICAL = {9: (5, 6), 12: (5, 576), 15: (5, 8580),
                  18: (3, 29784), 21: (5, 969), 24: (5, 1)}


def _pless_claims(n, counts, qary, classical, threads) -> list[Claim]:
    claims = []
    P = Z.pless_symmetry_code(n)
    prof = L.code_profile(P, threads=threads)
    found = {i: int(c) for i, c in enumerate(prof.counts) if c and i}
    claims.append(_claim(f"pless{n}-enumerator",
                         f"length-{n} symmetry code weight enumerator matches the "
                         "published counts", found == counts, found=found))
    claims.append(_claim(f"pless{n}-self-dual",
                         f"length-{n} symmetry code is self-dual with divisor 3",
                         L.same_code(P, L.dual(P)) and prof.divisor == 3))
    for w, lam in qary.items():
        fam = D.family_from_code(P, w)
        claims.append(_qary(f"pless{n}-A{w}", fam, 3, lam,
                            f"symmetry code weight-{w} words form a "
                            f"3-({n},{w},{lam})_3 design"))
        tcl, lcl = classical[w]
        claims.append(_classical(f"pless{n}-B{w}", fam, tcl, lcl,
                                 f"symmetry code weight-{w} supports form a "
                                 f"{tcl}-({n},{w},{lcl}) design"))
    return claims


def suite_pless(threads=1, heavy=False) -> list[Claim]:
    claims = _pless_claims(12, _P12_COUNTS, _P12_QARY, _P12_CLASSICAL, threads)
    claims += _pless_claims(24, _P24_COUNTS, _P24_QARY, _P24_CLASSICAL, threads)
    return claims


# ---------------------------------------------------------------------------
# suite: drs (extended Reed-Solomon designs and subset-count machinery)

def suite_drs(threads=1, heavy=False) -> list[Claim]:
    claims = []
    for q, k in ((8, 3), (9, 4), (16, 5)):
        w = q - k + 2
        lam = math.comb(q - 1, k - 1) // (q - 1)
        C = Z.doubly_extended_rs_code(q, k)
        prof = L.code_profile(C)
        claims.append(_claim(f"drs-{q}-{k}-mds",
                             f"doubly-extended RS({q},{k}) is MDS [{q + 1},{k},{w}]",
                             prof.is_mds and prof.d == w))
        fam = D.family_from_code(C, w)
        claims.append(_qary(f"drs-{q}-{k}-A{w}", fam, 2, lam,
                            f"minimum-weight words of DRS({q},{k}) form a "
                            f"2-({q + 1},{w},{lam})_{q} design (gcd(k-1,q-1)=1)"))
        claims.append(_fixed(f"drs-{q}-{k}-fixed", fam, lam,
                             f"fixed-coordinate count on the first two positions "
                             f"is constant {lam} (triple transitivity asserted)"))

    # the gcd hypothesis genuinely matters: (16,4) forces a non-integral index
    C = Z.doubly_extended_rs_code(16, 4)
    idx = D.expected_index(15 * math.comb(17, 14), 2, 17, 14, 16)
    claims.append(_claim("drs-16-4-excluded",
                         "DRS(16,4) has gcd(k-1,q-1)=3 and its weight-14 class is "
                         "not a 2-design (forced index 91/3)",
                         math.gcd(3, 15) == 3 and idx.denominator != 1,
                         forced_index=idx))

    RS = Z.reed_solomon_code(16, 4)
    fam = D.family_from_code(RS, 12)
    st = D.max_strengths(fam, t_cap=2)
    claims.append(_claim("rs-16-4-strength1",
                         "RS [15,4,12]_16 weight-12 words form only a "
                         "1-(15,12,364)_16 design",
                         st.t_qary == 1 and st.qary_table[1].lam == 364,
                         found=st.qary_table[1].lam))
    prof = L.code_profile(RS)
    mds = CR.mds_check(prof)
    claims.append(_claim("rs-16-4-mds",
                         "MDS characterization holds for RS [15,4,12]_16 "
                         "(weight-d count (q-1)C(n,d))",
                         mds.applies and not mds.provisos))

    # subset-count machinery backing the index formula
    ok = all([K.subset_sum_count(n, kk, b) for b in range(n)]
             == K.subset_sum_counts_bruteforce(n, kk)
             for n in range(1, 13) for kk in range(n + 1))
    claims.append(_claim("subset-sums",
                         "cyclic subset-sum counts match brute force for all n <= 12", ok))
    ok = True
    detail = {}
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
        F = field_make(q)
        for kk in range(1, q - 1):
            const, table = K.subset_product_constancy(F, kk)
            if math.gcd(kk, q - 1) == 1:
                want = math.comb(q - 1, kk) // (q - 1)
                ok &= const and set(table.values()) == {want}
            else:
                detail[f"q{q}k{kk}"] = const
    claims.append(_claim("subset-products",
                         "subset-product counts are constant exactly as the gcd "
                         "condition predicts, for q <= 16", ok,
                         nonconstant_cases={k: v for k, v in detail.items() if not v}))
    return claims


# ---------------------------------------------------------------------------
# suite: trace (block sets at q=32 and the [33,6,27] trace code)

def suite_trace(threads=1, heavy=False) -> list[Claim]:
    claims = []
    q, m = 32, 5
    # the two block sets checked first are the ones the trace families are built from
    t27 = Z.trace_min_weight_family(m)
    t28 = Z.trace_next_weight_family(m)

    b63 = t27.zero_sets
    claims.append(_claim("blocks63-count",
                         "6-subsets of the 33 norm-one elements with vanishing "
                         "third symmetric polynomial number 32736",
                         len(b63) == 32736, found=len(b63)))
    fam63 = K.blocks_as_family(b63)
    claims.append(_classical("blocks63-design", fam63, 4, (q - 8) // 2,
                             "those 6-subsets form a 4-(33,6,12) design"))
    b53 = t28.zero_sets
    fam53 = K.blocks_as_family(b53)
    claims.append(_classical("blocks53-design", fam53, 4, 5,
                             "5-subsets with a vanishing translated polynomial "
                             "form a 4-(33,5,5) design"))
    claims.append(_claim("blocks53-unique-base",
                         "every such 5-subset has exactly one valid base point",
                         set(b53.base_counts.tolist()) == {1}))

    lam1 = (q - 2) * (q - 5) * (q - 6) * (q - 8) // math.factorial(6)
    lam2 = (q - 2) * (q - 4) * (q - 5) // math.factorial(4)

    claims.append(_claim("trace-A27-count",
                         "weight-27 words of the [33,6,27]_32 trace code number "
                         "31 * 32736 = 1014816 = 702 * C(33,2) * 31^2 / C(27,2)",
                         len(t27.family) == 31 * 32736 == 702 * math.comb(33, 2) * 31 ** 2
                         // math.comb(27, 2),
                         found=len(t27.family)))
    claims.append(_fixed("trace-A27-fixed", t27.family, lam1,
                         f"fixed-coordinate count at weight 27 is constant {lam1} "
                         "(triple transitivity asserted)"))
    sm = D.support_multiplicity(t27.family)
    claims.append(_claim("trace-A27-multiplicity",
                         "each weight-27 support is shared by exactly 31 words",
                         sm.ok and sm.multiplicity == q - 1))
    full = D.qary_design_index(t27.family, 2)
    claims.append(_claim("trace-A27-full",
                         f"direct verification over all 528 coordinate pairs: "
                         f"2-(33,27,{lam1})_32 design",
                         full.ok and full.lam == lam1, found=full.lam))

    claims.append(_claim("trace-A28-count",
                         "weight-28 words number 31 * 40920 = 1268520",
                         len(t28.family) == 31 * 40920, found=len(t28.family)))
    claims.append(_fixed("trace-A28-fixed", t28.family, lam2,
                         f"fixed-coordinate count at weight 28 is constant {lam2} "
                         "(triple transitivity asserted)"))
    full28 = D.qary_design_index(t28.family, 2)
    claims.append(_claim("trace-A28-full",
                         f"direct verification at weight 28: 2-(33,28,{lam2})_32 design",
                         full28.ok and full28.lam == lam2, found=full28.lam))

    if heavy:
        C = Z.trace_exponent_code(m)
        wd = L.weight_distribution(C, "direct", threads=threads)
        claims.append(_claim("trace-enumeration",
                             "full 32^6 enumeration confirms d = 27, "
                             "A_27 = 1014816 and A_28 = 1268520",
                             int(wd[27]) == 1014816 and int(wd[28]) == 1268520
                             and all(int(wd[i]) == 0 for i in range(1, 27)),
                             counts={i: int(c) for i, c in enumerate(wd) if c}))
    else:
        claims.append(_skip("trace-enumeration",
                            "full 32^6 enumeration of the trace code",
                            "heavy check; rerun with --heavy (about a minute "
                            "with threads)"))
    return claims


SUITES = {
    "golay": suite_golay,
    "two-weight": suite_two_weight,
    "tables": suite_tables,
    "pless": suite_pless,
    "drs": suite_drs,
    "trace": suite_trace,
}


def suite_report(name: str, claims: list[Claim]) -> dict:
    """The report of a run: its claims, PASS/FAIL/SKIP counts and ok flag."""
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for c in claims:
        counts[c.status] += 1
    return {
        "suite": name,
        "claims": [c.to_dict() for c in claims],
        "summary": counts,
        "ok": counts["FAIL"] == 0,
    }


def default_threads() -> int:
    """Worker threads when none are given: QDESIGN_THREADS, else every core.
    A value that is not a non-negative integer is a ParameterError."""
    return env_count("QDESIGN_THREADS", os.cpu_count() or 1)


def run_suite(name: str, threads: int | None = None, heavy: bool = False) -> dict:
    """Run one suite (or 'all'); returns a report dict with per-claim results."""
    threads = default_threads() if threads is None else threads
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)} or 'all'")
    claims: list[Claim] = []
    for n in names:
        claims.extend(SUITES[n](threads=threads, heavy=heavy))
    return suite_report(name, claims)
