"""Predictive oracles for design strength.

Each criterion reads the fundamental parameters of a code (and its
dual) and predicts that fixed-weight codeword sets form designs of a
certain strength, with exact rational indices where the block counts
pin them.  Predictions are claims to be confirmed by the counting
machinery in `designs`; integrality failures downgrade a prediction to
"impossible at this strength" rather than rounding.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

from .designs import expected_index, report_value
from .errors import CapacityError, ParameterError
from .linear import (CodeProfile, LinearCode, code_profile, covering_radius, dual,
                     support_repeat_bound)


@dataclass
class CriterionReport:
    criterion: str
    applies: bool
    t: int | None = None
    reason: str = ""
    code_weights: list[int] = dc_field(default_factory=list)
    dual_weights: list[int] = dc_field(default_factory=list)
    indices: dict[str, Fraction] = dc_field(default_factory=dict)
    provisos: list[str] = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return report_value({
            "criterion": self.criterion, "applies": self.applies, "t": self.t,
            "reason": self.reason,
            "code_weights": self.code_weights, "dual_weights": self.dual_weights,
            "indices": self.indices, "provisos": self.provisos,
        })


def parameter_gap_criterion(prof: CodeProfile) -> CriterionReport:
    """Predict q-ary designs from the gaps d - s_dual and d_dual - s.

    If either gap is positive, every nonempty fixed-weight set of the code
    and of its dual is predicted to be a q-ary t-design with t the larger
    gap.
    """
    t = max(prof.d - prof.s_dual, prof.d_dual - prof.s)
    if t <= 0:
        return CriterionReport("parameter-gap", applies=False,
                               reason=f"d-s_dual={prof.d - prof.s_dual}, "
                                      f"d_dual-s={prof.d_dual - prof.s}: no positive gap")
    rep = CriterionReport("parameter-gap", applies=True, t=t,
                          code_weights=list(prof.weights),
                          dual_weights=list(prof.dual_weights))
    for w in prof.weights:
        if w >= t:
            rep.indices[f"A_{w}"] = expected_index(prof.counts[w], t, prof.n, w, prof.q)
    for w in prof.dual_weights:
        if w >= t:
            rep.indices[f"A_{w}(dual)"] = expected_index(prof.dual_counts[w], t, prof.n, w, prof.q)
    bad = [k for k, v in rep.indices.items() if v.denominator != 1]
    if bad:
        rep.provisos.append(f"non-integral forced index at {bad}: impossible at t={t}")
    return rep


def puncture_shorten_criterion(prof: CodeProfile) -> CriterionReport:
    """Predict q-ary designs of the punctured and shortened codes.

    Needs s_dual < d and the all-coordinate weight n present in the dual.
    With t = d - s_dual and lam_w the index of the weight-w set of the
    parent, the punctured code holds t-(n-1, w-1, lam_w (w-t)/(n-t)) and
    the shortened code t-(n-1, w, lam_w (n-w)/(n-t)) designs, for each w
    whose predecessor w-1 is not itself a code weight.
    """
    n, q = prof.n, prof.q
    if prof.s_dual >= prof.d:
        return CriterionReport("puncture-shorten", applies=False,
                               reason=f"s_dual={prof.s_dual} >= d={prof.d}")
    if n not in prof.dual_weights:
        return CriterionReport("puncture-shorten", applies=False,
                               reason="full-weight word missing from the dual")
    t = prof.d - prof.s_dual
    W = set(prof.weights)
    W_iso = sorted(w for w in W if w - 1 not in W)
    rep = CriterionReport("puncture-shorten", applies=True, t=t, code_weights=W_iso)
    for w in W_iso:
        lam = expected_index(prof.counts[w], t, n, w, q)
        rep.indices[f"A_{w}"] = lam
        rep.indices[f"punctured:A_{w - 1}"] = lam * Fraction(w - t, n - t)
        rep.indices[f"shortened:A_{w}"] = lam * Fraction(n - w, n - t)
    bad = [k for k, v in rep.indices.items() if v.denominator != 1]
    if bad:
        rep.provisos.append(f"non-integral index at {bad}")
    return rep


def dual_profile(prof: CodeProfile) -> CodeProfile:
    """The same data seen from the dual code's side."""
    out = CodeProfile(prof.n, prof.n - prof.k, prof.q,
                      list(prof.dual_counts), list(prof.counts))
    out.rho_sphere = None
    return out


def assmus_mattson_criterion(prof: CodeProfile) -> CriterionReport:
    """Classical-design prediction from the count of low dual weights.

    The largest t < d for which the number m of nonzero dual weights in
    [1, n-t] satisfies m <= d - t.  Predicted design weights: [d, h] in
    the code and [d_dual, min(n-t, h_dual)] in the dual.  Apply to
    `dual_profile(prof)` for the transposed conclusion.
    """
    n, q, d = prof.n, prof.q, prof.d
    h = prof.h
    h_dual = support_repeat_bound(n, q, prof.d_dual) if prof.d_dual else 0
    for t in range(d - 1, 0, -1):
        m = sum(1 for i in prof.dual_weights if 1 <= i <= n - t)
        if m <= d - t:
            wc = [w for w in prof.weights if d <= w <= h]
            wd = [w for w in prof.dual_weights if prof.d_dual <= w <= min(n - t, h_dual)]
            rep = CriterionReport("assmus-mattson", applies=True, t=t,
                                  code_weights=wc, dual_weights=wd)
            for w in wc:
                # distinct supports appear q-1 times each for w <= h
                cnt = prof.counts[w] // (q - 1)
                rep.indices[f"B_{w}"] = expected_index(cnt, t, n, w, q, qary=False)
            for w in wd:
                cnt = prof.dual_counts[w] // (q - 1)
                rep.indices[f"B_{w}(dual)"] = expected_index(cnt, t, n, w, q, qary=False)
            return rep
    return CriterionReport("assmus-mattson", applies=False,
                           reason="no positive t with m(t) <= d - t")


def mds_check(prof: CodeProfile) -> CriterionReport:
    """MDS characterization: d = n-k+1, equivalent to the minimum-weight
    codewords forming a q-ary 1-(n, d, C(n-1, d-1)) design."""
    n, k, q, d = prof.n, prof.k, prof.q, prof.d
    if not prof.is_mds:
        return CriterionReport("mds", applies=False,
                               reason=f"d={d} != n-k+1={n - k + 1}")
    rep = CriterionReport("mds", applies=True, t=1, code_weights=list(prof.weights))
    rep.indices[f"A_{d}"] = Fraction(math.comb(n - 1, d - 1))
    rep.indices[f"count_A_{d}"] = Fraction((q - 1) * math.comb(n, d))
    if prof.counts[d] != (q - 1) * math.comb(n, d):
        rep.provisos.append("weight-d count disagrees with the MDS formula")
    return rep


def perfect_check(prof: CodeProfile) -> CriterionReport:
    """Perfection (e = rho) predicts q-ary (e+1)-designs at every weight,
    with index 1 at the minimum weight.  Needs the exact covering radius."""
    if prof.rho is None:
        return CriterionReport("perfect", applies=False,
                               reason="covering radius not computed")
    if prof.d % 2 == 0 or prof.e != prof.rho:
        return CriterionReport(
            "perfect", applies=False,
            reason=f"e={prof.e}, rho={prof.rho}" + ("" if prof.d % 2 else "; even d"))
    rep = CriterionReport("perfect", applies=True, t=prof.e + 1,
                          code_weights=list(prof.weights))
    rep.indices[f"A_{prof.d}"] = Fraction(1)
    return rep


# ---------------------------------------------------------------------------
# extremal self-dual strength schedules (symbolic; no enumeration)

def extremal_ternary_strength(n: int) -> int:
    """Predicted q-ary strength for an extremal self-dual ternary code of
    length n = 12m + 4u (u in {0,1,2}): the weight-count bound
    ceil((n-d+1)/3) with d = 3*floor(n/12)+3 feeds the parameter gap."""
    if n % 4:
        raise ParameterError("length must be divisible by 4")
    d = 3 * (n // 12) + 3
    s_bound = -(-(n - d + 1) // 3)
    t = d - s_bound
    if t <= 0:
        raise ParameterError(f"no positive strength at length {n}")
    return t


def extremal_quaternary_strength(n: int) -> int:
    """Predicted strength for an extremal Hermitian self-dual quaternary
    code of length n = 6m: d = 2*floor(n/6)+2 against s <= ceil((n-d+1)/2)."""
    if n % 2:
        raise ParameterError("length must be even")
    d = 2 * (n // 6) + 2
    s_bound = -(-(n - d + 1) // 2)
    t = d - s_bound
    if t <= 0:
        raise ParameterError(f"no positive strength at length {n}")
    return t


def criteria_bundle(C: LinearCode, compute_rho: bool = True, threads: int = 1) -> dict:
    """Run every applicable criterion on a code; CLI-facing.

    The profile is computed once.  When the exact covering radius is over
    budget, rho stays None (the perfect test then reports itself
    inapplicable); a weight distribution over budget still raises.
    """
    prof = code_profile(C, threads=threads)
    if compute_rho:
        with suppress(CapacityError):
            prof = replace(prof, rho=covering_radius(C))
    reports = [
        parameter_gap_criterion(prof),
        puncture_shorten_criterion(prof),
        assmus_mattson_criterion(prof),
        mds_check(prof),
        perfect_check(prof),
    ]
    return {
        "profile": prof.to_dict(),
        "criteria": [r.to_dict() for r in reports],
    }
