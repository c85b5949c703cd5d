"""The shared syndrome sweep and the vectorized ESP kernel against slow
oracles, on random small codes and element matrices over GF(2, 3, 4, 5,
7, 8, 9).

Oracles: the filtered codeword stream for the weight-class scan; the
largest distance from any vector of the space to the code for the
covering radius; `full_outer_table` and a first-vector-per-syndrome pass
over the whole space for the coset leaders; `full_outer_table` for
`is_t_regular`, its verdict and its witness; the enumerated codewords
that vanish at the shortened coordinate for `shorten`; the scalar `esp`
recurrence for `esp_np`.  The sweep tests run with `linear._SWEEP_CHUNK`
at 1 and 7 as well as its default, so a level is split over many chunks.
"""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qdesign.designs as D
import qdesign.linear as L
from outer_oracles import full_outer_table
from qdesign.counting import esp, esp_np
from qdesign.designs import coset_representatives, is_t_regular
from qdesign.errors import BUDGETS, CapacityError, RankError
from qdesign.fields import field_make
from qdesign.linear import (
    code_from_generator,
    code_profile,
    codewords_of_weight,
    covering_radius,
    dual,
    iter_codeword_blocks,
    shorten,
)

FIELDS = (2, 3, 4, 5, 7, 8, 9)
MAX_LENGTH = {2: 8, 3: 7, 4: 6, 5: 5, 7: 4, 8: 4, 9: 4}  # q^n <= 6561
# syndrome entries per sweep chunk: one support per chunk, a few, and the default
CHUNKS = (1, 7, L._SWEEP_CHUNK)
SUPPRESS = [HealthCheck.too_slow, HealthCheck.function_scoped_fixture]


@st.composite
def codes(draw):
    q = draw(st.sampled_from(FIELDS))
    F = field_make(q)
    n = draw(st.integers(2, MAX_LENGTH[q]))
    k = draw(st.integers(1, n))
    gen = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                        min_size=k, max_size=k))
    try:
        return code_from_generator(F, gen, strict=False)
    except RankError:
        gen[0][0] = 1
        return code_from_generator(F, gen, strict=False)


def _space(C):
    """Every vector of F_q^n, in lexicographic order (first coordinate most
    significant), which is also the row order of `full_outer_table`."""
    q, n = C.field.q, C.n
    idx = np.arange(q ** n)
    return np.stack([(idx // q ** (n - 1 - i)) % q for i in range(n)], axis=1).astype(np.int32)


def _syndromes(C, X):
    """Coset id of every row of X: its syndrome H x read as a base-q number."""
    F, H = C.field, dual(C).gen
    ids = np.zeros(X.shape[0], dtype=np.int64)
    for r in range(H.shape[0]):
        s = np.zeros(X.shape[0], dtype=np.int32)
        for j in range(C.n):
            s = F.add_np(s, F.mul_np(X[:, j], H[r, j]))
        ids += s.astype(np.int64) * F.q ** r
    return ids


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=120, deadline=None, suppress_health_check=SUPPRESS)
@given(C=codes())
def test_scan_equals_enumerate(monkeypatch, chunk, C):
    monkeypatch.setattr(L, "_SWEEP_CHUNK", chunk)
    for w in range(1, C.n + 1):
        scan = codewords_of_weight(C, w, method="scan")
        enum = codewords_of_weight(C, w, method="enumerate")
        assert np.array_equal(scan, enum)


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=120, deadline=None, suppress_health_check=SUPPRESS)
@given(C=codes())
def test_covering_radius_is_largest_distance_to_code(monkeypatch, chunk, C):
    monkeypatch.setattr(L, "_SWEEP_CHUNK", chunk)
    cws = np.concatenate([b for _, b in iter_codeword_blocks(C)])
    space = _space(C)
    dist = np.full(space.shape[0], C.n)
    for c in cws:
        dist = np.minimum(dist, (space != c[None, :]).sum(axis=1))
    rho = covering_radius(C)
    assert rho == int(dist.max())
    prof = code_profile(C)
    assert prof.e <= rho
    if C.k < C.n:
        assert rho <= prof.s_dual


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(codes(), st.data())
def test_shorten_keeps_the_codewords_vanishing_at_m(C, data):
    m = data.draw(st.integers(0, C.n - 1))
    want = {tuple(np.delete(c, m).tolist())
            for _, block in iter_codeword_blocks(C) for c in block if c[m] == 0}
    zero_column = not C.gen[:, m].any()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        S = shorten(C, m)
    assert len(caught) == zero_column
    assert (S.n, S.k) == (C.n - 1, C.k - (not zero_column))
    assert {tuple(c.tolist()) for _, block in iter_codeword_blocks(S) for c in block} == want


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=80, deadline=None, suppress_health_check=SUPPRESS)
@given(C=codes())
def test_coset_leaders_match_full_outer_table(monkeypatch, chunk, C):
    monkeypatch.setattr(L, "_SWEEP_CHUNK", chunk)
    q, n = C.field.q, C.n
    reps = coset_representatives(C, n)
    assert reps.shape == (q ** (n - C.k), n) and reps.dtype == C.field.np_dtype
    weights = (reps != 0).sum(axis=1)
    dist, _ = full_outer_table(C)
    assert Counter(int(d) for d in dist) == {int(w): c * C.size
                                             for w, c in Counter(weights).items()}
    # each leader is the first vector of its coset in (weight, support,
    # values) order, and leaders come out in that order
    space = _space(C)
    support = space != 0
    key = [(int(s.sum()), tuple(np.flatnonzero(s)), tuple(v[s])) for s, v in zip(support, space)]
    order = sorted(range(len(key)), key=key.__getitem__)
    ids = _syndromes(C, space)
    first = {}
    for i in order:
        first.setdefault(int(ids[i]), i)
    expect = sorted(first.values(), key=key.__getitem__)
    assert [(int(w), v.tolist()) for w, v in zip(weights, reps)] == \
        [(key[i][0], space[i].tolist()) for i in expect]


@settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
@given(C=codes(), data=st.data())
def test_regularity_matches_full_outer_table(monkeypatch, C, data):
    """`is_t_regular` is regular exactly when every vector at each distance
    d <= t from the code has the same outer-table row, and its witness is
    the first coset leader whose row differs from that of the first leader
    of its weight.  The leaders are compared with a block one at a time,
    a few at a time, or all at once."""
    monkeypatch.setattr(D, "_CELL_CHUNK", data.draw(st.sampled_from([1, 1 << 12, D._CELL_CHUNK])))
    q, n = C.field.q, C.n
    t = data.draw(st.integers(1, n))
    dist, hist = full_outer_table(C)
    res = is_t_regular(C, t)
    assert res.exhaustive and res.t == t
    assert res.regular == all(len({tuple(r) for r in hist[dist == dv].tolist()}) <= 1
                              for dv in range(t + 1))
    # a vector's row of the table is its value read in radix q
    radix = q ** np.arange(n - 1, -1, -1)
    first, witness = {}, None
    for vec in coset_representatives(C, t):
        row = hist[int(vec @ radix)]
        if not np.array_equal(first.setdefault(int(np.count_nonzero(vec)), row), row):
            witness = tuple(int(v) for v in vec)
            break
    assert res.witness == witness


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS), st.integers(0, 6), st.integers(1, 20), st.data())
def test_esp_np_matches_scalar_esp(q, k, rows, data):
    F = field_make(q)
    elems = np.array(data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
        min_size=rows, max_size=rows)), dtype=np.int32).reshape(rows, k)
    degree = data.draw(st.integers(0, k + 1))
    sig = esp_np(F, elems, degree)
    assert sig.shape == (degree + 1, rows)
    for r, row in enumerate(elems):
        want = esp(F, row, min(degree, k))
        assert sig[:, r].tolist() == want + [0] * (degree - k)


def test_coset_sweep_checks_scan_budget_and_stops_when_complete(monkeypatch):
    F3 = field_make(3)
    C = code_from_generator(F3, [[1, 0, 1, 1], [0, 1, 1, 2]])  # perfect, rho = 1
    # level 1 has 4 * 2 candidates, level 2 has 6 * 4: the sweep must stop
    # after level 1, where every syndrome has been seen
    monkeypatch.setitem(BUDGETS, "sweep_level", 8)
    assert len(coset_representatives(C, 4)) == 9
    monkeypatch.setitem(BUDGETS, "sweep_level", 7)
    with pytest.raises(CapacityError, match=r"errors\.BUDGETS\['sweep_level'\] = 7"):
        coset_representatives(C, 4)
