"""The projective weight-class paths against the full class.

A weight class of a linear code is closed under nonzero scalars, so
`codewords_of_weight(..., projective=True)` returns one word per scalar
orbit, the one whose first nonzero entry is 1, and `family_from_code`
builds its family from those rows alone (`BlockFamily.from_orbits`).
On random small codes over GF(2, 3, 4, 5, 7, 8, 9), at every weight:

- the lead-one scan and the lead-one enumeration each equal the lead-one
  rows of the full enumerated class, row for row, at block sizes that cut
  the message ranges [q^j, 2 q^j) into many blocks, one block, or a part
  of one, and the enumeration visits exactly q^k2 + (q^k - q^k2)/(q - 1)
  words, never more than q^k;
- the code family has the blocks of a raw family of the full class and
  the scalar orbits of the dictionary oracle `ref_orbits`, and every check
  gives the same result on both, while the listed check that
  `BlockFamily(...)` runs on raw rows when it is built
  (`designs._listed_orbits`) is never reached; over q > 2 a sorted raw
  class that is not listed (most are not) has no representatives and is
  counted block by block, so the two counting paths are compared.

`from_orbits` takes representatives in any order and scale, and the
representatives of a code family, shuffled and scaled, give the same
checks as the family.  `tests/mutants.py` checks that these tests fail
on a shifted range, on the scan without its S[0] = 1 restriction, on
the orbit check's normalization skipped when any leading entry is 1,
and on its sorted shortcut taking equal neighbours as distinct.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdesign.designs as D
import qdesign.linear as L
from qdesign.designs import (
    BlockFamily,
    classical_design_index,
    family_from_code,
    fixed_support_index,
    qary_design_index,
    support_multiplicity,
)
from qdesign.errors import ParameterError
from qdesign.fields import field_make
from qdesign.linear import LinearCode, codewords_of_weight, iter_codeword_blocks

from test_kernels import SUPPRESS, codes
from test_orbits import is_listed, ref_orbits


@pytest.mark.parametrize("chunk, block", [(1, 1), (7, 30), (L._SWEEP_CHUNK, L._MAX_BLOCK)])
@settings(max_examples=120, deadline=None, suppress_health_check=SUPPRESS)
@given(C=codes())
def test_lead_one_paths_equal_the_lead_one_rows_of_the_full_class(monkeypatch, chunk, block, C):
    monkeypatch.setattr(L, "_SWEEP_CHUNK", chunk)
    monkeypatch.setattr(L, "_MAX_BLOCK", block)
    visited = []

    def counted(*args, **kwargs):
        for first, words in iter_codeword_blocks(*args, **kwargs):
            visited.append(len(words))
            yield first, words

    monkeypatch.setattr(L, "iter_codeword_blocks", counted)
    q, k = C.field.q, C.k
    k2 = L._suffix_symbols(q, k)
    for w in range(1, C.n + 1):
        full = codewords_of_weight(C, w, method="enumerate")
        want = full[D._leads(full) == 1]
        assert (q - 1) * len(want) == len(full)
        visited.clear()
        enum = codewords_of_weight(C, w, method="enumerate", projective=True)
        assert sum(visited) == q ** k2 + (q ** k - q ** k2) // (q - 1) <= C.size
        assert enum.dtype == C.field.np_dtype and np.array_equal(enum, want)
        scan = codewords_of_weight(C, w, method="scan", projective=True)
        assert np.array_equal(scan, want)
    assert codewords_of_weight(C, 0, projective=True).shape == (0, C.n)


def test_the_zero_code_has_no_lead_one_words():
    F = field_make(3)
    zero = LinearCode(F, np.zeros((0, 4), dtype=int))
    for w in range(1, 5):
        for method in ("enumerate", "scan"):
            assert codewords_of_weight(zero, w, method, projective=True).shape == (0, 4)
        assert len(family_from_code(zero, w)) == 0
    assert family_from_code(zero, 0).blocks.tolist() == [[0, 0, 0, 0]]


def _all_checks(fam, S):
    out = [support_multiplicity(fam)] if len(fam) else []
    for t in range(1, min(fam.w, 3) + 1):
        out += [qary_design_index(fam, t), classical_design_index(fam, t),
                classical_design_index(fam, t, distinct=False),
                fixed_support_index(fam, t, S[:t])]
    return out


def _unreachable(*args, **kwargs):
    raise AssertionError("the listed check of raw rows ran on a code family")


@settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
@given(C=codes(), data=st.data())
def test_code_families_are_orbit_native(C, data):
    F, n = C.field, C.n
    S = tuple(data.draw(st.permutations(range(n))))
    classes = [codewords_of_weight(C, w, method="enumerate") for w in range(n + 1)]
    raws = [BlockFamily(F, n, w, rows) for w, rows in enumerate(classes)]
    # the raw families take the listed check when they are built, before it is blocked
    want = [_all_checks(raw, S) for raw in raws]
    for raw in raws:
        if F.q > 2 and not is_listed(F, raw.blocks):
            assert raw.scalar_orbits is None
    orbits = [ref_orbits(raw) if raw.w and len(raw) else None for raw in raws]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_listed_orbits", _unreachable)
        for w in range(n + 1):
            fam = family_from_code(C, w)
            assert len(fam) == len(raws[w])
            assert (sorted(map(tuple, fam.blocks.tolist()))
                    == sorted(map(tuple, classes[w].tolist())))
            if orbits[w] is not None:
                reps, m = orbits[w]
                assert m == 1 and len(fam.scalar_orbits) * (F.q - 1) == len(fam)
                assert sorted(map(tuple, fam.scalar_orbits.tolist())) == reps
            assert _all_checks(fam, S) == want[w]
            if w:
                assert _all_checks(family_from_code(C, w, method="enumerate"), S) == want[w]


@pytest.mark.parametrize("q, rows, message", [
    (3, [[1, 1, 0], [2, 2, 0]], "scalar multiples"),
    (3, [[1, 2, 0], [1, 2, 0]], "scalar multiples"),
    (3, [[1, 1, 1]], "declared weight"),
])
def test_from_orbits_rejects_repeats_and_weights(q, rows, message):
    F = field_make(q)
    with pytest.raises(ParameterError, match=message):
        BlockFamily.from_orbits(F, 3, 2, np.array(rows, dtype=F.np_dtype))


@pytest.mark.parametrize("q, rows", [
    (3, [[2, 2, 0]]),
    (3, [[1, 2, 0], [1, 1, 0]]),
    (3, [[1, 1, 0], [0, 1, 1]]),
    # uint16 entries: 256 > 2, though its low byte is the smaller
    (257, [[1, 256, 0], [1, 2, 0]]),
    (3, [[1, 1, 0], [0, 2, 1], [1, 0, 2]]),
])
def test_from_orbits_takes_any_order_and_scale(q, rows):
    """Rows out of order, or with leading entries other than 1, are one
    orbit each, held normalized in the order given."""
    F = field_make(q)
    fam = BlockFamily.from_orbits(F, 3, 2, np.array(rows, dtype=F.np_dtype))
    want = [[F.div(x, next(v for v in row if v)) for x in row] for row in rows]
    assert fam.scalar_orbits.tolist() == want and len(fam) == (q - 1) * len(rows)


def test_from_orbits_holds_lead_one_rows_as_their_own_orbits():
    """Lead-one rows, as `family_from_code` hands them in, are their own
    normalized rows: one private read-only array, the caller's untouched."""
    F = field_make(3)
    rows = np.array([[0, 1, 1], [0, 1, 2], [1, 0, 2]], dtype=F.np_dtype)
    fam = BlockFamily.from_orbits(F, 3, 2, rows)
    assert not np.shares_memory(fam._reps, rows) and rows.flags.writeable
    assert not fam._reps.flags.writeable
    assert fam.scalar_orbits is fam._reps and len(fam.scalar_orbits) * 2 == len(fam)
    assert len(fam) == 6 and fam.blocks.tolist() == [[0, 1, 1], [0, 1, 2], [1, 0, 2],
                                                     [0, 2, 2], [0, 2, 1], [2, 0, 1]]
    empty = BlockFamily.from_orbits(F, 3, 2, np.zeros((0, 3), dtype=F.np_dtype))
    assert len(empty) == 0 and empty.scalar_orbits is None


@settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
@given(C=codes(), data=st.data())
def test_shuffled_scaled_representatives_give_the_code_family_checks(C, data):
    """`from_orbits` on the representatives of a code family, shuffled and
    each scaled by a random nonzero element, so that the orbit check takes
    its sort path, holds the same orbits and gives the same checks."""
    F, n = C.field, C.n
    S = tuple(data.draw(st.permutations(range(n))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for w in range(1, n + 1):
        fam = family_from_code(C, w)
        if fam.scalar_orbits is None:
            continue
        reps = fam.scalar_orbits[rng.permutation(len(fam.scalar_orbits))]
        scale = rng.integers(1, F.q, size=(len(reps), 1))
        mixed = BlockFamily.from_orbits(F, n, w, F.mul_np(reps, scale))
        assert (sorted(map(tuple, mixed.scalar_orbits.tolist()))
                == sorted(map(tuple, fam.scalar_orbits.tolist())))
        assert _all_checks(mixed, S) == _all_checks(fam, S)
