"""The listed check: raw rows in `from_orbits` order have orbits.

A raw family whose B = (q-1) R rows list c * part 0 as part c - 1, with
no two rows of part 0 proportional, takes part 0, normalized, as its
orbit representatives (`designs._listed_orbits`); any other raw family
has none and is counted block by block.  On the blocks of random native
families (`orbit_families`), and on their images under a random monomial
map, which commutes with scalars and so keeps the layout:

- the listed rows give the reps (as a set) of the dictionary oracle
  `ref_orbits`, each orbit once;
- one entry changed in the last part, one row dropped (B not divisible
  by q - 1), a listed family holding every orbit twice (proportional rows
  in part 0) and the rows rotated by one have no representatives exactly
  when a plain loop (`test_orbits.is_listed`) says the rows are not
  listed;
- every q-ary, classical, fixed-support and support-multiplicity result
  equals that of a twin of the same rows counted block by block.

The compare runs at chunk sizes 1 and 7 as well as the default, so a
difference past the first chunk of a part is seen.  `tests/mutants.py`
checks that these tests fail on a scalar loop that stops at q - 2, on the
check without its proportional-rows test, on a compare of only the first
chunk of each part, and on part 0 returned unnormalized.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qdesign import designs as D
from qdesign.designs import BlockFamily

from test_orbit_forms import SETTINGS, orbit_families
from test_orbits import assert_orbits_match_oracle, is_listed
from test_projective import _all_checks

CHUNKS = [1, 7, D._ORBIT_CHUNK]


def monomial_image(F, rows, perm, scale):
    """Column j of the image is scale[j] times column perm[j] of rows."""
    return np.stack([F.mul_scalar_np(s, rows[:, p]) for p, s in zip(perm, scale)], axis=1)


@st.composite
def layouts(draw, variant):
    """(field, n, w, rows): the blocks of a native family, or of its orbits
    listed twice ("doubled"), maybe mapped by a random monomial map, then
    altered as the variant says."""
    reps, fam = draw(orbit_families())
    F, q, n, w = fam.field, fam.field.q, fam.n, fam.w
    rows = fam.blocks
    if variant == "doubled":
        twice = np.concatenate([reps, F.mul_scalar_np(draw(st.integers(1, q - 1)), reps)])
        rows = np.concatenate([F.mul_scalar_np(c, twice) for c in range(1, q)])
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        scale = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
        rows = monomial_image(F, rows, perm, scale)
    rows = np.array(rows, dtype=np.int64)
    if variant in ("changed", "indivisible"):
        assume(q > 2)
    if variant == "changed":
        R = len(rows) // (q - 1)
        i = draw(st.integers((q - 2) * R, len(rows) - 1))
        j = draw(st.sampled_from(np.flatnonzero(rows[i]).tolist()))
        rows[i, j] = draw(st.sampled_from([v for v in range(1, q) if v != rows[i, j]]))
    elif variant == "indivisible":
        rows = np.delete(rows, draw(st.integers(0, len(rows) - 1)), axis=0)
    elif variant == "rotated":
        rows = np.roll(rows, 1, axis=0)
    return F, n, w, rows


def block_twin(F, n, w, rows):
    """A family of the same rows with no orbits, so every check counts it
    block by block."""
    twin = BlockFamily(F, n, w, rows)
    twin.__dict__["scalar_orbits"] = None
    return twin


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=60, **SETTINGS)
@given(data=st.data())
def test_listed_rows_take_part_0_as_their_representatives(monkeypatch, chunk, data):
    """Listed rows take part 0 as their representatives, and every check
    equals the block twin's."""
    monkeypatch.setattr(D, "_ORBIT_CHUNK", chunk)
    F, n, w, rows = data.draw(layouts("listed"))
    S = tuple(data.draw(st.permutations(range(n))))
    assert is_listed(F, rows)
    fam = BlockFamily(F, n, w, rows)
    assert_orbits_match_oracle(fam)
    assert _all_checks(fam, S) == _all_checks(block_twin(F, n, w, rows), S)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("variant", ["changed", "indivisible", "doubled", "rotated"])
@settings(max_examples=40, **SETTINGS)
@given(data=st.data())
def test_other_layouts_are_counted_block_by_block(monkeypatch, chunk, variant, data):
    """An altered layout has representatives exactly when it is still
    listed, and is otherwise counted block by block; every check equals
    the block twin's."""
    monkeypatch.setattr(D, "_ORBIT_CHUNK", chunk)
    F, n, w, rows = data.draw(layouts(variant))
    S = tuple(data.draw(st.permutations(range(n))))
    listed = is_listed(F, rows)
    # only a rotation can be listed again: over GF(2) any order of distinct
    # rows is, and over GF(3) part 0 gains 2 * (last row) with 2 * 2 = 1
    assert not listed or variant == "rotated"
    fam = BlockFamily(F, n, w, rows)
    assert_orbits_match_oracle(fam)
    assert _all_checks(fam, S) == _all_checks(block_twin(F, n, w, rows), S)
