"""The listed check: rows in `from_orbits` order build a native family.

`BlockFamily(field, n, w, rows)` whose B = (q-1) R rows list c * part 0
as part c - 1, with no two rows of part 0 proportional, is built in
native form: it keeps part 0 as its representatives, holds no copy of
the rows, and takes part 0, normalized, as its orbit representatives
(`designs._listed_orbits`); any other family has none and is counted
block by block.  On the blocks of random native families
(`orbit_families`), and on their images under a random monomial map,
which commutes with scalars and so keeps the layout:

- the listed rows give the reps (as a set) of the dictionary oracle
  `ref_orbits`, each orbit once;
- one entry changed in the last part, one row dropped (B not divisible
  by q - 1), a listed family holding every orbit twice (proportional rows
  in part 0) and the rows rotated by one have no representatives exactly
  when a plain loop (`test_orbits.is_listed`) says the rows are not
  listed;
- every family's `blocks` are the rows it was built from, in order, and
  every q-ary, classical, fixed-support and support-multiplicity result
  equals that of a twin of the same rows counted block by block;
- a monomial image of a native family over q > 2 is native, and its
  `blocks` give back the image, row for row, as the transpose of a
  coordinate-major array;
- the checks of every family still hold for listed rows: a row of part
  0 of the wrong weight and an entry outside the field in a later part
  raise the errors they raise on any other rows.

The compare runs at chunks of 1 and 7 entries of part 0 (one row or a
few) as well as 2^14, which holds every family drawn here at once, as
the default does, so a difference past the first chunk is seen.  `tests/mutants.py` checks
that these tests fail on a scalar range that stops at q - 2, on the
check without its proportional-rows test, on a compare of only the first
chunk, on part 0 returned unnormalized, and on the check without the
weight check of part 0.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qdesign import designs as D
from qdesign.designs import BlockFamily
from qdesign.errors import ParameterError

from test_orbit_forms import SETTINGS, orbit_families
from test_orbits import assert_orbits_match_oracle, is_listed
from test_projective import _all_checks

# entries of part 0 per compare; 2^14 takes part 0 whole, like the default
CHUNKS = [1, 7, 1 << 14]


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
    """A family holding a copy of the same rows, with no orbits, so every
    check counts it block by block; it is built without the listed check."""
    twin = BlockFamily.__new__(BlockFamily)
    twin._hold(F, n, w, "", blocks=np.array(rows, dtype=F.np_dtype))
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
    assert np.array_equal(fam.blocks, rows)
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
    assert np.array_equal(fam.blocks, rows)
    assert_orbits_match_oracle(fam)
    assert _all_checks(fam, S) == _all_checks(block_twin(F, n, w, rows), S)


@settings(max_examples=60, **SETTINGS)
@given(data=st.data())
def test_monomial_image_of_a_native_family_is_native(data):
    """The image keeps no copy of its rows, and its blocks are the image,
    row for row, built coordinate-major."""
    reps, fam = data.draw(orbit_families())
    F, q, n, w = fam.field, fam.field.q, fam.n, fam.w
    assume(q > 2)
    perm = data.draw(st.permutations(range(n)))
    scale = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    image = monomial_image(F, fam.blocks, perm, scale)
    S = tuple(data.draw(st.permutations(range(n))))
    img = BlockFamily(F, n, w, image)
    assert img._blocks is None and len(img._reps) * (q - 1) == len(img) == len(image)
    blocks = img.blocks
    assert blocks.dtype == F.np_dtype and np.array_equal(blocks, image)
    assert blocks.T.flags.c_contiguous and not blocks.flags.writeable
    assert _all_checks(img, S) == _all_checks(block_twin(F, n, w, image), S)


@settings(max_examples=40, **SETTINGS)
@given(data=st.data())
def test_listed_rows_are_checked_like_any_rows(data):
    """A listed layout with a representative of the wrong weight raises
    the weight error, and one with an entry outside the field in a later
    part raises the field error."""
    reps, fam = data.draw(orbit_families())
    F, q, n, w = fam.field, fam.field.q, fam.n, fam.w
    bad = np.array(reps)
    i, j = data.draw(st.integers(0, len(bad) - 1)), data.draw(st.integers(0, n - 1))
    bad[i, j] = 0 if bad[i, j] else 1
    rows = np.concatenate([F.mul_scalar_np(c, bad) for c in range(1, q)])
    with pytest.raises(ParameterError, match="declared weight"):
        BlockFamily(F, n, w, rows)
    assume(q > 2)
    rows = np.array(fam.blocks, dtype=np.int64)
    rows[data.draw(st.integers(len(reps), len(rows) - 1)), j] = q
    with pytest.raises(ParameterError, match="outside the field"):
        BlockFamily(F, n, w, rows)
