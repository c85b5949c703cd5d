"""The two ways a family learns its scalar orbits.

A family built from raw blocks has them only when its rows are listed as
`from_orbits` lists them (`tests/test_listed_orbits.py`), and is then
built in native form: checked here against the dictionary oracle
`ref_orbits` at three chunk sizes, on random families that are listed
or not, with every check equal to the per-block reference either way,
and on uint16 rows (q = 512), listed and shuffled.  A family built
with `BlockFamily.from_orbits` is given them: it must agree with its
materialized twin on every check, reject input that is not one
representative per orbit, and list its blocks in the documented order,
which for the trace families is the order of the scaled base words they
were built from before.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdesign import designs as D
from qdesign.designs import (
    BlockFamily,
    classical_design_index,
    fixed_support_index,
    max_strengths,
    outer_distribution,
    qary_design_index,
    support_multiplicity,
)
from qdesign.errors import ParameterError
from qdesign.fields import field_make
from qdesign.zoo import ternary_golay_code, trace_min_weight_family, trace_next_weight_family

from test_orbits import (FIELDS, assert_orbits_match_oracle, families, ref_fixed, ref_qary,
                         ref_support_multiplicity, shuffled)

SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                      HealthCheck.function_scoped_fixture])


def _checks_equal_reference(fam, data):
    n, w = fam.n, fam.w
    for t in range(1, min(w, 3) + 1):
        for want in (True, False):
            assert qary_design_index(fam, t, want_witness=want) == ref_qary(fam, t, want)
        S = tuple(data.draw(st.permutations(range(n)))[:t])
        assert fixed_support_index(fam, t, S) == ref_fixed(fam, t, S)
    assert support_multiplicity(fam) == ref_support_multiplicity(fam)


# entries of part 0 per listed compare; 2^14 takes part 0 whole, like the default
@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
@settings(max_examples=80, **SETTINGS)
@given(case=families(), data=st.data())
def test_orbit_pass_matches_dictionary_oracle(monkeypatch, chunk, case, data):
    monkeypatch.setattr(D, "_ORBIT_CHUNK", chunk)
    drawn, _ = case
    # the listed check runs when a family is built, so build it again at this chunk
    fam = BlockFamily(drawn.field, drawn.n, drawn.w, drawn.blocks, source=drawn.source)
    assert_orbits_match_oracle(fam)
    _checks_equal_reference(fam, data)


def test_uint16_rows_are_grouped_by_all_their_bytes():
    """q = 512: entries past 255, listed and compared by all their bytes,
    and the same rows shuffled, counted block by block."""
    F = field_make(512)
    # normalized and pairwise distinct; the first two differ in the last entry only
    reps = np.array([[1, 300, 0, 17, 511, 256, 9], [1, 300, 0, 17, 511, 256, 10],
                     [1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0], [0, 1, 256, 257, 2, 511, 3]])
    rows = np.concatenate([F.mul_scalar_np(c, reps) for c in range(1, 512)])
    fam = BlockFamily(F, 7, 6, rows)
    got = fam.scalar_orbits
    assert got.dtype == np.uint16 and len(got) * 511 == len(fam)
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, reps.tolist()))
    mixed = BlockFamily(F, 7, 6, shuffled(F, rows))
    assert mixed.scalar_orbits is None
    for f in (fam, mixed):
        assert qary_design_index(f, 1) == ref_qary(f, 1)
        assert support_multiplicity(f) == ref_support_multiplicity(f)


# ---------------------------------------------------------------------------
# orbit-native families


@st.composite
def orbit_families(draw):
    """(reps as drawn, the native family): random weight-w vectors, one per
    orbit, each scaled by a random nonzero element."""
    q = draw(st.sampled_from(FIELDS))
    F = field_make(q)
    n = draw(st.integers(3, 7))
    w = draw(st.integers(1, n))
    seen, reps = set(), []
    for _ in range(draw(st.integers(1, 12))):
        S = draw(st.lists(st.integers(0, n - 1), min_size=w, max_size=w, unique=True))
        v = [0] * n
        for s in S:
            v[s] = draw(st.integers(1, q - 1))
        lead = next(x for x in v if x)
        norm = tuple(F.mul(x, F.inv(lead)) for x in v)
        if norm not in seen:
            seen.add(norm)
            reps.append(v)
    return np.array(reps), BlockFamily.from_orbits(F, n, w, reps, source="native")


@settings(max_examples=120, **SETTINGS)
@given(case=orbit_families(), data=st.data())
def test_native_family_matches_its_materialized_twin(case, data):
    reps, fam = case
    F, q, n, w = fam.field, fam.field.q, fam.n, fam.w
    assert len(fam) == (q - 1) * len(reps)
    blocks = fam.blocks
    want = [F.mul_scalar_np(c, r).tolist() for c in range(1, q) for r in reps]
    assert blocks.dtype == F.np_dtype and blocks.tolist() == want
    assert not blocks.flags.writeable and fam.blocks is not blocks  # built on each access
    twin = BlockFamily(F, n, w, blocks, source="native")
    assert len(twin.scalar_orbits) * (q - 1) == len(fam.scalar_orbits) * (q - 1) == len(fam)
    assert (sorted(map(tuple, twin.scalar_orbits.tolist()))
            == sorted(map(tuple, fam.scalar_orbits.tolist())))
    for t in range(1, min(w, 3) + 1):
        for want_witness in (True, False):
            assert (qary_design_index(fam, t, want_witness)
                    == qary_design_index(twin, t, want_witness))
            for distinct in (True, False):
                assert (classical_design_index(fam, t, distinct, want_witness)
                        == classical_design_index(twin, t, distinct, want_witness))
        S = tuple(data.draw(st.permutations(range(n)))[:t])
        assert fixed_support_index(fam, t, S) == fixed_support_index(twin, t, S)
    expect = data.draw(st.integers(1, 2 * (q - 1)))
    for e in (None, expect):
        assert support_multiplicity(fam, e) == support_multiplicity(twin, e)
    assert (max_strengths(fam, want_witness=True).to_dict()
            == max_strengths(twin, want_witness=True).to_dict())
    assert D.design_report(fam, []) == D.design_report(twin, [])


@pytest.mark.parametrize("reps, w, message", [
    ([[1, 2, 0], [2, 1, 0]], 2, "scalar multiples"),   # 2 * [1, 2, 0] over GF(3)
    ([[1, 2, 0], [1, 2, 0]], 2, "scalar multiples"),
    ([[0, 1, 1], [1, 1, 0], [0, 2, 2]], 2, "scalar multiples"),
    ([[1, 2, 0], [1, 1, 1]], 2, "declared weight"),
    ([[1, 3, 0]], 2, "outside the field"),
    ([[1, -1, 0]], 2, "outside the field"),
    ([[1, 0.5, 0]], 2, "not integers"),
    ([[0, 0, 0]], 0, "weight >= 1"),
])
def test_from_orbits_rejects_bad_representatives(reps, w, message):
    with pytest.raises(ParameterError, match=message):
        BlockFamily.from_orbits(field_make(3), 3, w, reps)


def test_from_orbits_holds_only_its_representatives():
    F = field_make(5)
    src = np.array([[1, 2, 0, 3], [0, 4, 4, 1]])
    fam = BlockFamily.from_orbits(F, 4, 3, src)
    src[0, 0] = 2  # a later write to the caller's array does not reach the family
    assert fam._blocks is None and fam._reps.shape == (2, 4) and len(fam) == 8
    assert fam.blocks[:4].tolist() == [[1, 2, 0, 3], [0, 4, 4, 1], [2, 4, 0, 1], [0, 3, 3, 2]]
    assert fam.scalar_orbits.tolist() == [[1, 2, 0, 3], [0, 1, 1, 4]]
    empty = BlockFamily.from_orbits(F, 4, 3, np.zeros((0, 4), dtype=int))
    assert len(empty) == 0 and empty.scalar_orbits is None and empty.blocks.shape == (0, 4)
    assert qary_design_index(empty, 1).vacuous


# sha256 of `blocks` as the trace families built them by scaling their base
# words, c = 1..q-1 outer, before they were built from orbits
TRACE_BLOCK_DIGESTS = {
    trace_min_weight_family: "7220e7539e0bec8cc86ee550512362342f0ff1caed0ca7c638fc54a1712ea458",
    trace_next_weight_family: "f500855f0a67276e981ab9832c481fd195ef6f90f6df583d481959d2a9af7ac2",
}


@pytest.mark.parametrize("build", list(TRACE_BLOCK_DIGESTS), ids=lambda f: f.__name__)
def test_trace_family_blocks_equal_the_scaled_base_words(build):
    tf = build(4)
    fam, F = tf.family, tf.family.field
    base = fam.blocks[:tf.base_words]
    want = np.concatenate([F.mul_scalar_np(c, base) for c in range(1, F.q)])
    assert np.array_equal(fam.blocks, want) and len(fam) == (F.q - 1) * tf.base_words
    assert hashlib.sha256(fam.blocks.tobytes()).hexdigest() == TRACE_BLOCK_DIGESTS[build]
    assert len(fam.scalar_orbits) == tf.base_words


# ---------------------------------------------------------------------------
# non-integral entries


def test_non_integral_entries_are_rejected():
    F = field_make(3)
    for rows in ([[0.5, 1.2, 0]], [[float("nan"), 1, 1]]):
        with pytest.raises(ParameterError):
            BlockFamily(F, 3, 2, rows)
    with pytest.raises(ParameterError, match="must be integers"):
        BlockFamily(F, 3, 2, [["1", "1", "0"]])
    assert BlockFamily(F, 3, 2, [[1.0, 2.0, 0.0]]).blocks.tolist() == [[1, 2, 0]]
    G = ternary_golay_code()
    for x in ([0.5] + [0] * 10, [float("nan")] + [0] * 10, ["0"] * 11):
        with pytest.raises(ParameterError, match="not integers"):
            outer_distribution(G, x)
    assert outer_distribution(G, [1.0] + [0] * 10).sum() == G.size
