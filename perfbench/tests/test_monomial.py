import numpy as np
import pytest

from qdesign import linear as L
from qdesign import zoo as Z

from monomial import Monomial


def _image(C, seed):
    mono = Monomial.from_seed(C.field, C.n, seed)
    return L.code_from_generator(C.field, mono.apply(C.gen))


def test_seed_zero_is_identity():
    C = Z.ovoid_code(4)
    mono = Monomial.from_seed(C.field, C.n, 0)
    assert mono.perm.tolist() == list(range(C.n))
    assert set(mono.scale.tolist()) == {1}
    assert np.array_equal(mono.apply(C.gen), C.gen)


def test_seeds_keep_the_weight_distribution():
    C = Z.ovoid_code(4)
    want = L.weight_distribution(C).tolist()
    images = [_image(C, seed) for seed in (1, 2)]
    assert not L.same_code(images[0], images[1])
    for D in images:
        assert L.weight_distribution(D).tolist() == want


def test_apply_keeps_the_dtype_and_maps_each_row():
    C = Z.hyperoval_code(8)
    rows = C.gen.astype(np.uint8)
    mono = Monomial.from_seed(C.field, C.n, 3)
    out = mono.apply(rows)
    assert out.dtype == np.uint8
    for j in range(C.n):
        col = [C.field.mul(int(mono.scale[j]), int(v)) for v in rows[:, mono.perm[j]]]
        assert out[:, j].tolist() == col


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transformed_pless12_is_self_dual(seed):
    P = _image(Z.pless_symmetry_code(12), seed)
    assert L.same_code(P, L.dual(P))
