"""Direct per-subset oracles for `qdesign.counting`, small sizes only.

Each checks one subset at a time with the scalar field operations, so it
shares no code with the vectorized paths it is compared against.
"""

from itertools import combinations

from qdesign.counting import esp
from qdesign.errors import ParameterError


def esp_value(field, elements, degree: int) -> int:
    return esp(field, elements, degree)[degree]


def subset_product_count_bruteforce(field, k: int, c: int) -> int:
    if c == 0:
        raise ParameterError("target product must be nonzero")
    count = 0
    for S in combinations(range(1, field.q), k):
        prod = 1
        for v in S:
            prod = field.mul(prod, v)
        if prod == c:
            count += 1
    return count


def block_sets_bruteforce(ext, k: int, l: int, variant: str = "plain"):
    """The k-subsets S of positions into the norm-one group, in
    lexicographic order, with sigma_l of S = 0 (plain), or as
    (S, hits, flags) with sigma_l(S - a) = 0 for hits > 0 of its points a,
    flags marking which (shifted)."""
    top = ext.top
    U = ext.norm_one_group()
    out = []
    for S in combinations(range(len(U)), k):
        elems = [U[i] for i in S]
        if variant == "plain":
            if esp_value(top, elems, l) == 0:
                out.append(S)
        else:
            flags = tuple(esp_value(top, [top.sub(u, a) for u in elems], l) == 0
                          for a in elems)
            if any(flags):
                out.append((S, sum(flags), flags))
    return out
