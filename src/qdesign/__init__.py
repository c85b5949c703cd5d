"""Exact verification of q-ary and classical t-designs held by linear codes."""

from .errors import CapacityError, ParameterError, ParseError, RankError
from .fields import GF, QuadExt, field_make, quadratic_extension
from .linear import (
    CodeProfile,
    LinearCode,
    code_from_generator,
    code_profile,
    covering_radius,
    dual,
    load_generator,
    puncture,
    save_generator,
    shorten,
    weight_distribution,
)
from .designs import (
    BlockFamily,
    classical_design_index,
    covers,
    family_from_code,
    fixed_support_index,
    is_t_regular,
    max_strengths,
    outer_distribution,
    qary_design_index,
    scaled_index,
    support_multiplicity,
    to_gdd,
)
from .counting import (
    block_sets,
    esp,
    subset_product_count,
    subset_sum_count,
)
from .zoo import ZOO, zoo_build, zoo_family

__version__ = "0.1.0"

__all__ = [
    "BlockFamily", "CapacityError", "CodeProfile", "GF", "LinearCode",
    "ParameterError", "ParseError", "QuadExt", "RankError", "ZOO",
    "block_sets", "classical_design_index", "code_from_generator",
    "code_profile", "covering_radius", "covers", "dual", "esp",
    "family_from_code", "field_make",
    "fixed_support_index", "is_t_regular", "load_generator",
    "max_strengths", "outer_distribution", "puncture",
    "qary_design_index", "quadratic_extension", "save_generator",
    "scaled_index", "shorten", "subset_product_count", "subset_sum_count",
    "support_multiplicity", "to_gdd", "weight_distribution",
    "zoo_build", "zoo_family",
]
