"""Abelian sandpiles coupled to algebraic harmonic fields on Z^d windows.

The package computes fundamental-solution tables for lattice stencils,
runs sandpile dynamics (toppling, burning test, counting, correction),
decides summable-ideal membership exactly, and applies the resulting
covering maps with certified error bounds.
"""

from .green import (
    GreenTable,
    QuadratureSpec,
    compute_green,
    decay_profile,
    entropy_quadrature,
    fundamental_residual,
    multiplier_table,
    tail_beyond,
    walk_series_oracle,
)
from .harmonic import (
    TorusPoint,
    XiSpec,
    addition_operator_demo,
    equivariance_residual,
    harmonicity_residual,
    kernel_witness,
    separation_check,
    standard_specs,
    torus_distance,
    xi_apply,
)
from .laurent import (
    LaurentPoly,
    divide_by,
    ideal_certificate,
    laplacian_poly,
    multiplier_sum,
    standard_polys,
)
from .sandpile import (
    HeightConfig,
    burning_test,
    correct_to_recurrent,
    count_recurrent,
    finite_entropy_estimate,
    group_add,
    is_recurrent,
    random_recurrent,
    stabilize,
)
from .window import BoxWindow

__version__ = "0.1.0"

__all__ = [
    "BoxWindow",
    "GreenTable",
    "HeightConfig",
    "LaurentPoly",
    "QuadratureSpec",
    "TorusPoint",
    "XiSpec",
    "addition_operator_demo",
    "burning_test",
    "compute_green",
    "correct_to_recurrent",
    "count_recurrent",
    "decay_profile",
    "divide_by",
    "entropy_quadrature",
    "equivariance_residual",
    "finite_entropy_estimate",
    "fundamental_residual",
    "group_add",
    "harmonicity_residual",
    "ideal_certificate",
    "is_recurrent",
    "kernel_witness",
    "laplacian_poly",
    "multiplier_sum",
    "multiplier_table",
    "random_recurrent",
    "separation_check",
    "stabilize",
    "standard_polys",
    "standard_specs",
    "tail_beyond",
    "torus_distance",
    "walk_series_oracle",
    "xi_apply",
]
