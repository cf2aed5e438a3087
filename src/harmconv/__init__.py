"""Numerically certified constructions on planar harmonic mappings.

The package splits along the objects involved:

- cpoly: complex polynomials, Cohn's reduction, zero counting in the disk
- series: truncated power series with Hadamard product
- hmap: harmonic maps, the shearing construction, the named families
- convo: convolution/combination dilatations in closed form, plus the
  boundedness certificates
- geochk: grid sampling, directional convexity, per-case sweeps
- harness: the command line front end
"""

from .cpoly import (
    ComplexPolynomial,
    NumericFailure,
    ReductionNotApplicable,
    ZeroCountReport,
    cohn_reduce,
    count_zeros_in_disk,
    reciprocal_adjoint,
    roots,
)
from .series import PowerSeries
from .hmap import (
    FAMILY_ALPHA_MAX,
    HarmonicMap,
    SlantParams,
    dilatation_series,
    f_a_alpha,
    family_f_alpha_n,
    shear,
    slanted_halfplane,
    strip_map,
)
from .convo import (
    BoundednessReport,
    DiskGrid,
    RationalFunction,
    cancel_unit_root,
    certify_bounded,
    combination,
    combination_dilatation,
    convolve,
    halfplane_convolution_dilatation,
    monomial_convolution_dilatation,
    rationals_equal,
    shared_target_combination_dilatation,
    strip_convolution_dilatation,
)
from .geochk import (
    ConvexityReport,
    convex_in_direction,
    hengartner_schober,
    image_curves,
    row_param_id,
    sweep_report,
)

__version__ = "0.1.0"

__all__ = [
    "BoundednessReport",
    "ComplexPolynomial",
    "ConvexityReport",
    "DiskGrid",
    "FAMILY_ALPHA_MAX",
    "HarmonicMap",
    "NumericFailure",
    "PowerSeries",
    "RationalFunction",
    "ReductionNotApplicable",
    "SlantParams",
    "ZeroCountReport",
    "__version__",
    "cancel_unit_root",
    "certify_bounded",
    "cohn_reduce",
    "combination",
    "combination_dilatation",
    "convex_in_direction",
    "convolve",
    "count_zeros_in_disk",
    "dilatation_series",
    "f_a_alpha",
    "family_f_alpha_n",
    "halfplane_convolution_dilatation",
    "hengartner_schober",
    "image_curves",
    "monomial_convolution_dilatation",
    "rationals_equal",
    "reciprocal_adjoint",
    "roots",
    "row_param_id",
    "shared_target_combination_dilatation",
    "shear",
    "slanted_halfplane",
    "strip_convolution_dilatation",
    "strip_map",
    "sweep_report",
]
