"""The package's public surface: every export resolves, and names the
reproduction no longer has stay gone from the exports and the modules."""

import inspect
from dataclasses import fields

import pytest

import harmconv
from harmconv import convo, cpoly, geochk, harness, hmap, series

MODULES = (harmconv, convo, cpoly, geochk, harness, hmap, series)

REMOVED_NAMES = (
    "blaschke_bound_certificate",
    "IndeterminateCertificate",
    "named_series",
    "zeros",
    "coefficient_ramp",
    "CERTIFY_RADII",
    "CERTIFY_ANGLES",
    "LEVEL_TIE_NUDGE",
    "fixtures",
    # one image-curve order for every run
    "DEFAULT_ORDER",
    "MIN_ORDER",
    "MAX_ORDER",
    # argparse takes --name=value itself; no argv rewriting
    "_glue_negative_values",
    # every grid ring holds convo.ANGLES_PER_RING angles
    "MAX_ANGLES_PER_RING",
    "DEFAULT_ANGLES_PER_RING",
    # each hypothesis is its case's claim; hmap.family_alpha keeps the domain
    "FamilyParams",
    # hmap.disk_parameter is the one check of a disk automorphism's parameter
    "_unit",
    # each claim's convexity route decides; one sampled check corroborates
    "CURVE_LADDER",
    "_curve_evidence",
    # one point function for the family combinations
    "_combination_point",
    "_t38_point",
    "_t39_point",
    "_t310_point",
    "_t311_point",
    # reached by their public names (geochk.frange, geochk.lookup_case,
    # convo.strip_monomial)
    "_frange",
    "_case",
    "_strip_monomial",
    # local univalence is the dilatation certificate's to judge; the
    # sampled check has no univalence gate
    "HP_VANISH_ATOL",
    # each row's map is built once, at geochk.IMAGE_CURVE_ORDER, and the
    # sampled check reads it on the image curves' circle
    "SAMPLED_ORDER",
    "SAMPLED_RADIUS",
    # the root oracle is numpy's companion-matrix solver with one Newton
    # step, accepted by cpoly.ROOT_RESIDUAL_RTOL
    "DK_MAX_ITER",
    "DK_STEP_TOL",
    "DK_FLOOR_RTOL",
    "DK_RESIDUAL_RTOL",
)

REMOVED_ATTRIBUTES = (
    (cpoly.ComplexPolynomial, ("to_jsonable", "from_jsonable")),
    (series.PowerSeries, ("to_jsonable", "from_jsonable")),
    (convo.RationalFunction, ("to_jsonable", "from_jsonable")),
    (hmap.HarmonicMap, ("to_jsonable", "from_jsonable", "normalization", "order", "truncated")),
    # the sampled check's rings are one grid, geochk.CURVE_GRID
    (convo.DiskGrid, ("capped",)),
)

# methods that only tests called
REMOVED_METHODS = (
    (convo.RationalFunction, "derivative"),
    (convo.RationalFunction, "rotate"),
    (convo.RationalFunction, "scale"),
    (cpoly.ComplexPolynomial, "rotate"),
    (series.PowerSeries, "rotate"),
    # every run samples convo.DEFAULT_GRID
    (harness.RunConfig, "grid"),
    # the t2.2 threshold is the edge of that case's claim
    (hmap.SlantParams, "a_threshold"),
    # convex_in_direction, its one caller, calls series.ring_values
    (series.PowerSeries, "on_circle"),
    # every uncertified row states its certificate's note, so nothing asks
    # whether the zero count failed
    (convo.BoundednessReport, "count_failed"),
)

# parameters that only tests set to other than their default; each is now
# a constant of its module
REMOVED_PARAMETERS = (
    (geochk.convex_in_direction, "n_boundary"),
    (geochk.image_curves, "n_points"),
    (geochk.image_curves, "radius"),
    (cpoly.roots, "tol"),
    (cpoly.roots, "max_iter"),
    (convo.rationals_equal, "tol"),
    (convo.rationals_equal, "points"),
    (convo.rationals_equal, "radius"),
    (convo.rationals_equal, "seed"),
    (convo.cancel_unit_root, "z0"),
    (convo.cancel_unit_root, "rtol"),
    # the curve ladder builds each rung at its own order
    (geochk.sweep_report, "order"),
    # the root oracle's failing iterate, which nothing read
    (cpoly.NumericFailure, "best"),
    # every run samples convo.DEFAULT_GRID and draws its image curves at
    # geochk.IMAGE_CURVE_ORDER
    (geochk.sweep_report, "grid"),
    (geochk.image_curves, "order"),
    (harness.RunConfig, "order"),
    (harness.RunConfig, "radii"),
    (harness.RunConfig, "angles_per_ring"),
    (convo.certify_bounded, "grid"),
    (geochk.convex_in_direction, "grid"),
    # a map's order is its dilatation series' order
    (hmap.shear, "N"),
    (hmap.slanted_halfplane, "N"),
    (hmap.strip_map, "N"),
    (hmap.family_f_alpha_n, "N"),
    (series.monomial, "coeff"),
    # a grid is its outer radius: the DEFAULT_RADII rings inside it
    (convo.DiskGrid, "radii"),
    (convo.DiskGrid, "angles_per_ring"),
    # the image curves read only the maps the sweep stores in curve_maps
    (geochk.image_curves, "case"),
    (geochk.image_curves, "maps"),
    (geochk.sweep_report, "maps"),
    # the gate samples the rings inside r_max; only the ladder's last rung
    # kept it inside
    (geochk.convex_in_direction, "gate_radius"),
    # the sampled check reads the image curves' circle, DEFAULT_CURVE_RADIUS
    (geochk.convex_in_direction, "r_max"),
)


def test_every_export_resolves():
    missing = [name for name in harmconv.__all__ if not hasattr(harmconv, name)]
    assert missing == []
    assert len(set(harmconv.__all__)) == len(harmconv.__all__)


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    assert name not in harmconv.__all__
    assert [m.__name__ for m in MODULES if hasattr(m, name)] == []


@pytest.mark.parametrize(
    "cls, names", REMOVED_ATTRIBUTES, ids=[c.__name__ for c, _ in REMOVED_ATTRIBUTES]
)
def test_removed_attributes_are_gone(cls, names):
    assert [n for n in names if hasattr(cls, n)] == []


@pytest.mark.parametrize(
    "cls, name", REMOVED_METHODS, ids=[f"{c.__name__}.{n}" for c, n in REMOVED_METHODS]
)
def test_removed_method_is_gone(cls, name):
    assert not hasattr(cls, name)


@pytest.mark.parametrize(
    "fn, name", REMOVED_PARAMETERS, ids=[f"{f.__name__}-{n}" for f, n in REMOVED_PARAMETERS]
)
def test_removed_parameter_is_gone(fn, name):
    # a class's parameters are those of its __init__ (an exception without
    # one has no signature of its own)
    init = fn.__init__ if isinstance(fn, type) else fn
    assert name not in inspect.signature(init).parameters


def test_disk_grid_has_one_field():
    assert [f.name for f in fields(convo.DiskGrid)] == ["radius"]


def test_sweep_memo_has_no_strip_shear():
    # a strip case's omega depends on every swept parameter, so a strip
    # shear memo could never hit
    assert not hasattr(geochk._MapCache(), "strip")


def test_convexity_report_has_no_worst_line():
    assert "worst_line" not in {f.name for f in fields(geochk.ConvexityReport)}


# report fields that only tests read
REMOVED_FIELDS = (
    (geochk.ConvexityReport, "direction"),
    (geochk.ConvexityReport, "boundary_tight"),
    (geochk.ConvexityReport, "univalence_failure"),
    (cpoly.ZeroCountReport, "degenerate"),
    (cpoly.ZeroCountReport, "chain"),
    # what a row asserts, and in which direction, is its case's claim
    (geochk.Point, "asserted"),
    (geochk.Point, "phi"),
    (geochk.Point, "phi_label"),
)


@pytest.mark.parametrize(
    "cls, name", REMOVED_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in REMOVED_FIELDS]
)
def test_removed_report_field_is_gone(cls, name):
    assert name not in {f.name for f in fields(cls)}


def test_fixtures_verb_is_gone(capsys):
    assert harness.main(["fixtures"]) == 1
    assert "invalid choice" in capsys.readouterr().err
