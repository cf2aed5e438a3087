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
)

REMOVED_ATTRIBUTES = (
    (cpoly.ComplexPolynomial, ("to_jsonable", "from_jsonable")),
    (series.PowerSeries, ("to_jsonable", "from_jsonable")),
    (convo.RationalFunction, ("to_jsonable", "from_jsonable")),
    (hmap.HarmonicMap, ("to_jsonable", "from_jsonable", "normalization", "order")),
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
