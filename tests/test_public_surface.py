"""The package's public surface: every export resolves, and names the
reproduction no longer has stay gone from the exports and the modules."""

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
)

REMOVED_ATTRIBUTES = (
    (cpoly.ComplexPolynomial, ("to_jsonable", "from_jsonable")),
    (series.PowerSeries, ("to_jsonable", "from_jsonable")),
    (convo.RationalFunction, ("to_jsonable", "from_jsonable")),
    (hmap.HarmonicMap, ("to_jsonable", "from_jsonable", "normalization", "order")),
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


def test_convexity_report_has_no_worst_line():
    assert "worst_line" not in {f.name for f in fields(geochk.ConvexityReport)}


def test_fixtures_verb_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        harness.main(["fixtures"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
