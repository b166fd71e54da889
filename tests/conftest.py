"""Fixtures shared by test modules: the heavy pipelines run once per
session."""
import os

import pytest
from test_permgroup import complete_degrees
from test_quadform import class_form, form_classes

from asq.quadform import QuadraticForm, preset
from asq.search import PlaneCatalogue, arc_seeds, extend_arcs

THREADS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def cat_minus():
    return PlaneCatalogue(preset("minus8"))


@pytest.fixture(scope="session")
def cat_plus():
    return PlaneCatalogue(preset("plus8"))


@pytest.fixture(scope="session")
def class_catalogues():
    """The plane catalogue of class_form(eps, m, r), its group's order
    read, for every class with d <= 7 and for (+, 1, 6), (-, 1, 6) and
    (-, 1, 7), keyed by class: (catalogue, the degrees of the
    _Chain.complete calls its build ran)."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        degrees = complete_degrees(mp)
        for cls in form_classes(7) + [("+", 1, 6), ("-", 1, 6), ("-", 1, 7)]:
            cat = PlaneCatalogue(class_form(*cls))
            cat.group.order()
            out[cls] = cat, degrees[:]
            degrees.clear()
    return out


@pytest.fixture(scope="session")
def cat_dim7():
    """The dim-7 form x0x1 + x2x3 + x4x5: 345 planes, group order
    2580480."""
    return PlaneCatalogue(QuadraticForm(7, (0b10, 0, 0b1000, 0, 0b100000, 0, 0)))


@pytest.fixture(scope="session")
def cat_dim7_rad3():
    """The dim-7 form x0x1 + x2x3, of type O^+(4, 2) with a radical of
    dimension 3: 799 planes, group order 49545216."""
    return PlaneCatalogue(QuadraticForm(7, (0b10, 0, 0b1000, 0, 0, 0, 0)))


@pytest.fixture(scope="session")
def deghyp_pipeline():
    """The deg-hyp6 plane catalogue, its canonical seeds of 6 planes and
    its 8 pseudo-arcs of 9 (the arcs of the 208a rule-out)."""
    cat = PlaneCatalogue(preset("deg-hyp6"))
    seeds = arc_seeds(cat, 6)
    arcs = extend_arcs(cat, seeds, 9, threads=THREADS)
    return cat, seeds, arcs
