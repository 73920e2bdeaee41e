"""The one morphism layer: every morphism kind is declared once, and one
validate, law check, compose, identity and is-isomorphism serve them all."""

import os
import re

import pytest

from ggx import dgg, morphism, xmod, xsq
from ggx.dgg import DGGMorphism, trivial_dgg
from ggx.enumeration import all_gg_structures
from ggx.equiv import theta_morphism
from ggx.groups import (GroupAction, GroupHom, cyclic, klein_four,
                        negation_action, pair_map)
from ggx.groupoids import GGMorphism, discrete_gg, pair_gg
from ggx.morphism import compose, identity, is_isomorphism, validate
from ggx.report import DomainMismatchError
from ggx.xmod import (XModGGMorphism, XModGroups, XModGroupsMorphism,
                      identity_xmod)
from ggx.xsq import CrossedSquare, XSqMorphism

FORMAT_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "format.md")
KINDS = (GGMorphism, XModGroupsMorphism, XModGGMorphism, DGGMorphism,
         XSqMorphism)

Z5 = cyclic(5)
TWICE = GroupHom(Z5, Z5, [2 * x % 5 for x in range(5)])   # order 4


def _pair_twice(gg):
    """``x -> 2x`` on both levels of a group-groupoid over z5."""
    n = gg.objects.order
    arrows = TWICE.map if gg.arrows.order == n else pair_map(TWICE.map,
                                                             TWICE.map, n)
    return GGMorphism(gg, gg, GroupHom(gg.arrows, gg.arrows, arrows), TWICE)


def _xmod_twice(gg):
    xm = identity_xmod(gg)
    f = _pair_twice(gg)
    return XModGGMorphism(xm, xm, f, f)


def bilinear_xsq(k: int = 1) -> CrossedSquare:
    """``L = M = N = z5`` over ``P = z2`` with zero maps, ``P`` negating
    ``L`` and ``M`` and fixing ``N``, and ``h(m, n) = kmn``."""
    z2, zero = cyclic(2), GroupHom.zero(Z5, Z5)
    neg = negation_action(z2, Z5)
    return CrossedSquare(
        Z5, Z5, Z5, z2, zero, zero, GroupHom.zero(Z5, z2),
        GroupHom.zero(Z5, z2), neg, neg, GroupAction.trivial(z2, Z5),
        [[k * m * n % 5 for n in range(5)] for m in range(5)])


def automorphism(kind):
    """A valid automorphism of order 4 of a structure of the kind."""
    if kind is GGMorphism:
        return _pair_twice(pair_gg(Z5))
    if kind is XModGroupsMorphism:
        xm = XModGroups(Z5, Z5, GroupHom.identity(Z5),
                        GroupAction.trivial(Z5, Z5))
        return XModGroupsMorphism(xm, xm, TWICE, TWICE)
    if kind is XModGGMorphism:
        return _xmod_twice(pair_gg(Z5))
    if kind is DGGMorphism:
        return theta_morphism(_xmod_twice(discrete_gg(Z5)))
    xs = bilinear_xsq()
    return XSqMorphism(xs, xs, TWICE, TWICE, GroupHom.identity(Z5),
                       GroupHom.identity(xs.p))


def two_structures(kind):
    """Two different structures of the kind on the same groups."""
    g1, g2 = all_gg_structures(klein_four(), cyclic(2))[:2]
    if kind is GGMorphism:
        return g1, g2
    if kind is XModGroupsMorphism:
        xm = automorphism(kind).domain
        return xm, XModGroups(Z5, Z5, GroupHom.zero(Z5, Z5), xm.action)
    if kind is XModGGMorphism:
        return identity_xmod(g1), identity_xmod(g2)
    if kind is DGGMorphism:
        return trivial_dgg(g1), trivial_dgg(g2)
    return bilinear_xsq(1), bilinear_xsq(2)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_identity_is_a_valid_isomorphism(kind):
    x = automorphism(kind).domain
    ident = identity(kind, x)
    assert validate(ident).ok
    assert is_isomorphism(ident)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_identities_are_units_and_composition_is_associative(kind):
    m = automorphism(kind)
    assert validate(m).ok and is_isomorphism(m)
    ident = identity(kind, m.domain)
    assert compose(ident, m) == m == compose(m, ident)
    m2 = compose(m, m)
    assert validate(m2).ok and m2 != m and m2 != ident
    assert compose(compose(m, m2), m) == compose(m, compose(m2, m))
    assert compose(m2, m2) == ident


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_composing_morphisms_that_do_not_compose_raises(kind):
    x, y = two_structures(kind)
    assert x != y
    with pytest.raises(DomainMismatchError):
        compose(identity(kind, x), identity(kind, y))


def test_no_two_group_groupoids_on_v4_over_z2_compose_their_identities():
    ggs = all_gg_structures(klein_four(), cyclic(2))
    assert len(ggs) == 12
    for a in ggs:
        for b in ggs:
            if a != b:
                with pytest.raises(DomainMismatchError):
                    compose(identity(GGMorphism, a), identity(GGMorphism, b))


def test_declared_tags_are_the_documented_morphism_tags():
    declared = {law.tag for kind in KINDS for scan in kind.SCANS
                for law in scan}
    documented = set()
    with open(FORMAT_MD, encoding="utf-8") as fh:
        for line in fh:
            cells = line.split("|")
            if line.startswith("| `") and cells[2].strip().startswith(
                    "morphism"):
                documented.update(re.findall(r"`([^`]+)`", cells[1]))
    assert len(documented) == 25
    assert declared == documented


def test_each_component_is_wired_then_checked_before_the_next():
    gg = pair_gg(cyclic(2))
    not_hom = GroupHom(gg.arrows, gg.arrows, (1, 0, 0, 0))
    miswired = GroupHom.identity(cyclic(3))
    rep = validate(GGMorphism(gg, gg, not_hom, miswired))
    assert (rep.axiom, rep.where) == ("hom-law", "on-arrows")
    rep = validate(GGMorphism(gg, gg, miswired, not_hom))
    assert (rep.axiom, rep.where, rep.witness) == ("malformed", "", ())
    assert rep.message == "on-arrows is wired to the wrong domain or codomain"


def test_the_traced_morphism_validators_are_distinct_functions():
    validators = (dgg.validate_dgg_morphism, xmod.validate_xmod_gg_morphism,
                  xsq.validate_xsq_morphism, morphism.validate)
    assert len({id(f) for f in validators}) == 4
