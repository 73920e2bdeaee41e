"""Crossed squares: axioms, the normal-subcrossed-module construction and
morphisms."""

from dataclasses import replace

import pytest

from ggx.equiv import delta
from ggx.groups import (GroupAction, GroupHom, conjugation_action, cyclic,
                        negation_action, symmetric_3, trivial_group)
from ggx.groupoids import discrete_gg
from ggx.report import GgxError
from ggx.xmod import XModGroups, identity_xmod, pair_xmod
from ggx.morphism import compose, identity, is_isomorphism
from ggx.xsq import (CrossedSquare, XSqMorphism, norrie_xsq, validate_xsq,
                     validate_xsq_morphism)
from ggx.catalog import catalog_build


def _trivial_square():
    one = trivial_group()
    ident = GroupHom.identity(one)
    act = GroupAction.trivial(one, one)
    return CrossedSquare(one, one, one, one, ident, ident, ident, ident,
                         act, act, act, ((0,),))


def test_all_trivial_square_is_valid():
    assert validate_xsq(_trivial_square()).ok


def test_delta_of_identity_xmod_is_valid():
    xs = delta(identity_xmod(discrete_gg(cyclic(2))))
    assert validate_xsq(xs).ok
    assert xs.l.order == 1 and xs.m.order == 1


def test_zeroed_pairing_fails_where_the_target_map_sees_it():
    base = XModGroups(cyclic(3), cyclic(2), GroupHom.zero(cyclic(3), cyclic(2)),
                      negation_action(cyclic(2), cyclic(3)))
    xs = delta(pair_xmod(base))
    assert any(v != xs.l.zero for r in xs.hmap for v in r)
    zero = tuple((xs.l.zero,) * xs.n.order for _ in range(xs.m.order))
    rep = validate_xsq(replace(xs, hmap=zero))
    assert not rep.ok and rep.axiom == "CS2"


def test_mutated_pairing_entry_fails_cs3_when_cs2_is_blind():
    xs = delta(catalog_build("shear-xmod-v4-z2"))
    assert validate_xsq(xs).ok
    h2 = [list(r) for r in xs.hmap]
    h2[0][1] = 1 - h2[0][1]
    rep = validate_xsq(replace(xs, hmap=tuple(tuple(r) for r in h2)))
    assert not rep.ok and rep.axiom == "CS3"


def test_norrie_square_whole_module():
    parent = XModGroups(cyclic(2), cyclic(2), GroupHom.identity(cyclic(2)),
                        GroupAction.trivial(cyclic(2), cyclic(2)))
    xs = norrie_xsq(parent, [0, 1], [0, 1])
    assert validate_xsq(xs).ok
    # h(b, a) = b.a - a = 0 for the trivial action
    assert all(v == xs.l.zero for r in xs.hmap for v in r)


def test_norrie_square_trivial_submodule():
    parent = XModGroups(cyclic(2), cyclic(2), GroupHom.identity(cyclic(2)),
                        GroupAction.trivial(cyclic(2), cyclic(2)))
    xs = norrie_xsq(parent, [0], [0])
    assert validate_xsq(xs).ok
    assert xs.l.order == 1


def test_norrie_square_rotations_in_s3():
    s3 = symmetric_3()
    parent = XModGroups(s3, s3, GroupHom.identity(s3), conjugation_action(s3))
    xs = norrie_xsq(parent, [0, 2, 4], [0, 2, 4])
    assert validate_xsq(xs).ok
    assert xs.l.order == 3 and xs.p.order == 6
    assert any(v != xs.l.zero for r in xs.hmap for v in r)


def test_norrie_rejects_non_normal_subgroup():
    s3 = symmetric_3()
    parent = XModGroups(s3, s3, GroupHom.identity(s3), conjugation_action(s3))
    with pytest.raises(GgxError):
        norrie_xsq(parent, [0, 1], [0, 1])  # a reflection subgroup


def test_norrie_rejects_escaping_displacement():
    # inside (s3, s3, id, conj), taking T = s3 but S = rotations only:
    # the displacement t.a - a of a reflection can be a rotation outside S?
    # actually S must absorb b.s too; use S = {0} with T = rotations:
    # t.a - a = t + a - t - a is a commutator, nonzero for s3
    s3 = symmetric_3()
    parent = XModGroups(s3, s3, GroupHom.identity(s3), conjugation_action(s3))
    with pytest.raises(GgxError):
        norrie_xsq(parent, [0], [0, 2, 4])


def test_pairing_vanishes_on_identities():
    for name in ("norrie-s3", "shear-xmod-v4-z2"):
        xs = (catalog_build(name) if name.startswith("norrie")
              else delta(catalog_build(name)))
        for n in range(xs.n.order):
            assert xs.h(xs.m.zero, n) == xs.l.zero
        for m in range(xs.m.order):
            assert xs.h(m, xs.n.zero) == xs.l.zero


def test_the_two_diagonals_agree():
    xs = catalog_build("norrie-s3")
    for l in range(xs.l.order):
        assert xs.mu(xs.lam(l)) == xs.nu(xs.lam_prime(l))


def test_morphism_identity_and_composition_preserve_validity():
    xs = catalog_build("norrie-s3")
    ident = identity(XSqMorphism, xs)
    assert validate_xsq_morphism(ident).ok
    assert is_isomorphism(ident)
    assert validate_xsq_morphism(compose(ident, ident)).ok


def test_morphism_validator_catches_broken_pairing_compat():
    xs = catalog_build("norrie-s3")
    # negating the L component breaks compatibility with the pairing
    neg = GroupHom(xs.l, xs.l, tuple(xs.l.neg(i) for i in range(xs.l.order)))
    bad = XSqMorphism(xs, xs, neg, GroupHom.identity(xs.m),
                      GroupHom.identity(xs.n), GroupHom.identity(xs.p))
    assert not validate_xsq_morphism(bad).ok
