"""Crossed modules over groups and over group-groupoids."""

import numpy as np
import pytest

from ggx.groups import (GroupAction, GroupHom, conjugation_action, cyclic,
                        klein_four, negation_action, symmetric_3,
                        validate_action)
from ggx.enumeration import all_actions, all_gg_structures
from ggx.groupoids import discrete_gg, ker_d0, ker_d1, pair_gg
from ggx.report import GgxError
from ggx.morphism import compose, identity, validate
from ggx.xmod import (XModGG, XModGGMorphism, XModGroups, XModGroupsMorphism,
                      arrow_level, discrete_xmod, identity_xmod,
                      inclusion_xmod, induced_actions, object_level_xmod,
                      pair_xmod, validate_action_compatibility,
                      validate_xmod_gg, validate_xmod_gg_morphism,
                      validate_xmod_groups, xmod_catalog, zero_xmod)


def _xm_z2():
    z2 = cyclic(2)
    return XModGroups(z2, z2, GroupHom.identity(z2),
                      GroupAction.trivial(z2, z2))


def _xm_inv():
    z3, z2 = cyclic(3), cyclic(2)
    return XModGroups(z3, z2, GroupHom.zero(z3, z2), negation_action(z2, z3))


def test_identity_boundary_with_trivial_action_is_valid():
    assert validate_xmod_groups(_xm_z2()).ok


def test_conjugation_crossed_module_is_valid_for_any_group():
    for g in (cyclic(4), klein_four(), symmetric_3()):
        xm = XModGroups(g, g, GroupHom.identity(g), conjugation_action(g))
        assert validate_xmod_groups(xm).ok


def test_sign_map_with_trivial_action_fails_cm2():
    s3, z2 = symmetric_3(), cyclic(2)
    sign = GroupHom(s3, z2, tuple(i % 2 for i in range(6)))
    rep = validate_xmod_groups(XModGroups(s3, z2, sign,
                                          GroupAction.trivial(z2, s3)))
    assert not rep.ok and rep.axiom == "CM2"
    a, a1 = rep.witness
    assert s3.add(a, a1) != s3.add(a1, a)


# ---------------------------------------------------------------------------
# crossed modules over group-groupoids


def test_identity_xmod_is_valid():
    assert validate_xmod_gg(identity_xmod(discrete_gg(cyclic(2)))).ok
    assert validate_xmod_gg(identity_xmod(pair_gg(symmetric_3()))).ok


def test_zero_xmod_is_valid():
    assert validate_xmod_gg(zero_xmod(discrete_gg(symmetric_3()))).ok
    assert validate_xmod_gg(zero_xmod(pair_gg(cyclic(3)))).ok


def test_breaking_source_compatibility_is_reported():
    xm = pair_xmod(_xm_z2())
    swap = (0, 2, 1, 3)
    ident = (0, 1, 2, 3)
    perms = tuple(swap if (b // 2 + b % 2) % 2 else ident for b in range(4))
    bad = XModGG(xm.g, xm.h, xm.boundary_arrows, xm.boundary_objects,
                 GroupAction(xm.h.arrows, xm.g.arrows, perms))
    assert validate_action(bad.action).ok  # still a group action
    rep = validate_xmod_gg(bad)
    assert not rep.ok and rep.axiom == "act-d0"


def test_catalog_dispatch():
    xm = xmod_catalog("identity", discrete_gg(cyclic(2)))
    assert validate_xmod_gg(xm).ok
    xm = xmod_catalog("discrete", _xm_inv())
    assert validate_xmod_gg(xm).ok
    xm = xmod_catalog("pair", _xm_inv())
    assert validate_xmod_gg(xm).ok
    with pytest.raises(GgxError):
        xmod_catalog("nonsense")


def test_discrete_xmod_validation_reduces_to_group_level():
    # valid crossed module of groups -> valid structure; broken one -> CM tag
    assert validate_xmod_gg(discrete_xmod(_xm_inv())).ok
    s3, z2 = symmetric_3(), cyclic(2)
    sign = GroupHom(s3, z2, tuple(i % 2 for i in range(6)))
    bad = discrete_xmod(XModGroups(s3, z2, sign, GroupAction.trivial(z2, s3)))
    rep = validate_xmod_gg(bad)
    assert not rep.ok and rep.axiom == "CM2"


def test_pair_xmod_is_valid():
    assert validate_xmod_gg(pair_xmod(_xm_z2())).ok
    assert validate_xmod_gg(pair_xmod(_xm_inv())).ok


def test_inclusion_xmod_of_rotations_in_s3():
    xm = inclusion_xmod(discrete_gg(symmetric_3()), [0, 2, 4], [0, 2, 4])
    assert validate_xmod_gg(xm).ok
    assert xm.g.arrows.order == 3


def test_inclusion_xmod_rejects_non_normal_subgroupoid():
    # reflections {0, 1} form a subgroup of s3 that is not normal
    with pytest.raises(GgxError):
        inclusion_xmod(discrete_gg(symmetric_3()), [0, 1], [0, 1])


def test_induced_actions_identity_xmod_abelian_all_trivial():
    xm = identity_xmod(discrete_gg(klein_four()))
    for act in induced_actions(xm):
        assert np.array_equal(
            act.perms, GroupAction.trivial(act.actor, act.target).perms)


def test_induced_object_action_of_discrete_xmod_is_base_action():
    xm = discrete_xmod(_xm_inv())
    obj, _, _ = induced_actions(xm)
    assert np.array_equal(obj.perms, _xm_inv().action.perms)


def test_kernel_arrows_act_trivially_across_the_boundary():
    # arrows of H with identity source act trivially on arrows of G with
    # identity target, and symmetrically
    for xm in (identity_xmod(pair_gg(symmetric_3())), pair_xmod(_xm_inv())):
        _, incH0 = ker_d0(xm.h)
        _, incG1 = ker_d1(xm.g)
        for b in incH0.map:
            for a in incG1.map:
                assert xm.action.act(b, a) == a
        _, incH1 = ker_d1(xm.h)
        _, incG0 = ker_d0(xm.g)
        for b in incH1.map:
            for a in incG0.map:
                assert xm.action.act(b, a) == a


def test_action_through_identity_arrows_on_kernels():
    # on arrows with identity source, the action factors through the
    # identity arrow at the actor's target
    for xm in (identity_xmod(pair_gg(symmetric_3())), pair_xmod(_xm_inv())):
        _, incG0 = ker_d0(xm.g)
        H = xm.h
        for b in range(H.arrows.order):
            eb = H.eps(H.d1(b))
            for a in incG0.map:
                assert xm.action.act(b, a) == xm.action.act(eb, a)


def test_action_displacement_identity_on_source_kernel_of_actor():
    # for actors with identity source: b.a = b.eps(d1 a) - eps(d1 a) + a
    for xm in (identity_xmod(pair_gg(symmetric_3())), pair_xmod(_xm_inv())):
        _, incH0 = ker_d0(xm.h)
        G = xm.g
        arr = G.arrows
        for b in incH0.map:
            for a in range(arr.order):
                e = G.eps(G.d1(a))
                rhs = arr.add(arr.sub(xm.action.act(b, e), e), a)
                assert xm.action.act(b, a) == rhs


def test_object_level_xmod_validates():
    for xm in (identity_xmod(discrete_gg(symmetric_3())),
               pair_xmod(_xm_inv()), discrete_xmod(_xm_inv())):
        assert validate_xmod_groups(object_level_xmod(xm)).ok


def test_object_level_of_discrete_xmod_is_the_base():
    xm = discrete_xmod(_xm_inv())
    ol = object_level_xmod(xm)
    assert np.array_equal(ol.boundary.map, _xm_inv().boundary.map)
    assert np.array_equal(ol.action.perms, _xm_inv().action.perms)


def test_arrow_level_valid_whenever_structure_valid(corpus_small):
    for xm in corpus_small:
        assert validate_xmod_groups(arrow_level(xm)).ok
        assert validate_xmod_groups(object_level_xmod(xm)).ok


def test_morphism_identity_and_composition():
    xm = pair_xmod(_xm_inv())
    ident = identity(XModGGMorphism, xm)
    assert validate_xmod_gg_morphism(ident).ok
    both = compose(ident, ident)
    assert validate_xmod_gg_morphism(both).ok


def test_groups_morphism_validation():
    xm = _xm_z2()
    ident = identity(XModGroupsMorphism, xm)
    assert validate(ident).ok
    z2 = cyclic(2)
    bad = XModGroupsMorphism(xm, xm, GroupHom.identity(z2),
                             GroupHom.zero(z2, z2))
    assert not validate(bad).ok


def test_action_inverse_and_interchange_laws_fire():
    # z6 over z2 acted on by arrows of v4 over z2: two actions that pass
    # every earlier compatibility law, one failing the interchange with
    # composition and one failing the preservation of groupoid inverses
    G = all_gg_structures(cyclic(6), cyclic(2))[0]
    Hs = all_gg_structures(klein_four(), cyclic(2))
    rep = validate_action_compatibility(
        G, Hs[0], all_actions(Hs[0].arrows, G.arrows)[2])
    assert (rep.axiom, rep.witness) == ("act-interchange", (1, 0, 1, 1))
    rep = validate_action_compatibility(
        G, Hs[2], all_actions(Hs[2].arrows, G.arrows)[1])
    assert (rep.axiom, rep.witness) == ("act-inv", (1, 1))
