"""Crossed modules over groups and over group-groupoids.

A crossed module of groups ``(A, B, bdry, action)`` satisfies

* CM1: ``bdry(b . a) = b + bdry(a) - b``
* CM2: ``bdry(a) . a1 = a + a1 - a``

A crossed module over group-groupoids consists of two group-groupoids
``G`` and ``H``, a group-groupoid morphism ``(bdry1, bdry0)`` and an action
of the arrow group of ``H`` on the arrow group of ``G`` that is compatible
with the groupoid structure:

* the source/target of an acted arrow are the acted source/target,
* identity arrows act as identity arrows,
* groupoid inverses are preserved,
* acting commutes with composition whenever both sides are defined,

and whose arrow level ``(arrows G, arrows H, bdry1, action)`` is a crossed
module of groups.  The object-level action is not stored; it is derived as
``y . x = d0(eps(y) . eps(x))``, once per crossed module
(:meth:`XModGG.obj_action`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (SCAN_CHUNK, FiniteGroup, GroupAction, GroupHom,
                     conjugates, conjugation_action, conjugation_through,
                     hom_restrict, members, pair_map, pull_back, require,
                     sd_index, subgroup, validate_action, validate_group,
                     validate_hom)
from .groupoids import (GGMorphism, GroupGroupoid, discrete_gg, inverse_map,
                        object_action, pair_gg, trivial_gg,
                        validate_gg_morphism, validate_group_groupoid)
from .morphism import Component, Law, square, validate
from .report import (VALID, GgxError, ValidationReport, fail,
                     first_violation, nested, once_per_value)


# ---------------------------------------------------------------------------
# Crossed modules of groups


@dataclass(frozen=True)
class XModGroups:
    """A crossed module of groups ``bdry : A -> B`` with a B-action on A."""

    a: FiniteGroup
    b: FiniteGroup
    boundary: GroupHom
    action: GroupAction

    def __repr__(self) -> str:
        return f"XModGroups({self.a.name}->{self.b.name})"


def validate_xmod_groups(xm: XModGroups) -> ValidationReport:
    for grp, where in ((xm.a, "a"), (xm.b, "b")):
        rep = validate_group(grp)
        if not rep.ok:
            return nested(where, rep)
    if xm.boundary.domain != xm.a or xm.boundary.codomain != xm.b:
        return fail("malformed", (), "boundary is wired to the wrong groups")
    rep = validate_hom(xm.boundary)
    if not rep.ok:
        return nested("boundary", rep)
    if xm.action.actor != xm.b or xm.action.target != xm.a:
        return fail("malformed", (), "action is wired to the wrong groups")
    rep = validate_action(xm.action)
    if not rep.ok:
        return nested("action", rep)

    P = xm.action.perms
    bd = xm.boundary.map
    TB, negB = xm.b.table, xm.b.inverse
    TA, negA = xm.a.table, xm.a.inverse
    nb, na = xm.b.order, xm.a.order

    b_col = np.arange(nb)[:, None]
    if not (rep := first_violation(
            lambda b, a: fail("CM1", (b, a),
                              f"bdry({b}.{a}) != {b}+bdry({a})-{b}"),
            bd[P],                                         # bdry(b . a)
            TB[TB[b_col, bd[None, :]], negB[b_col]])).ok:  # b + bdry(a) - b
        return rep

    a_col = np.arange(na)[:, None]
    return first_violation(
        lambda a, a1: fail("CM2", (a, a1), f"bdry({a}).{a1} != {a}+{a1}-{a}"),
        P[bd, :],                                              # bdry(a) . a1
        TA[TA[a_col, np.arange(na)[None, :]], negA[a_col]])    # a + a1 - a


@dataclass(frozen=True)
class XModGroupsMorphism:
    """A pair ``(f1 : A -> A', f2 : B -> B')`` commuting with the boundaries
    and equivariant for the actions."""

    domain: XModGroups
    codomain: XModGroups
    f1: GroupHom
    f2: GroupHom

    COMPONENTS = (Component("f1", "f1", "a"), Component("f2", "f2", "b"))
    SCANS = ((square("boundary", "f1", "f2", "f2 o bdry != bdry' o f1"),),
             (Law("equivariance", "action.perms", "f1", "f2", "f1",
                  "f1(b.a) != f2(b).f1(a)"),))


# ---------------------------------------------------------------------------
# Crossed modules over group-groupoids


@dataclass(frozen=True)
class XModGG:
    """A crossed module over group-groupoids."""

    g: GroupGroupoid
    h: GroupGroupoid
    boundary_arrows: GroupHom
    boundary_objects: GroupHom
    action: GroupAction

    def __repr__(self) -> str:
        return f"XModGG({self.g.name} -> {self.h.name})"

    def boundary_morphism(self) -> GGMorphism:
        return GGMorphism(self.g, self.h, self.boundary_arrows,
                          self.boundary_objects)

    @once_per_value
    def obj_action(self) -> GroupAction:
        """The derived object action, built once per value."""
        return object_action(self.action, self.g, self.h)


def arrow_level(xm: XModGG) -> XModGroups:
    """The crossed module of groups on the arrow groups."""
    return XModGroups(xm.g.arrows, xm.h.arrows, xm.boundary_arrows, xm.action)


def validate_xmod_gg(xm: XModGG) -> ValidationReport:
    """Exhaustive validation.

    Scan order: the two group-groupoids, the boundary morphism, the arrow
    action, then :func:`validate_action_compatibility`, then CM1 and CM2
    at the arrow level.
    """
    for gg, where in ((xm.g, "g"), (xm.h, "h")):
        rep = validate_group_groupoid(gg)
        if not rep.ok:
            return nested(where, rep)
    rep = validate_gg_morphism(xm.boundary_morphism())
    if not rep.ok:
        return nested("boundary", rep)
    if xm.action.actor != xm.h.arrows or xm.action.target != xm.g.arrows:
        return fail("malformed", (), "action is wired to the wrong groups")
    rep = validate_action(xm.action)
    if not rep.ok:
        return nested("action", rep)
    rep = validate_action_compatibility(xm.g, xm.h, xm.action,
                                        xm.obj_action())
    if not rep.ok:
        return rep
    return validate_xmod_groups(arrow_level(xm))  # CM1 / CM2 tags unchanged


def validate_action_compatibility(G: GroupGroupoid, H: GroupGroupoid,
                                  action: GroupAction,
                                  obj_act=None) -> ValidationReport:
    """The boundary-independent half of :func:`validate_xmod_gg`, for an
    action of the arrows of ``H`` on the arrows of ``G`` by automorphisms.

    Scan order: the derived object action, the four action/groupoid
    compatibility laws (sources, targets, identities, inverses), then the
    action/composition interchange.  The derived object action is built
    here unless given as ``obj_act``: :func:`validate_xmod_gg` gives the one
    its crossed module keeps, so ``theta`` and ``delta`` reuse its report.
    """
    obj_act = obj_act or object_action(action, G, H)
    rep = validate_action(obj_act)
    if not rep.ok:
        return nested("object-action", rep)

    act = action.perms
    oact = obj_act.perms
    # (k, b, a): all of act-d0 before act-d1
    dG = np.array([G.d0.map, G.d1.map])
    dH = np.array([H.d0.map, H.d1.map])
    if not (rep := first_violation(
            lambda k, b, a: fail(f"act-d{k}", (b, a),
                                 f"d{k}({b}.{a}) != d{k}({b}).d{k}({a})"),
            dG[:, act], oact[dH[:, :, None], dG[:, None, :]])).ok:
        return rep

    eg, eh = G.eps.map, H.eps.map
    if not (rep := first_violation(
            lambda y, x: fail("act-eps", (y, x),
                              "identity arrows are not sent to identity "
                              "arrows"),
            act[eh[:, None], eg], eg[oact])).ok:
        return rep

    inv_g, inv_h = inverse_map(G), inverse_map(H)
    if not (rep := first_violation(
            lambda b, a: fail("act-inv", (b, a),
                              "(b.a)^-1 != b^-1 . a^-1 (groupoid inverses)"),
            inv_g[act], act[inv_h[:, None], inv_g])).ok:
        return rep
    return _action_interchange(G, H, act)


def _action_interchange(G: GroupGroupoid, H: GroupGroupoid,
                        act: np.ndarray) -> ValidationReport:
    """The action/composition interchange, with witness ``(b, b1, a, a1)``.

    Quantified over pairs where both sides are defined.  The right-hand
    side is always defined once ``act-d0`` and ``act-d1`` hold:
    ``d1(b.a) = d1(b).d1(a) = d0(b1).d0(a1) = d0(b1.a1)``.
    """
    AH, BH, compH, _ = H.composable_pairs
    AG, BG, compG, compG_full = G.composable_pairs
    for i0 in range(0, len(AH), SCAN_CHUNK):
        sl = slice(i0, i0 + SCAN_CHUNK)
        if not (rep := first_violation(
                lambda i, j: fail("act-interchange",
                                  (int(BH[i0 + i]), int(AH[i0 + i]),
                                   int(BG[j]), int(AG[j])),
                                  "(b o b1).(a o a1) != (b.a) o (b1.a1)"),
                act[compH[sl][:, None], compG[None, :]],
                compG_full[act[AH[sl][:, None], AG[None, :]],
                           act[BH[sl][:, None], BG[None, :]]])).ok:
            return rep
    return VALID


def induced_actions(xm: XModGG) -> tuple[GroupAction, GroupAction, GroupAction]:
    """The three induced actions of a crossed module over group-groupoids:

    * objects of H on objects of G:  ``y . x = d0(eps(y) . eps(x))``
    * objects of H on arrows of G:   ``y . a = eps(y) . a``
    * arrows of H on objects of G:   ``b . x = d1(b) . x``
    """
    obj_on_obj = xm.obj_action()
    return (obj_on_obj, pull_back(xm.action, xm.h.eps),
            pull_back(obj_on_obj, xm.h.d1))


def object_level_xmod(xm: XModGG) -> XModGroups:
    """The object-level crossed module ``(G0, H0, bdry0)`` with the derived
    object action."""
    return XModGroups(xm.g.objects, xm.h.objects, xm.boundary_objects,
                      xm.obj_action())


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class XModGGMorphism:
    """A pair of group-groupoid morphisms whose arrow level is a morphism of
    crossed modules over groups.  Its object level needs no check of its
    own: the "Implied laws" section of ``docs/format.md`` derives it."""

    domain: XModGG
    codomain: XModGG
    f: GGMorphism
    g: GGMorphism

    COMPONENTS = (Component("f", "f", "g", GGMorphism),
                  Component("g", "g", "h", GGMorphism))
    SCANS = ((square("boundary_arrows", "f.on_arrows", "g.on_arrows",
                     "f2 o bdry != bdry' o f1", tag="square-boundary",
                     where="arrow-level"),),
             (Law("equivariance", "action.perms", "f.on_arrows",
                  "g.on_arrows", "f.on_arrows", "f1(b.a) != f2(b).f1(a)",
                  where="arrow-level"),))


def validate_xmod_gg_morphism(m: XModGGMorphism) -> ValidationReport:
    return validate(m)


# ---------------------------------------------------------------------------
# The catalog of standard crossed modules over group-groupoids


def identity_xmod(gg: GroupGroupoid) -> XModGG:
    """``(G, G, 1)`` with the conjugation action."""
    return XModGG(gg, gg, GroupHom.identity(gg.arrows),
                  GroupHom.identity(gg.objects),
                  conjugation_action(gg.arrows))


def zero_xmod(gg: GroupGroupoid) -> XModGG:
    """``(1, G, 0)``: the singleton group-groupoid included trivially."""
    one = trivial_gg()
    return XModGG(one, gg,
                  GroupHom.zero(one.arrows, gg.arrows),
                  GroupHom.zero(one.objects, gg.objects),
                  GroupAction.trivial(gg.arrows, one.arrows))


def discrete_xmod(xm: XModGroups) -> XModGG:
    """A crossed module of groups seen over discrete group-groupoids."""
    return XModGG(discrete_gg(xm.a), discrete_gg(xm.b),
                  xm.boundary, xm.boundary, xm.action)


def pair_xmod(xm: XModGroups) -> XModGG:
    """A crossed module of groups promoted to the pair group-groupoids,
    with componentwise boundary and componentwise action."""
    gs, hs = pair_gg(xm.a), pair_gg(xm.b)
    na, bd, P = xm.a.order, xm.boundary.map, xm.action.perms
    b1 = GroupHom(gs.arrows, hs.arrows, pair_map(bd, bd, xm.b.order))
    # (b, b2) . (a, a2) = (b.a, b2.a2)
    rows = sd_index(na, P[:, None, :, None], P[None, :, None, :])
    act = GroupAction(hs.arrows, gs.arrows,
                      rows.reshape(hs.arrows.order, gs.arrows.order))
    return XModGG(gs, hs, b1, xm.boundary, act)


def inclusion_xmod(gg: GroupGroupoid, arrow_indices,
                   object_indices) -> XModGG:
    """The inclusion of a normal subgroup-groupoid with the conjugation
    action.

    Normality here means: the arrow subset is a normal subgroup of the
    arrows, the object subset a normal subgroup of the objects, and both are
    closed under d0, d1 and eps.
    """
    in_arr = members(gg.arrows.order, arrow_indices)
    in_obj = members(gg.objects.order, object_indices)
    arr_idx, obj_idx = np.flatnonzero(in_arr), np.flatnonzero(in_obj)
    require(in_obj[gg.d0.map[arr_idx]] & in_obj[gg.d1.map[arr_idx]],
            "subgroupoid not closed under d0/d1", arr_idx)
    require(in_arr[gg.eps.map[obj_idx]],
            "subgroupoid not closed under eps", obj_idx)
    for grp, idx, inside, what in ((gg.arrows, arr_idx, in_arr, "arrow"),
                                   (gg.objects, obj_idx, in_obj, "object")):
        require(inside[conjugates(grp, idx)], f"{what} subgroup not normal",
                range(grp.order), idx)
    sub_arr, inc_arr = subgroup(gg.arrows, arr_idx, name=f"n[{gg.arrows.name}]")
    sub_obj, inc_obj = subgroup(gg.objects, obj_idx, name=f"n[{gg.objects.name}]")
    sub_gg = GroupGroupoid(sub_arr, sub_obj,
                           hom_restrict(gg.d0, inc_arr, inc_obj),
                           hom_restrict(gg.d1, inc_arr, inc_obj),
                           hom_restrict(gg.eps, inc_obj, inc_arr))
    act = conjugation_through(GroupHom.identity(gg.arrows), inc_arr)
    return XModGG(sub_gg, gg, inc_arr, inc_obj, act)


def xmod_catalog(name: str, *args) -> XModGG:
    """Dispatch to the standard constructions by name."""
    builders = {
        "identity": identity_xmod,
        "zero": zero_xmod,
        "discrete": discrete_xmod,
        "pair": pair_xmod,
        "inclusion": inclusion_xmod,
    }
    if name not in builders:
        raise GgxError(f"unknown crossed-module construction {name!r}; "
                       f"choose from {sorted(builders)}")
    return builders[name](*args)
