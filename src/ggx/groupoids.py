"""Finite group-groupoids: internal groupoids in the category of finite
groups.

A group-groupoid is stored as its arrow group, object group and the three
structure homomorphisms ``d0`` (source), ``d1`` (target) and ``eps`` (object
inclusion).  The groupoid composition is never stored: it is always the
derived formula ``b o a = b - eps(d0(b)) + a`` (defined when
``d1(a) = d0(b)``), which the group structure determines uniquely.  The
composability convention is "a then b", so ``d0(b o a) = d0(a)`` and
``d1(b o a) = d1(b)``.

Validation checks the section laws and the elementwise commutation of
``Ker d0`` with ``Ker d1``, the condition that makes the derived formula a
groupoid composition.  Every groupoid law of the derived composition, and
its interchange with the group operation, follows from these by the proofs
in ``docs/format.md`` ("Implied laws"), so none is scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import (FiniteGroup, GroupAction, GroupHom, SplitExtension,
                     compose, conjugation_action, conjugation_through,
                     direct_product, index_dtype, kernel, pair_map,
                     read_back, sd_index, semidirect_product, split_maps,
                     trivial_group, validate_group, validate_hom,
                     validate_split_extension)
from .morphism import Component, square, validate
from .report import (VALID, NotComposableError, ValidationReport, fail,
                     first_violation, nested)


@dataclass(frozen=True)
class GroupGroupoid:
    """Arrow group, object group and structure homs of an internal groupoid."""

    arrows: FiniteGroup
    objects: FiniteGroup
    d0: GroupHom
    d1: GroupHom
    eps: GroupHom

    @property
    def name(self) -> str:
        return f"{self.arrows.name}/{self.objects.name}"

    @cached_property
    def composable_pairs(self):
        """Index arrays ``(A, B)`` of all pairs with ``d1(A) = d0(B)``, the
        composite of each pair, and the full composite matrix (-1 =
        undefined) in the compact :func:`~ggx.groups.index_dtype`; built
        once per value, read-only."""
        d0m = self.d0.map
        A, B = np.nonzero(self.d1.map[:, None] == d0m[None, :])
        tbl, neg = self.arrows.table, self.arrows.inverse
        comp = tbl[tbl[B, neg[self.eps.map[d0m[B]]]], A]
        n = self.arrows.order
        full = np.full((n, n), -1, dtype=index_dtype(n))
        full[A, B] = comp
        for arr in (A, B, comp, full):
            arr.setflags(write=False)
        return A, B, comp, full

    def __repr__(self) -> str:
        return f"GroupGroupoid({self.name})"


def compose_arrows(gg: GroupGroupoid, a: int, b: int) -> int:
    """The composite ``b o a`` ("a then b"); requires ``d1(a) = d0(b)``."""
    if gg.d1(a) != gg.d0(b):
        raise NotComposableError(
            f"arrows {a} and {b} are not composable: d1({a}) != d0({b})")
    arr = gg.arrows
    return arr.add(arr.sub(b, gg.eps(gg.d0(b))), a)


def groupoid_inverse(gg: GroupGroupoid, a: int) -> int:
    """``eps(d0(a)) - a + eps(d1(a))``, the groupoid inverse of ``a``."""
    return int(inverse_map(gg)[a])


def star(gg: GroupGroupoid, x: int) -> np.ndarray:
    """Arrows with source ``x``."""
    return np.flatnonzero(gg.d0.map == x)


def costar(gg: GroupGroupoid, x: int) -> np.ndarray:
    """Arrows with target ``x``."""
    return np.flatnonzero(gg.d1.map == x)


def ker_d0(gg: GroupGroupoid):
    """Arrows with source the zero object, as a subgroup with inclusion."""
    return kernel(gg.d0)


def ker_d1(gg: GroupGroupoid):
    return kernel(gg.d1)


# ---------------------------------------------------------------------------
# Validation


def inverse_map(gg: GroupGroupoid) -> np.ndarray:
    """The groupoid inverse ``eps(d0(a)) - a + eps(d1(a))`` of every arrow."""
    tbl, em = gg.arrows.table, gg.eps.map
    return tbl[tbl[em[gg.d0.map], gg.arrows.inverse], em[gg.d1.map]]


def validate_group_groupoid(gg: GroupGroupoid) -> ValidationReport:
    """Exhaustive check of the group-groupoid axioms.

    Component problems are reported under their own location; the structural
    axioms then follow in a fixed scan order: section laws, then kernel
    commutation.  Those imply every law of the derived composition (the two
    composition formulas agree; endpoints, associativity, identities,
    inverses and the interchange with the group operation hold), so none of
    them is scanned: the proofs are in the "Implied laws" section of
    ``docs/format.md``.
    """
    for grp, where in ((gg.arrows, "arrows"), (gg.objects, "objects")):
        rep = validate_group(grp)
        if not rep.ok:
            return nested(where, rep)
    wiring = [
        (gg.d0, gg.arrows, gg.objects, "d0"),
        (gg.d1, gg.arrows, gg.objects, "d1"),
        (gg.eps, gg.objects, gg.arrows, "eps"),
    ]
    for f, dom, cod, where in wiring:
        if f.domain != dom or f.codomain != cod:
            return fail("malformed", (), f"{where} is wired to the wrong groups",
                        where=where)
        rep = validate_hom(f)
        if not rep.ok:
            return nested(where, rep)

    d0m, d1m, em = gg.d0.map, gg.d1.map, gg.eps.map
    objs = np.arange(gg.objects.order)
    if not (rep := first_violation(
            lambda x, k: fail(("sec-d0", "sec-d1")[k], (x,),
                              f"d{k}(eps({x})) != {x}"),
            np.array([d0m[em], d1m[em]]).T, objs[:, None])).ok:
        return rep

    tbl = gg.arrows.table
    zero_obj = gg.objects.zero
    K0 = np.flatnonzero(d0m == zero_obj)
    K1 = np.flatnonzero(d1m == zero_obj)
    return first_violation(
        lambda i, j: fail("ker-commute", (int(K0[i]), int(K1[j])),
                          f"{K0[i]} in Ker d0 and {K1[j]} in Ker d1 do "
                          "not commute"),
        tbl[K0[:, None], K1], tbl[K1[:, None], K0].T)


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class GGMorphism:
    """A pair of group homs commuting with d0, d1 and eps on both sides."""

    domain: GroupGroupoid
    codomain: GroupGroupoid
    on_arrows: GroupHom
    on_objects: GroupHom

    COMPONENTS = (Component("on_arrows", "on-arrows", "arrows"),
                  Component("on_objects", "on-objects", "objects"))
    # per arrow: d0, then d1; then eps
    SCANS = (tuple(square(s, "on_arrows", "on_objects",
                          f"{s} does not commute with the morphism")
                   for s in ("d0", "d1")),
             (square("eps", "on_objects", "on_arrows",
                     "eps does not commute with the morphism"),))


def validate_gg_morphism(m: GGMorphism) -> ValidationReport:
    return validate(m)


# ---------------------------------------------------------------------------
# Stock group-groupoids


def discrete_gg(g: FiniteGroup) -> GroupGroupoid:
    """The group-groupoid with only identity arrows."""
    ident = GroupHom.identity(g)
    return GroupGroupoid(g, g, ident, ident, ident)


def trivial_gg() -> GroupGroupoid:
    return discrete_gg(trivial_group())


def pair_gg(g: FiniteGroup) -> GroupGroupoid:
    """Arrows are ordered pairs over ``g``: d0(a,b) = a, d1(a,b) = b,
    eps(a) = (a,a); the composite of (a,b) and (b,c) is (a,c)."""
    arrows = direct_product(g, g, name=f"pair({g.name})")
    n, k = g.order, np.arange(arrows.order)
    return GroupGroupoid(arrows, g, GroupHom(arrows, g, k // n),
                         GroupHom(arrows, g, k % n),
                         GroupHom(g, arrows, np.arange(n) * (n + 1)))


# ---------------------------------------------------------------------------
# The classical correspondence with crossed modules of groups


def gg_from_xmod(xm) -> GroupGroupoid:
    """The group-groupoid of a crossed module ``(A, B, bdry, action)``:
    arrows ``A x| B`` on objects ``B`` with ``d0(a,b) = b``,
    ``d1(a,b) = bdry(a) + b`` and ``eps(b) = (0,b)``."""
    a, b = xm.a, xm.b
    arrows = semidirect_product(a, b, xm.action)
    _, d0, eps = split_maps(a, b, arrows)
    k = np.arange(arrows.order)
    d1 = GroupHom(arrows, b,
                  b.table[xm.boundary.map[k // b.order], k % b.order])
    return GroupGroupoid(arrows, b, d0, d1, eps)


def xmod_from_gg(gg: GroupGroupoid):
    """The crossed module of a group-groupoid: ``A = Ker d0`` with the target
    map restricted and the action by conjugation with identity arrows,
    ``x . a = eps(x) + a - eps(x)``."""
    from .xmod import XModGroups
    K, inc = ker_d0(gg)
    return XModGroups(K, gg.objects, compose(inc, gg.d1),
                      conjugation_through(gg.eps, inc))


def splitting_iso(gg: GroupGroupoid) -> GGMorphism:
    """The natural isomorphism from ``gg`` onto the group-groupoid rebuilt
    from its crossed module, ``a -> (a - eps(d0(a)), d0(a))``.

    The splitting uses the source map so that the first component lands in
    ``Ker d0``; pairing the first component with the target map instead
    would leave the kernel.
    """
    rebuilt = gg_from_xmod(xmod_from_gg(gg))
    return GGMorphism(gg, rebuilt,
                      GroupHom(gg.arrows, rebuilt.arrows, splitting_map(gg)),
                      GroupHom.identity(gg.objects))


def splitting_map(gg: GroupGroupoid) -> np.ndarray:
    """``a -> (a - eps(d0(a)), d0(a))`` for every arrow, as pair indices of
    ``Ker d0`` by the objects."""
    _, inc = ker_d0(gg)
    arr, d0 = gg.arrows, gg.d0.map
    k = read_back(arr.table[np.arange(arr.order), arr.inverse[gg.eps.map[d0]]],
                  inc, "a - eps(d0(a)) left Ker d0")
    return sd_index(gg.objects.order, k, d0)


# ---------------------------------------------------------------------------
# Split extensions of group-groupoids


@dataclass(frozen=True)
class SplitExtensionGG:
    """A split extension of group-groupoids; both the arrow level and the
    object level are split extensions of groups, and all structure maps
    commute with the extension maps."""

    g: GroupGroupoid
    k: GroupGroupoid
    h: GroupGroupoid
    iota: GGMorphism
    p: GGMorphism
    s: GGMorphism


def validate_split_extension_gg(ext: SplitExtensionGG) -> ValidationReport:
    for m, where in ((ext.iota, "iota"), (ext.p, "p"), (ext.s, "s")):
        rep = validate_gg_morphism(m)
        if not rep.ok:
            return nested(where, rep)
    for level in ("arrows", "objects"):
        rep = validate_split_extension(SplitExtension(
            *(getattr(gg, level) for gg in (ext.g, ext.k, ext.h)),
            *(getattr(m, f"on_{level}") for m in (ext.iota, ext.p, ext.s))))
        if not rep.ok:
            return nested(f"level-{level}", rep)
    return VALID


def object_action(act: GroupAction, g: GroupGroupoid,
                  h: GroupGroupoid) -> GroupAction:
    """From an action of the arrows of ``h`` on the arrows of ``g``, the
    derived object-level action ``y . x = d0(eps(y) . eps(x))``."""
    return GroupAction(h.objects, g.objects,
                       g.d0.map[act.perms[h.eps.map[:, None], g.eps.map]])


def gg_semidirect(g: GroupGroupoid, h: GroupGroupoid,
                  act: GroupAction) -> GroupGroupoid:
    """Semidirect product of group-groupoids for an arrow-level action:
    arrows and objects are the two semidirect products, structure maps act
    componentwise."""
    arrows = semidirect_product(g.arrows, h.arrows, act)
    objects = semidirect_product(g.objects, h.objects,
                                 object_action(act, g, h))
    na, nh = h.arrows.order, h.objects.order
    return GroupGroupoid(
        arrows, objects,
        GroupHom(arrows, objects, pair_map(g.d0.map, h.d0.map, nh)),
        GroupHom(arrows, objects, pair_map(g.d1.map, h.d1.map, nh)),
        GroupHom(objects, arrows, pair_map(g.eps.map, h.eps.map, na)))


def gg_conjugation_extension(gg: GroupGroupoid) -> SplitExtensionGG:
    """The split extension of ``gg`` by itself realizing conjugation,
    with ``iota(a) = (a, 0)``, ``p(a, a1) = a1`` and ``s(a) = (0, a)``."""
    k = gg_semidirect(gg, gg, conjugation_action(gg.arrows))
    ia, pa, sa = split_maps(gg.arrows, gg.arrows, k.arrows)
    io, po, so = split_maps(gg.objects, gg.objects, k.objects)
    return SplitExtensionGG(gg, k, gg, GGMorphism(gg, k, ia, io),
                            GGMorphism(k, gg, pa, po),
                            GGMorphism(gg, k, sa, so))
