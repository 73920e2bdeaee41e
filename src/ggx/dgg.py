"""Double group-groupoids and the special double groupoid of a crossed
module.

A double group-groupoid has four groups: squares ``S``, horizontal edges
``H``, vertical edges ``V`` and points ``P``, carrying four compatible
group-groupoid structures ``(S,H)``, ``(S,V)``, ``(H,P)`` and ``(V,P)``.
The naming convention for the twelve structure maps follows the direction
of the groupoid they belong to: lowercase superscripts map out of the
squares (``d0h, d1h, epsh`` for ``(S,H)``; ``d0v, d1v, epsv`` for
``(S,V)``), uppercase ones out of the edges (``d0H, d1H, epsH`` for
``(H,P)``; ``d0V, d1V, epsV`` for ``(V,P)``).

Both square compositions are derived from the group operation, never
stored: ``comp_h`` composes along the ``(S,H)`` structure and ``comp_v``
along ``(S,V)``.  On the double group-groupoid built from a crossed module
over group-groupoids the ``(S,H)``-direction composite of two squares adds
their first components, while the ``(S,V)``-direction composes both
components in their groupoids; which of the two directions a planar
picture calls "horizontal" is a convention that varies, so tests pin the
behaviour by formula rather than by picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteGroup, GroupHom
from .groupoids import (GroupGroupoid, compose_arrows, groupoid_inverse,
                        validate_group_groupoid)
from .morphism import Component, square, validate
from .report import (NotComposableError, ValidationReport, fail,
                     first_violation, nested)
from .xmod import XModGroups


@dataclass(frozen=True)
class DoubleGroupGroupoid:
    """Four groups and twelve structure homomorphisms."""

    s: FiniteGroup
    h: FiniteGroup
    v: FiniteGroup
    p: FiniteGroup
    d0h: GroupHom
    d1h: GroupHom
    epsh: GroupHom
    d0v: GroupHom
    d1v: GroupHom
    epsv: GroupHom
    d0H: GroupHom
    d1H: GroupHom
    epsH: GroupHom
    d0V: GroupHom
    d1V: GroupHom
    epsV: GroupHom

    def gg_sh(self) -> GroupGroupoid:
        return GroupGroupoid(self.s, self.h, self.d0h, self.d1h, self.epsh)

    def gg_sv(self) -> GroupGroupoid:
        return GroupGroupoid(self.s, self.v, self.d0v, self.d1v, self.epsv)

    def gg_hp(self) -> GroupGroupoid:
        return GroupGroupoid(self.h, self.p, self.d0H, self.d1H, self.epsH)

    def gg_vp(self) -> GroupGroupoid:
        return GroupGroupoid(self.v, self.p, self.d0V, self.d1V, self.epsV)

    def __repr__(self) -> str:
        return (f"DoubleGroupGroupoid(S={self.s.name}, H={self.h.name}, "
                f"V={self.v.name}, P={self.p.name})")


def comp_h(d: DoubleGroupGroupoid, alpha: int, beta: int) -> int:
    """Composite of ``alpha`` then ``beta`` in the ``(S,H)`` direction;
    requires ``d1h(alpha) = d0h(beta)``."""
    return compose_arrows(d.gg_sh(), alpha, beta)


def comp_v(d: DoubleGroupGroupoid, alpha: int, beta: int) -> int:
    """Composite of ``alpha`` then ``beta`` in the ``(S,V)`` direction;
    requires ``d1v(alpha) = d0v(beta)``."""
    return compose_arrows(d.gg_sv(), alpha, beta)


def inv_h(d: DoubleGroupGroupoid, beta: int) -> int:
    """``epsh(d0h(b)) - b + epsh(d1h(b))``, the ``(S,H)``-groupoid inverse."""
    return groupoid_inverse(d.gg_sh(), beta)


def inv_v(d: DoubleGroupGroupoid, alpha: int) -> int:
    """The ``(S,V)``-groupoid inverse."""
    return groupoid_inverse(d.gg_sv(), alpha)


def trivial_dgg(gg: GroupGroupoid) -> DoubleGroupGroupoid:
    """``(G, G, G0, G0)`` with identity maps in the ``(S,H)`` and ``(V,P)``
    directions and the structure of ``gg`` in the other two."""
    ida = GroupHom.identity(gg.arrows)
    ido = GroupHom.identity(gg.objects)
    return DoubleGroupGroupoid(
        s=gg.arrows, h=gg.arrows, v=gg.objects, p=gg.objects,
        d0h=ida, d1h=ida, epsh=ida,
        d0v=gg.d0, d1v=gg.d1, epsv=gg.eps,
        d0H=gg.d0, d1H=gg.d1, epsH=gg.eps,
        d0V=ido, d1V=ido, epsV=ido)


# ---------------------------------------------------------------------------
# Validation


def validate_dgg(d: DoubleGroupGroupoid) -> ValidationReport:
    """Exhaustive validation of a double group-groupoid.

    Checks, in order: the four underlying group-groupoids, then the face
    and degeneracy compatibility equations between the two directions.
    These imply the rest of the double-groupoid laws: each direction's
    composition and inversion is functorial for the other direction's
    structure, and the two compositions interchange with each other and
    with the group operation.  None of those is scanned; the proofs are in
    the "Implied laws" section of ``docs/format.md``.
    """
    for gg, where in ((d.gg_sh(), "(S,H)"), (d.gg_sv(), "(S,V)"),
                      (d.gg_hp(), "(H,P)"), (d.gg_vp(), "(V,P)")):
        rep = validate_group_groupoid(gg)
        if not rep.ok:
            return nested(where, rep)

    dh = np.array([d.d0h.map, d.d1h.map])
    dv = np.array([d.d0v.map, d.d1v.map])
    dH = np.array([d.d0H.map, d.d1H.map])
    dV = np.array([d.d0V.map, d.d1V.map])
    epsh, epsv = d.epsh.map, d.epsv.map
    epsH, epsV = d.epsH.map, d.epsV.map
    two = np.arange(2)

    # faces: d_i^H d_j^h = d_j^V d_i^v : S -> P, at (i, j, x)
    if not (rep := first_violation(
            lambda i, j, x: fail("compat-dd", (i, j, x),
                                 f"d{i}H(d{j}h(x)) != d{j}V(d{i}v(x))"),
            dH[two[:, None, None], dh[None, :, :]],
            dV[two[None, :, None], dv[:, None, :]])).ok:
        return rep

    # degeneracies against faces, per i: epsH d_i^V = d_i^h epsv over V,
    # then epsV d_i^H = d_i^v epsh over H
    nv = d.v.order

    def degeneracy(i, x):
        if x < nv:
            return fail("compat-epsH-dV", (i, x),
                        f"epsH(d{i}V(x)) != d{i}h(epsv(x))")
        return fail("compat-dv-epsh", (i, x - nv),
                    f"epsV(d{i}H(x)) != d{i}v(epsh(x))")

    if not (rep := first_violation(degeneracy, np.concatenate(
            [epsH[dV] != dh[:, epsv], epsV[dH] != dv[:, epsh]], axis=1))).ok:
        return rep
    return first_violation(
        lambda y: fail("compat-eps-eps", (y,),
                       "epsv(epsV(y)) != epsh(epsH(y))"),
        epsv[epsV], epsh[epsH])


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class DGGMorphism:
    """Componentwise group homs commuting with all twelve structure maps."""

    domain: DoubleGroupGroupoid
    codomain: DoubleGroupGroupoid
    fs: GroupHom
    fh: GroupHom
    fv: GroupHom
    fp: GroupHom

    COMPONENTS = tuple(Component(f"f{x}", f"f{x}", x) for x in "shvp")
    # (structure map, its pre-component, its post-component), each over the
    # domain of the structure map
    SCANS = tuple((square(*law),) for law in (
        ("d0h", "fs", "fh"), ("d1h", "fs", "fh"),
        ("d0v", "fs", "fv"), ("d1v", "fs", "fv"),
        ("d0H", "fh", "fp"), ("d1H", "fh", "fp"),
        ("d0V", "fv", "fp"), ("d1V", "fv", "fp"),
        ("epsh", "fh", "fs"), ("epsv", "fv", "fs"),
        ("epsH", "fp", "fh"), ("epsV", "fp", "fv")))


def validate_dgg_morphism(m: DGGMorphism) -> ValidationReport:
    return validate(m)


# ---------------------------------------------------------------------------
# The special double groupoid of a crossed module of groups


@dataclass(frozen=True)
class SpecialSquare:
    """A boundary-labelled square: ``alpha`` in the crossed module's source
    group, edges ``a, b, c, d`` in its base group, subject to
    ``bdry(alpha) = -b - a + c + d``."""

    alpha: int
    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class SpecialDoubleGroupoid:
    """Squares over a crossed module ``(A, B, bdry)`` with two derived
    compositions.

    Geometry of the record, fixed by requiring both composites to preserve
    the boundary relation for arbitrary (also nonabelian) base groups:
    ``a`` is the left edge, ``b`` the bottom, ``c`` the top, ``d`` the
    right; the relation reads ``bdry(alpha) = -b - a + c + d``.

    ``comp_h(s, t)`` glues along ``s.c = t.b`` and has first component
    ``alpha_s + (-s.d) . alpha_t`` (the composite whose filler is acted on
    by an inverted edge); ``comp_v(s, t)`` glues along ``s.d = t.a`` with
    first component ``(-t.b) . alpha_s + alpha_t``.  Source conventions
    that draw the record differently swap the two names; at abelian base
    groups the two readings agree.
    """

    base: XModGroups

    def boundary_holds(self, sq: SpecialSquare) -> bool:
        B, A = self.base.b, self.base.a
        want = B.add(B.add(B.neg(sq.b), B.neg(sq.a)), B.add(sq.c, sq.d))
        return self.base.boundary(sq.alpha) == want

    @cached_property
    def squares(self) -> tuple[SpecialSquare, ...]:
        B, A = self.base.b, self.base.a
        out = []
        for a in range(B.order):
            for b in range(B.order):
                for c in range(B.order):
                    for d in range(B.order):
                        want = B.add(B.add(B.neg(b), B.neg(a)), B.add(c, d))
                        for alpha in range(A.order):
                            if self.base.boundary(alpha) == want:
                                out.append(SpecialSquare(alpha, a, b, c, d))
        return tuple(out)

    def comp_h(self, s: SpecialSquare, t: SpecialSquare) -> SpecialSquare:
        if s.c != t.b:
            raise NotComposableError("shared edge mismatch: s.c != t.b")
        A, B, act = self.base.a, self.base.b, self.base.action
        alpha = A.add(s.alpha, act.act(B.neg(s.d), t.alpha))
        return SpecialSquare(alpha, B.add(t.a, s.a), s.b, t.c,
                             B.add(t.d, s.d))

    def comp_v(self, s: SpecialSquare, t: SpecialSquare) -> SpecialSquare:
        if s.d != t.a:
            raise NotComposableError("shared edge mismatch: s.d != t.a")
        A, B, act = self.base.a, self.base.b, self.base.action
        alpha = A.add(act.act(B.neg(t.b), s.alpha), t.alpha)
        return SpecialSquare(alpha, s.a, B.add(s.b, t.b), B.add(s.c, t.c),
                             t.d)

    def identity_h(self, x: int) -> SpecialSquare:
        return SpecialSquare(self.base.a.zero, self.base.b.zero, x, x,
                             self.base.b.zero)

    def identity_v(self, y: int) -> SpecialSquare:
        return SpecialSquare(self.base.a.zero, y, self.base.b.zero,
                             self.base.b.zero, y)

    def inv_h(self, s: SpecialSquare) -> SpecialSquare:
        A, B, act = self.base.a, self.base.b, self.base.action
        return SpecialSquare(act.act(s.d, A.neg(s.alpha)),
                             B.neg(s.a), s.c, s.b, B.neg(s.d))

    def inv_v(self, s: SpecialSquare) -> SpecialSquare:
        A, B, act = self.base.a, self.base.b, self.base.action
        return SpecialSquare(act.act(s.b, A.neg(s.alpha)),
                             s.d, B.neg(s.b), B.neg(s.c), s.a)


def special_from_xmod(xm: XModGroups) -> SpecialDoubleGroupoid:
    return SpecialDoubleGroupoid(xm)
