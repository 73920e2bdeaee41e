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

from .groups import (SCAN_CHUNK, FiniteGroup, GroupHom, compose, entries,
                     is_injective, is_surjective, validate_hom)
from .groupoids import (GroupGroupoid, compose_arrows, groupoid_inverse,
                        inverse_map, validate_group_groupoid)
from .report import (VALID, NotComposableError, ValidationReport, fail,
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

    Checks, in order: the four underlying group-groupoids; the face and
    degeneracy compatibility equations between the two directions; the
    functoriality of each direction's composition and inversion for the
    other direction's structure; and the interchange of the two
    compositions with each other.  The interchange of each composition
    with the group operation is the ``interchange`` law of the
    group-groupoids ``(S,H)`` and ``(S,V)``, checked in the first step.
    """
    ggs = {"h": d.gg_sh(), "v": d.gg_sv(), "H": d.gg_hp(), "V": d.gg_vp()}
    for key, where in (("h", "(S,H)"), ("v", "(S,V)"), ("H", "(H,P)"),
                       ("V", "(V,P)")):
        rep = validate_group_groupoid(ggs[key])
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
    if not (rep := first_violation(
            lambda y: fail("compat-eps-eps", (y,),
                           "epsv(epsV(y)) != epsh(epsH(y))"),
            epsv[epsV], epsh[epsH])).ok:
        return rep

    for rep in _derived_laws(d, ggs, dh, dv):
        if not rep.ok:
            return rep
    return VALID


def _derived_laws(d: DoubleGroupGroupoid, ggs: dict, dh, dv):
    """The reports of the derived laws, lazily and in scan order: the
    functoriality of the compositions and inversions (asserted as
    self-checks), then the interchange of the two compositions with each
    other.  ``dh`` and ``dv`` stack the two face maps of each direction."""
    pairs = {k: gg.composable_pairs for k, gg in ggs.items()}
    epsh, epsv = d.epsh.map, d.epsv.map
    face = "a face map does not preserve composition"
    degen = "a degeneracy does not preserve composition"
    yield _preserves_composition("compat-comp-dh", face, pairs["v"], dh,
                                 pairs["H"])
    yield _preserves_composition("compat-comp-dv", face, pairs["h"], dv,
                                 pairs["V"])
    yield _preserves_composition("compat-comp-epsh", degen, pairs["H"],
                                 epsh[None, :], pairs["v"])
    yield _preserves_composition("compat-comp-epsv", degen, pairs["V"],
                                 epsv[None, :], pairs["h"])
    # each direction's inversion is functorial for the other direction
    yield _inversion_functorial("compat-inv-h", inverse_map(ggs["h"]), dv,
                                inverse_map(ggs["V"]), epsv, pairs["v"])
    yield _inversion_functorial("compat-inv-v", inverse_map(ggs["v"]), dh,
                                inverse_map(ggs["H"]), epsh, pairs["h"])
    yield _interchange_mixed(d, pairs["v"], pairs["h"][3])


def _preserves_composition(tag, message, pairs, maps, target_pairs):
    """Each row ``f`` of ``maps`` sends the composite of every composable
    pair to the composite of the images in the target groupoid; at
    ``(row, pair)``, reported as the pair ``(a, b)``."""
    A, B, comp, _ = pairs
    vals = target_pairs[3][maps[:, A], maps[:, B]]
    return first_violation(
        lambda k, i: fail(tag, (int(A[i]), int(B[i])), message),
        (vals < 0) | (maps[:, comp] != vals))


def _inversion_functorial(tag, inv, faces, edge_inv, eps, other_pairs):
    """One direction's square inversion ``inv`` commutes with the other
    direction's face maps (at ``(x, face)``) and degeneracy, and preserves
    the other direction's composition."""
    if not (rep := first_violation(
            lambda x, k: fail(tag, (x,),
                              "inversion does not commute with a face map"),
            faces[:, inv].T, edge_inv[faces].T)).ok:
        return rep
    if not (rep := first_violation(
            lambda e: fail(tag, (e,),
                           "inversion does not commute with a degeneracy"),
            inv[eps], eps[edge_inv])).ok:
        return rep
    A, B, comp, comp_full = other_pairs
    rhs = comp_full[inv[A], inv[B]]
    return first_violation(
        lambda i: fail(tag, (int(A[i]), int(B[i])),
                       "inversion does not preserve the other composition"),
        (rhs < 0) | (inv[comp] != rhs))


def _interchange_mixed(d, v_pairs, chf) -> ValidationReport:
    """Check (beta ov alpha) oh (beta1 ov alpha1) == (beta oh beta1) ov
    (alpha oh alpha1) over all quadruples where both sides are defined.

    Both sides are defined exactly when the two v-composable pairs are also
    h-composable edgewise (a 2x2 grid of squares); edgewise matching forces
    the left side's composability, so a grid whose left side fails to
    compose is a structural inconsistency and is reported as such.
    """
    d0h, d1h = d.d0h.map, d.d1h.map
    # v-composable pairs indexed by position: value cv[i] = Bv[i] ov Av[i]
    Av, Bv, cv, cvf = v_pairs
    d0a, d1a, d0b, d1b = d0h[Av], d1h[Av], d0h[Bv], d1h[Bv]
    for i0 in range(0, len(Av), SCAN_CHUNK):
        sl = slice(i0, i0 + SCAN_CHUNK)
        # grid condition: betas and alphas are h-composable pairwise
        # (rows: pairs in the chunk act as the second h-factor)
        grid = ((d1b[None, :] == d0b[sl, None])
                & (d1a[None, :] == d0a[sl, None]))
        rows, cols = np.nonzero(grid)
        i, j = i0 + rows, cols

        def at(message):
            return lambda p: fail(
                "interchange-mixed",
                (int(Av[i[p]]), int(Bv[i[p]]), int(Av[j[p]]), int(Bv[j[p]])),
                message)

        if not (rep := first_violation(
                at("grid of squares whose composite rows do not compose"),
                d1h[cv[j]] != d0h[cv[i]])).ok:
            return rep
        lhs = entries(chf, cv[j], cv[i])
        rhs = entries(cvf, entries(chf, Av[j], Av[i]),
                      entries(chf, Bv[j], Bv[i]))
        if not (rep := first_violation(
                at("(b ov a) oh (b1 ov a1) != (b oh b1) ov (a oh a1)"),
                (rhs < 0) | (lhs != rhs))).ok:
            return rep
    return VALID


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

    @staticmethod
    def identity(d: DoubleGroupGroupoid) -> "DGGMorphism":
        return DGGMorphism(d, d, GroupHom.identity(d.s), GroupHom.identity(d.h),
                           GroupHom.identity(d.v), GroupHom.identity(d.p))


def validate_dgg_morphism(m: DGGMorphism) -> ValidationReport:
    comps = ((m.fs, m.domain.s, m.codomain.s, "fs"),
             (m.fh, m.domain.h, m.codomain.h, "fh"),
             (m.fv, m.domain.v, m.codomain.v, "fv"),
             (m.fp, m.domain.p, m.codomain.p, "fp"))
    for f, dom, cod, where in comps:
        if f.domain != dom or f.codomain != cod:
            return fail("malformed", (), f"{where} is wired to the wrong groups")
        rep = validate_hom(f)
        if not rep.ok:
            return nested(where, rep)
    a, b = m.domain, m.codomain
    # (structure map, its pre-component, its post-component), scanned in
    # this order, each over the domain of the structure map
    squares = (("d0h", m.fs, m.fh), ("d1h", m.fs, m.fh),
               ("d0v", m.fs, m.fv), ("d1v", m.fs, m.fv),
               ("d0H", m.fh, m.fp), ("d1H", m.fh, m.fp),
               ("d0V", m.fv, m.fp), ("d1V", m.fv, m.fp),
               ("epsh", m.fh, m.fs), ("epsv", m.fv, m.fs),
               ("epsH", m.fp, m.fh), ("epsV", m.fp, m.fv))
    for name, pre, post in squares:
        rep = first_violation(
            lambda x: fail(f"square-{name}", (x,), f"{name} does not commute"),
            post.map[getattr(a, name).map],
            getattr(b, name).map[pre.map])
        if not rep.ok:
            return rep
    return VALID


def dgg_morphism_compose(m1: DGGMorphism, m2: DGGMorphism) -> DGGMorphism:
    return DGGMorphism(m1.domain, m2.codomain,
                       compose(m1.fs, m2.fs), compose(m1.fh, m2.fh),
                       compose(m1.fv, m2.fv), compose(m1.fp, m2.fp))


def is_dgg_isomorphism(m: DGGMorphism) -> bool:
    return (validate_dgg_morphism(m).ok
            and all(is_injective(f) and is_surjective(f)
                    for f in (m.fs, m.fh, m.fv, m.fp)))


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
