"""The two categorical equivalences, realized as executable functors with
instance-level isomorphism verification.

* ``theta`` / ``gamma`` pass between crossed modules over group-groupoids
  and double group-groupoids.
* ``delta`` / ``eta`` pass between crossed modules over group-groupoids and
  crossed squares over groups.

Each ``roundtrip_*`` function constructs the natural comparison morphism
explicitly and verifies that it is an isomorphism in the relevant category;
the verifier is exhaustive, no tolerance is involved.

Each functor image is derived once per input value and kept on it
(:func:`~ggx.report.once_per_value`), as are the kernels the functors
take, so a round trip reuses the images and kernels a caller already
derived from the same value instead of building equal ones again.

Two of the comparison maps are written with more than one sign/order
convention in the literature, and only one variant of each typechecks:

* the square component of the ``theta . gamma`` comparison is
  ``(x, b) -> x + epsh(b)``; the variant ``x - epsh(b)`` is not a morphism
  once the horizontal edges have elements of order above two.
* the arrow component of the ``gamma . theta`` comparison is
  ``a -> (a, 0)``; the pair order ``a -> (0, a)`` does not land in the
  source kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (FiniteGroup, GroupAction, GroupHom, compose,
                     conjugation_through, hom_restrict, kernel, pair_map,
                     read_back, sd_index)
from .groupoids import (GGMorphism, GroupGroupoid, gg_from_xmod,
                        object_action, splitting_map)
from .morphism import bijective, identity
from .report import ValidationReport, keep, once_per_value
from .dgg import DGGMorphism, DoubleGroupGroupoid, validate_dgg_morphism
from .xmod import (XModGG, XModGGMorphism, XModGroups, arrow_level,
                   object_level_xmod, validate_xmod_gg_morphism)
from .xsq import CrossedSquare, XSqMorphism, validate_xsq_morphism


@dataclass(frozen=True)
class RoundTrip:
    """Outcome of a round-trip isomorphism verification."""

    ok: bool
    morphism: object
    report: ValidationReport

    def summary(self) -> str:
        return "isomorphism verified" if self.ok else "isomorphism FAILED"


def _verified(m, validate) -> RoundTrip:
    """The round trip of the comparison ``m``: an isomorphism when
    ``validate`` accepts it and every component map is a bijection."""
    rep = validate(m)
    return RoundTrip(rep.ok and bijective(m), m, rep)


def _into_kernel(a: FiniteGroup, b: FiniteGroup, f: GroupHom) -> np.ndarray:
    """``x -> (x, 0)`` from ``a`` into its product with ``b``, read back
    into the kernel of ``f``, a map out of that product."""
    return read_back(sd_index(b.order, np.arange(a.order), b.zero),
                     kernel(f)[1], "a pair (x, 0) left the kernel")


# ---------------------------------------------------------------------------
# theta : crossed modules over group-groupoids -> double group-groupoids


@once_per_value
def theta(xm: XModGG) -> DoubleGroupGroupoid:
    """Squares are the semidirect product of the arrow groups, horizontal
    edges the arrows of H, vertical edges the semidirect product of the
    object groups, points the objects of H.

    ``d0h(a,b) = b``, ``d1h(a,b) = bdry1(a) + b``, ``epsh(b) = (0,b)``; the
    ``(S,V)`` maps act componentwise; ``d0V(x,y) = y``,
    ``d1V(x,y) = bdry0(x) + y``, ``epsV(y) = (0,y)``.  The image keeps
    ``H`` as its ``(H,P)``, so the two share one report.
    """
    G, H = xm.g, xm.h
    sh = gg_from_xmod(arrow_level(xm))          # (S, H)
    vp = gg_from_xmod(object_level_xmod(xm))    # (V, P)
    S, V = sh.arrows, vp.arrows
    nh, np_ = H.arrows.order, H.objects.order
    d = DoubleGroupGroupoid(
        s=S, h=H.arrows, v=V, p=H.objects,
        d0h=sh.d0, d1h=sh.d1, epsh=sh.eps,
        d0v=GroupHom(S, V, pair_map(G.d0.map, H.d0.map, np_)),
        d1v=GroupHom(S, V, pair_map(G.d1.map, H.d1.map, np_)),
        epsv=GroupHom(V, S, pair_map(G.eps.map, H.eps.map, nh)),
        d0H=H.d0, d1H=H.d1, epsH=H.eps,
        d0V=vp.d0, d1V=vp.d1, epsV=vp.eps)
    keep(DoubleGroupGroupoid.gg_hp, d, H)
    return d


def theta_morphism(m: XModGGMorphism) -> DGGMorphism:
    """The image of a morphism of crossed modules over group-groupoids:
    componentwise pair maps on squares and vertical edges."""
    dom, cod = theta(m.domain), theta(m.codomain)
    fs = GroupHom(dom.s, cod.s, pair_map(m.f.on_arrows.map, m.g.on_arrows.map,
                                         cod.h.order))
    fv = GroupHom(dom.v, cod.v, pair_map(m.f.on_objects.map,
                                         m.g.on_objects.map, cod.p.order))
    return DGGMorphism(dom, cod, fs, m.g.on_arrows, fv, m.g.on_objects)


# ---------------------------------------------------------------------------
# gamma : double group-groupoids -> crossed modules over group-groupoids


@once_per_value
def gamma(d: DoubleGroupGroupoid) -> XModGG:
    """The kernel construction: the first component is the group-groupoid
    ``Ker d0h`` over ``Ker d0V`` with the restricted ``(S,V)`` maps, the
    second is ``(H, P)``; the boundary restricts ``d1h`` and ``d1V``, and
    ``H`` acts on ``Ker d0h`` by conjugation with horizontal identities,
    ``b . x = epsh(b) + x - epsh(b)``.
    """
    K, incK = kernel(d.d0h)
    K0, incK0 = kernel(d.d0V)
    Gc = GroupGroupoid(K, K0,
                       hom_restrict(d.d0v, incK, incK0),
                       hom_restrict(d.d1v, incK, incK0),
                       hom_restrict(d.epsv, incK0, incK))
    Hc = GroupGroupoid(d.h, d.p, d.d0H, d.d1H, d.epsH)
    return XModGG(Gc, Hc, compose(incK, d.d1h), compose(incK0, d.d1V),
                  conjugation_through(d.epsh, incK))


# ---------------------------------------------------------------------------
# Round trips for the theta/gamma equivalence


def roundtrip_theta_gamma(d: DoubleGroupGroupoid) -> RoundTrip:
    """Build the comparison ``theta(gamma(d)) -> d`` and verify it is an
    isomorphism of double group-groupoids.

    On squares the map is ``(x, b) -> x + epsh(b)``, on vertical edges
    ``(a, y) -> a + epsV(y)``; horizontal edges and points are untouched.
    """
    dd = theta(gamma(d))
    _, incK = kernel(d.d0h)
    _, incK0 = kernel(d.d0V)
    fs = GroupHom(dd.s, d.s, d.s.table[incK.map[:, None],
                                       d.epsh.map[None, :]].ravel())
    fv = GroupHom(dd.v, d.v, d.v.table[incK0.map[:, None],
                                       d.epsV.map[None, :]].ravel())
    m = DGGMorphism(dd, d, fs, GroupHom.identity(d.h), fv,
                    GroupHom.identity(d.p))
    return _verified(m, validate_dgg_morphism)


def roundtrip_gamma_theta(xm: XModGG) -> RoundTrip:
    """Build the comparison ``xm -> gamma(theta(xm))`` and verify it is an
    isomorphism of crossed modules over group-groupoids.

    The arrow component sends ``a`` to the pair ``(a, 0)``, which lies in
    the kernel of ``d0h``; the opposite pair order ``(0, a)`` does not.
    """
    dd = theta(xm)
    xm2 = gamma(dd)
    G, H = xm.g, xm.h
    f = GGMorphism(G, xm2.g,
                   GroupHom(G.arrows, xm2.g.arrows,
                            _into_kernel(G.arrows, H.arrows, dd.d0h)),
                   GroupHom(G.objects, xm2.g.objects,
                            _into_kernel(G.objects, H.objects, dd.d0V)))
    m = XModGGMorphism(xm, xm2, f, identity(GGMorphism, H))
    return _verified(m, validate_xmod_gg_morphism)


# ---------------------------------------------------------------------------
# delta : crossed modules over group-groupoids -> crossed squares


@once_per_value
def delta(xm: XModGG) -> CrossedSquare:
    """``L = Ker d0`` of the first arrow group, ``M = Ker d0`` of the
    second, ``N`` and ``P`` the object groups; the four maps restrict the
    boundary and target maps, the point group acts through identity arrows,
    and ``h(m, n) = m . eps(n) - eps(n)``."""
    G, H = xm.g, xm.h
    L, incL = kernel(G.d0)
    M, incM = kernel(H.d0)
    N, P = G.objects, H.objects
    act, eG = xm.action.perms, G.eps.map
    message = "an element left Ker d0"

    lam = hom_restrict(xm.boundary_arrows, incL, incM)
    act_p_on_l = GroupAction(P, L, read_back(
        act[H.eps.map[:, None], incL.map[None, :]], incL, message))
    # h(m, n) = m . eps(n) - eps(n)
    hmap = read_back(G.arrows.table[act[incM.map[:, None], eG[None, :]],
                                    G.arrows.inverse[eG][None, :]],
                     incL, message)
    return CrossedSquare(L, M, N, P, lam, compose(incL, G.d1),
                         compose(incM, H.d1), xm.boundary_objects,
                         act_p_on_l, conjugation_through(H.eps, incM),
                         object_action(xm.action, G, H), hmap)


# ---------------------------------------------------------------------------
# eta : crossed squares -> crossed modules over group-groupoids


@once_per_value
def eta(xs: CrossedSquare) -> XModGG:
    """Rebuild the two group-groupoids from the columns of the square and
    act through the pairing:
    ``(m,p) . (l,n) = (m.(p.l) + h(m, p.n), p.n)``."""
    L, M, N, P = xs.l, xs.m, xs.n, xs.p
    PL, PN = xs.act_p_on_l.perms, xs.act_p_on_n.perms
    Ggg = gg_from_xmod(XModGroups(L, N, xs.lam_prime,
                                  GroupAction(N, L, PL[xs.nu.map])))
    Hgg = gg_from_xmod(XModGroups(M, P, xs.mu, xs.act_p_on_m))
    bd1 = GroupHom(Ggg.arrows, Hgg.arrows,
                   pair_map(xs.lam.map, xs.nu.map, P.order))
    # at (m, p, l, n): mu(m).(p.l) + h(m, p.n), by the axes of PL[mu][:, PL]
    # (m, p, l) and of hmap[:, PN] (m, p, n)
    lpart = L.table[PL[xs.mu.map][:, PL][..., None],
                    xs.hmap[:, PN][:, :, None, :]]
    act = GroupAction(Hgg.arrows, Ggg.arrows,
                      sd_index(N.order, lpart, PN[:, None, :])
                      .reshape(Hgg.arrows.order, Ggg.arrows.order))
    return XModGG(Ggg, Hgg, bd1, xs.nu, act)


# ---------------------------------------------------------------------------
# Round trips for the delta/eta equivalence


def roundtrip_eta_delta(xm: XModGG) -> RoundTrip:
    """Build the comparison ``xm -> eta(delta(xm))`` with the splitting
    ``a -> (a - eps(d0(a)), d0(a))`` on both arrow groups (the source map
    keeps the first component inside the kernel; pairing with the target
    map would not) and verify it is an isomorphism."""
    xs = delta(xm)
    xm2 = eta(xs)
    G, H = xm.g, xm.h
    f = GGMorphism(G, xm2.g,
                   GroupHom(G.arrows, xm2.g.arrows, splitting_map(G)),
                   GroupHom.identity(G.objects))
    g = GGMorphism(H, xm2.h,
                   GroupHom(H.arrows, xm2.h.arrows, splitting_map(H)),
                   GroupHom.identity(H.objects))
    m = XModGGMorphism(xm, xm2, f, g)
    return _verified(m, validate_xmod_gg_morphism)


def roundtrip_delta_eta(xs: CrossedSquare) -> RoundTrip:
    """Build the comparison ``xs -> delta(eta(xs))`` with ``l -> (l, 0)``
    and ``m -> (m, 0)`` into the rebuilt kernels, identity on the two base
    groups, and verify it is an isomorphism of crossed squares."""
    xm = eta(xs)
    xs2 = delta(xm)
    fl = GroupHom(xs.l, xs2.l, _into_kernel(xs.l, xs.n, xm.g.d0))
    fm = GroupHom(xs.m, xs2.m, _into_kernel(xs.m, xs.p, xm.h.d0))
    m = XSqMorphism(xs, xs2, fl, fm,
                    GroupHom.identity(xs.n), GroupHom.identity(xs.p))
    return _verified(m, validate_xsq_morphism)
