"""The two categorical equivalences, realized as executable functors with
instance-level isomorphism verification.

* ``theta`` / ``gamma`` pass between crossed modules over group-groupoids
  and double group-groupoids.
* ``delta`` / ``eta`` pass between crossed modules over group-groupoids and
  crossed squares over groups.

Each ``roundtrip_*`` function constructs the natural comparison morphism
explicitly and verifies that it is an isomorphism in the relevant category;
the verifier is exhaustive, no tolerance is involved.

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

from .groups import (GroupAction, GroupHom, compose, conjugation_through,
                     hom_restrict, is_injective, is_surjective, kernel,
                     sd_index, semidirect_product)
from .groupoids import GGMorphism, GroupGroupoid, object_action
from .report import ValidationReport
from .dgg import DGGMorphism, DoubleGroupGroupoid, validate_dgg_morphism
from .xmod import (XModGG, XModGGMorphism, XModGroups,
                   validate_xmod_gg_morphism)
from .xsq import CrossedSquare, XSqMorphism, validate_xsq_morphism


@dataclass(frozen=True)
class RoundTrip:
    """Outcome of a round-trip isomorphism verification."""

    ok: bool
    morphism: object
    report: ValidationReport

    def summary(self) -> str:
        return "isomorphism verified" if self.ok else "isomorphism FAILED"


def _verified(m, rep: ValidationReport, components) -> RoundTrip:
    """The round trip of the comparison ``m``, whose validator returned
    ``rep``: an isomorphism when ``rep`` is valid and every component map
    is a bijection."""
    ok = rep.ok and all(is_injective(f) and is_surjective(f)
                        for f in components)
    return RoundTrip(ok, m, rep)


# ---------------------------------------------------------------------------
# theta : crossed modules over group-groupoids -> double group-groupoids


def theta(xm: XModGG) -> DoubleGroupGroupoid:
    """Squares are the semidirect product of the arrow groups, horizontal
    edges the arrows of H, vertical edges the semidirect product of the
    object groups, points the objects of H.

    ``d0h(a,b) = b``, ``d1h(a,b) = bdry1(a) + b``, ``epsh(b) = (0,b)``; the
    ``(S,V)`` maps act componentwise; ``d0V(x,y) = y``,
    ``d1V(x,y) = bdry0(x) + y``, ``epsV(y) = (0,y)``.
    """
    G, H = xm.g, xm.h
    S = semidirect_product(G.arrows, H.arrows, xm.action)
    V = semidirect_product(G.objects, H.objects,
                           object_action(xm.action, G, H))
    nh, np_ = H.arrows.order, H.objects.order
    bd1, bd0 = xm.boundary_arrows, xm.boundary_objects

    d0h = GroupHom(S, H.arrows, tuple(k % nh for k in range(S.order)))
    d1h = GroupHom(S, H.arrows,
                   tuple(H.arrows.add(bd1(k // nh), k % nh)
                         for k in range(S.order)))
    epsh = GroupHom(H.arrows, S,
                    tuple(sd_index(nh, G.arrows.zero, b) for b in range(nh)))
    d0v = GroupHom(S, V, tuple(sd_index(np_, G.d0(k // nh), H.d0(k % nh))
                               for k in range(S.order)))
    d1v = GroupHom(S, V, tuple(sd_index(np_, G.d1(k // nh), H.d1(k % nh))
                               for k in range(S.order)))
    epsv = GroupHom(V, S, tuple(sd_index(nh, G.eps(m // np_), H.eps(m % np_))
                                for m in range(V.order)))
    d0V = GroupHom(V, H.objects, tuple(m % np_ for m in range(V.order)))
    d1V = GroupHom(V, H.objects,
                   tuple(H.objects.add(bd0(m // np_), m % np_)
                         for m in range(V.order)))
    epsV = GroupHom(H.objects, V,
                    tuple(sd_index(np_, G.objects.zero, y) for y in range(np_)))
    return DoubleGroupGroupoid(
        s=S, h=H.arrows, v=V, p=H.objects,
        d0h=d0h, d1h=d1h, epsh=epsh,
        d0v=d0v, d1v=d1v, epsv=epsv,
        d0H=H.d0, d1H=H.d1, epsH=H.eps,
        d0V=d0V, d1V=d1V, epsV=epsV)


def theta_morphism(m: XModGGMorphism) -> DGGMorphism:
    """The image of a morphism of crossed modules over group-groupoids:
    componentwise pair maps on squares and vertical edges."""
    dom, cod = theta(m.domain), theta(m.codomain)
    nh_d = m.domain.h.arrows.order
    nh_c = m.codomain.h.arrows.order
    np_d = m.domain.h.objects.order
    np_c = m.codomain.h.objects.order
    f1, f0 = m.f.on_arrows, m.f.on_objects
    g1, g0 = m.g.on_arrows, m.g.on_objects
    fs = GroupHom(dom.s, cod.s,
                  tuple(sd_index(nh_c, f1(k // nh_d), g1(k % nh_d))
                        for k in range(dom.s.order)))
    fv = GroupHom(dom.v, cod.v,
                  tuple(sd_index(np_c, f0(k // np_d), g0(k % np_d))
                        for k in range(dom.v.order)))
    return DGGMorphism(dom, cod, fs, g1, fv, g0)


# ---------------------------------------------------------------------------
# gamma : double group-groupoids -> crossed modules over group-groupoids


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
    nh, np_ = d.h.order, d.p.order
    S, V = d.s, d.v
    fs = GroupHom(dd.s, d.s, tuple(S.add(incK(k // nh), d.epsh(k % nh))
                                   for k in range(dd.s.order)))
    fv = GroupHom(dd.v, d.v,
                  tuple(V.add(incK0(m // np_), d.epsV(m % np_))
                        for m in range(dd.v.order)))
    m = DGGMorphism(dd, d, fs, GroupHom.identity(d.h), fv,
                    GroupHom.identity(d.p))
    return _verified(m, validate_dgg_morphism(m),
                     (m.fs, m.fh, m.fv, m.fp))


def roundtrip_gamma_theta(xm: XModGG) -> RoundTrip:
    """Build the comparison ``xm -> gamma(theta(xm))`` and verify it is an
    isomorphism of crossed modules over group-groupoids.

    The arrow component sends ``a`` to the pair ``(a, 0)``, which lies in
    the kernel of ``d0h``; the opposite pair order ``(0, a)`` does not.
    """
    dd = theta(xm)
    xm2 = gamma(dd)
    nh = xm.h.arrows.order
    np_ = xm.h.objects.order
    posK = {v: i for i, v in enumerate(kernel(dd.d0h)[1].map)}
    posK0 = {v: i for i, v in enumerate(kernel(dd.d0V)[1].map)}
    amap = tuple(posK[sd_index(nh, a, xm.h.arrows.zero)]
                 for a in range(xm.g.arrows.order))
    omap = tuple(posK0[sd_index(np_, x, xm.h.objects.zero)]
                 for x in range(xm.g.objects.order))
    f = GGMorphism(xm.g, xm2.g,
                   GroupHom(xm.g.arrows, xm2.g.arrows, amap),
                   GroupHom(xm.g.objects, xm2.g.objects, omap))
    g = GGMorphism(xm.h, xm2.h,
                   GroupHom.identity(xm.h.arrows),
                   GroupHom.identity(xm.h.objects))
    m = XModGGMorphism(xm, xm2, f, g)
    return _verified(m, validate_xmod_gg_morphism(m),
                     (f.on_arrows, f.on_objects, g.on_arrows, g.on_objects))


# ---------------------------------------------------------------------------
# delta : crossed modules over group-groupoids -> crossed squares


def delta(xm: XModGG) -> CrossedSquare:
    """``L = Ker d0`` of the first arrow group, ``M = Ker d0`` of the
    second, ``N`` and ``P`` the object groups; the four maps restrict the
    boundary and target maps, the point group acts through identity arrows,
    and ``h(m, n) = m . eps(n) - eps(n)``."""
    G, H = xm.g, xm.h
    L, incL = kernel(G.d0)
    M, incM = kernel(H.d0)
    N, P = G.objects, H.objects
    posL = {v: i for i, v in enumerate(incL.map)}

    lam = hom_restrict(xm.boundary_arrows, incL, incM)
    lam_p = compose(incL, G.d1)
    mu = compose(incM, H.d1)
    nu = xm.boundary_objects

    arrG = G.arrows
    act_p_on_l = GroupAction(P, L, tuple(
        tuple(posL[xm.action.act(H.eps(p), incL(i))] for i in range(L.order))
        for p in range(P.order)))
    act_p_on_m = conjugation_through(H.eps, incM)
    act_p_on_n = object_action(xm.action, G, H)

    hmap = tuple(
        tuple(posL[arrG.sub(xm.action.act(incM(m), G.eps(n)), G.eps(n))]
              for n in range(N.order))
        for m in range(M.order))
    return CrossedSquare(L, M, N, P, lam, lam_p, mu, nu,
                         act_p_on_l, act_p_on_m, act_p_on_n, hmap)


# ---------------------------------------------------------------------------
# eta : crossed squares -> crossed modules over group-groupoids


def eta(xs: CrossedSquare) -> XModGG:
    """Rebuild the two group-groupoids from the columns of the square and
    act through the pairing:
    ``(m,p) . (l,n) = (m.(p.l) + h(m, p.n), p.n)``."""
    from .groupoids import gg_from_xmod
    L, M, N, P = xs.l, xs.m, xs.n, xs.p
    act_n_on_l = GroupAction(N, L, tuple(
        tuple(xs.act_p_on_l.act(xs.nu(n), l) for l in range(L.order))
        for n in range(N.order)))
    xmG = XModGroups(L, N, xs.lam_prime, act_n_on_l)
    xmH = XModGroups(M, P, xs.mu, xs.act_p_on_m)
    Ggg = gg_from_xmod(xmG)
    Hgg = gg_from_xmod(xmH)
    nn, npp = N.order, P.order
    bd1 = GroupHom(Ggg.arrows, Hgg.arrows,
                   tuple(sd_index(npp, xs.lam(k // nn), xs.nu(k % nn))
                         for k in range(Ggg.arrows.order)))
    bd0 = xs.nu
    rows = []
    for bk in range(Hgg.arrows.order):
        m, p = divmod(bk, npp)
        row = []
        for ak in range(Ggg.arrows.order):
            l, n = divmod(ak, nn)
            pl = xs.act_p_on_l.act(p, l)
            pn = xs.act_p_on_n.act(p, n)
            lpart = L.add(xs.act_p_on_l.act(xs.mu(m), pl), xs.hmap[m][pn])
            row.append(sd_index(nn, lpart, pn))
        rows.append(tuple(row))
    act = GroupAction(Hgg.arrows, Ggg.arrows, tuple(rows))
    return XModGG(Ggg, Hgg, bd1, bd0, act)


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
    posL = {v: i for i, v in enumerate(kernel(G.d0)[1].map)}
    posM = {v: i for i, v in enumerate(kernel(H.d0)[1].map)}
    nn = G.objects.order
    npp = H.objects.order

    amap = tuple(sd_index(nn, posL[G.arrows.sub(a, G.eps(G.d0(a)))], G.d0(a))
                 for a in range(G.arrows.order))
    bmap = tuple(sd_index(npp, posM[H.arrows.sub(b, H.eps(H.d0(b)))], H.d0(b))
                 for b in range(H.arrows.order))
    f = GGMorphism(G, xm2.g,
                   GroupHom(G.arrows, xm2.g.arrows, amap),
                   GroupHom.identity(G.objects))
    g = GGMorphism(H, xm2.h,
                   GroupHom(H.arrows, xm2.h.arrows, bmap),
                   GroupHom.identity(H.objects))
    m = XModGGMorphism(xm, xm2, f, g)
    return _verified(m, validate_xmod_gg_morphism(m),
                     (f.on_arrows, f.on_objects, g.on_arrows, g.on_objects))


def roundtrip_delta_eta(xs: CrossedSquare) -> RoundTrip:
    """Build the comparison ``xs -> delta(eta(xs))`` with ``l -> (l, 0)``
    and ``m -> (m, 0)`` into the rebuilt kernels, identity on the two base
    groups, and verify it is an isomorphism of crossed squares."""
    xm = eta(xs)
    xs2 = delta(xm)
    nn, npp = xs.n.order, xs.p.order
    posL2 = {v: i for i, v in enumerate(kernel(xm.g.d0)[1].map)}
    posM2 = {v: i for i, v in enumerate(kernel(xm.h.d0)[1].map)}
    fl = GroupHom(xs.l, xs2.l,
                  tuple(posL2[sd_index(nn, l, xs.n.zero)]
                        for l in range(xs.l.order)))
    fm = GroupHom(xs.m, xs2.m,
                  tuple(posM2[sd_index(npp, m, xs.p.zero)]
                        for m in range(xs.m.order)))
    m = XSqMorphism(xs, xs2, fl, fm,
                    GroupHom.identity(xs.n), GroupHom.identity(xs.p))
    return _verified(m, validate_xsq_morphism(m),
                     (m.f_l, m.f_m, m.f_n, m.f_p))
