"""The equivalence functors and their round-trip isomorphism verifiers."""

from dataclasses import replace

import numpy as np

from ggx.dgg import (DGGMorphism, comp_h, comp_v, trivial_dgg, validate_dgg,
                     validate_dgg_morphism)
from ggx.equiv import (delta, eta, gamma, roundtrip_delta_eta,
                       roundtrip_eta_delta, roundtrip_gamma_theta,
                       roundtrip_theta_gamma, theta, theta_morphism)
from ggx.groups import (GroupAction, GroupHom, cyclic, kernel,
                        negation_action, symmetric_3)
from ggx.groupoids import (GroupGroupoid, compose_arrows, discrete_gg,
                           ker_d0, pair_gg)
from ggx.morphism import compose, identity, is_isomorphism
from ggx.xmod import (XModGGMorphism, XModGroups, identity_xmod,
                      pair_xmod, validate_xmod_gg, zero_xmod)
from ggx.xsq import validate_xsq
from ggx.catalog import catalog_build


def _xm_inv_pair():
    return pair_xmod(XModGroups(cyclic(3), cyclic(2),
                                GroupHom.zero(cyclic(3), cyclic(2)),
                                negation_action(cyclic(2), cyclic(3))))


def test_theta_of_identity_xmod_z2():
    d = theta(identity_xmod(discrete_gg(cyclic(2))))
    assert validate_dgg(d).ok
    assert d.s.order == 4 and d.p.order == 2


def test_theta_of_zero_xmod_matches_trivial_pattern():
    gg = pair_gg(cyclic(3))
    d = theta(zero_xmod(gg))
    t = trivial_dgg(gg)
    # the evident componentwise comparison (0,b) -> b is an isomorphism
    fs = GroupHom(d.s, t.s, tuple(range(d.s.order)))
    fv = GroupHom(d.v, t.v, tuple(range(d.v.order)))
    m = DGGMorphism(d, t, fs, GroupHom.identity(t.h), fv,
                    GroupHom.identity(t.p))
    assert is_isomorphism(m)


def test_theta_composition_displays():
    # on the double structure of a crossed module, the (S,H)-direction
    # composite merges first components additively and keeps the edge, the
    # (S,V)-direction composes both components in their groupoids
    xm = _xm_inv_pair()
    d = theta(xm)
    G, H = xm.g, xm.h
    nh = H.arrows.order
    for k in range(d.s.order):
        a, b = divmod(k, nh)
        for k1 in range(d.s.order):
            a1, b1 = divmod(k1, nh)
            if d.d1h(k) == d.d0h(k1):
                got = comp_h(d, k, k1)
                assert got == G.arrows.add(a1, a) * nh + b
            if d.d1v(k) == d.d0v(k1):
                got = comp_v(d, k, k1)
                want = (compose_arrows(G, a, a1) * nh
                        + compose_arrows(H, b, b1))
                assert got == want


def test_gamma_of_trivial_dgg_is_zero_xmod():
    gg = pair_gg(cyclic(2))
    xm = gamma(trivial_dgg(gg))
    assert validate_xmod_gg(xm).ok
    assert xm.g.arrows.order == 1 and xm.g.objects.order == 1
    assert xm.h.arrows == gg.arrows


def test_gamma_of_theta_validates():
    xm = gamma(theta(identity_xmod(discrete_gg(cyclic(2)))))
    assert validate_xmod_gg(xm).ok


def test_gamma_restriction_is_well_defined():
    # the target edge of a square with identity horizontal source has
    # identity source itself, so the boundary restriction lands correctly
    d = theta(_xm_inv_pair())
    K, inc = ker_d0(GroupGroupoid(d.s, d.h, d.d0h, d.d1h, d.epsh))
    for i in range(K.order):
        assert d.d0H(d.d1h(inc(i))) == d.d0V(d.d0v(inc(i)))


def test_roundtrip_gamma_theta_on_examples():
    for xm in (zero_xmod(discrete_gg(cyclic(2))),
               identity_xmod(discrete_gg(cyclic(2))),
               identity_xmod(pair_gg(symmetric_3())),
               _xm_inv_pair()):
        rt = roundtrip_gamma_theta(xm)
        assert rt.ok, rt.report.describe()


def test_roundtrip_theta_gamma_on_examples():
    for d in (trivial_dgg(discrete_gg(cyclic(2))),
              theta(identity_xmod(discrete_gg(cyclic(2)))),
              theta(_xm_inv_pair()),
              trivial_dgg(pair_gg(symmetric_3()))):
        rt = roundtrip_theta_gamma(d)
        assert rt.ok, rt.report.describe()


def test_theta_gamma_minus_square_map_is_not_a_morphism():
    # the square comparison (x, b) -> x - epsh(b) fails to commute with the
    # face maps once edges have order above two; the verified map is
    # (x, b) -> x + epsh(b)
    d = trivial_dgg(pair_gg(cyclic(3)))
    rt = roundtrip_theta_gamma(d)
    assert rt.ok, rt.report.describe()
    m = rt.morphism
    _, incK = kernel(d.d0h)
    nh = d.h.order
    minus = GroupHom(m.domain.s, d.s,
                     tuple(d.s.sub(incK(k // nh), d.epsh(k % nh))
                           for k in range(m.domain.s.order)))
    assert not validate_dgg_morphism(replace(m, fs=minus)).ok


def test_vertical_comparison_on_kernel_identities():
    # the vertical-edge comparison sends (0, y) to the degenerate edge at y
    d = trivial_dgg(pair_gg(cyclic(3)))
    rt = roundtrip_theta_gamma(d)
    m = rt.morphism
    K0, inc0 = ker_d0(GroupGroupoid(d.v, d.p, d.d0V, d.d1V, d.epsV))
    np_ = d.p.order
    for y in range(np_):
        pos = K0.zero * np_ + y
        assert m.fv(pos) == d.epsV(y)


def test_roundtrip_arrow_map_lands_in_source_kernel():
    xm = identity_xmod(discrete_gg(cyclic(2)))
    d = theta(xm)
    rt = roundtrip_gamma_theta(xm)
    _, inc = ker_d0(GroupGroupoid(d.s, d.h, d.d0h, d.d1h, d.epsh))
    for a in range(xm.g.arrows.order):
        assert d.d0h(inc(rt.morphism.f.on_arrows(a))) == d.h.zero


# ---------------------------------------------------------------------------
# delta / eta


def test_delta_of_discrete_identity_has_trivial_kernels():
    xs = delta(identity_xmod(discrete_gg(symmetric_3())))
    assert validate_xsq(xs).ok
    assert xs.l.order == 1 and xs.m.order == 1
    assert xs.n.order == 6 and xs.p.order == 6


def test_delta_of_pair_xmod_passes_all_axioms():
    xs = delta(pair_xmod(XModGroups(cyclic(2), cyclic(2),
                                    GroupHom.identity(cyclic(2)),
                                    GroupAction.trivial(cyclic(2),
                                                        cyclic(2)))))
    assert validate_xsq(xs).ok
    assert xs.l.order == 2


def test_delta_top_map_lands_in_the_kernel():
    xm = _xm_inv_pair()
    xs = delta(xm)
    # lam sends the source kernel of G into the source kernel of H
    _, incL = ker_d0(xm.g)
    for i in range(xs.l.order):
        assert xm.h.d0(xm.boundary_arrows(incL(i))) == xm.h.objects.zero


def test_eta_of_trivial_square_is_zero_like():
    from ggx.xsq import CrossedSquare
    from ggx.groups import trivial_group
    one = trivial_group()
    ident = GroupHom.identity(one)
    act = GroupAction.trivial(one, one)
    xs = CrossedSquare(one, one, one, one, ident, ident, ident, ident,
                       act, act, act, ((0,),))
    xm = eta(xs)
    assert validate_xmod_gg(xm).ok
    assert xm.g.arrows.order == 1 and xm.h.arrows.order == 1


def test_eta_of_delta_validates():
    xm2 = eta(delta(_xm_inv_pair()))
    assert validate_xmod_gg(xm2).ok


def test_eta_action_with_identity_first_component():
    # (0, p) . (l, n) = (p.l, p.n)
    xs = catalog_build("norrie-s3")
    xm = eta(xs)
    nn, npp = xs.n.order, xs.p.order
    for p in range(npp):
        bk = xs.m.zero * npp + p
        for l in range(xs.l.order):
            for n in range(nn):
                got = xm.action.act(bk, l * nn + n)
                want = (xs.act_p_on_l.act(p, l) * nn
                        + xs.act_p_on_n.act(p, n))
                assert got == want


def test_roundtrip_eta_delta_on_examples():
    for xm in (identity_xmod(discrete_gg(cyclic(2))), _xm_inv_pair(),
               identity_xmod(pair_gg(symmetric_3())),
               catalog_build("shear-xmod-v4-z2")):
        rt = roundtrip_eta_delta(xm)
        assert rt.ok, rt.report.describe()


def test_roundtrip_delta_eta_on_examples():
    for xs in (delta(_xm_inv_pair()), catalog_build("norrie-s3"),
               catalog_build("norrie-z2-whole"),
               catalog_build("norrie-z2-zero")):
        rt = roundtrip_delta_eta(xs)
        assert rt.ok, rt.report.describe()


def test_delta_eta_comparison_lands_in_rebuilt_kernel():
    xs = catalog_build("norrie-s3")
    xm = eta(xs)
    rt = roundtrip_delta_eta(xs)
    # the L component embeds as pairs with identity second coordinate
    nn = xs.n.order
    _, inc = ker_d0(xm.g)
    for l in range(xs.l.order):
        pos = rt.morphism.f_l(l)
        assert inc(pos) % nn == xs.n.zero


# ---------------------------------------------------------------------------
# functoriality


def test_theta_on_identity_morphism_is_identity():
    xm = _xm_inv_pair()
    m = theta_morphism(identity(XModGGMorphism, xm))
    assert validate_dgg_morphism(m).ok
    assert m.fs.map.tolist() == list(range(m.fs.domain.order))
    assert m.fp.map.tolist() == list(range(m.fp.domain.order))


def test_theta_preserves_composition():
    # two genuinely different comparison morphisms chained: the functor of
    # the composite equals the composite of the functors
    xm = identity_xmod(discrete_gg(cyclic(2)))
    t1 = roundtrip_gamma_theta(xm).morphism        # xm -> xm2
    xm2 = t1.codomain
    t2 = roundtrip_gamma_theta(xm2).morphism       # xm2 -> xm3
    assert validate_dgg_morphism(theta_morphism(t1)).ok
    assert validate_dgg_morphism(theta_morphism(t2)).ok
    chained = theta_morphism(compose(t1, t2))
    stepwise = compose(theta_morphism(t1), theta_morphism(t2))
    assert np.array_equal(chained.fs.map, stepwise.fs.map)
    assert np.array_equal(chained.fh.map, stepwise.fh.map)
    assert np.array_equal(chained.fv.map, stepwise.fv.map)
    assert np.array_equal(chained.fp.map, stepwise.fp.map)


def test_morphism_composition_is_associative():
    xm = identity_xmod(discrete_gg(cyclic(2)))
    t1 = roundtrip_gamma_theta(xm).morphism
    t2 = roundtrip_gamma_theta(t1.codomain).morphism
    t3 = roundtrip_gamma_theta(t2.codomain).morphism
    left = compose(compose(t1, t2), t3)
    right = compose(t1, compose(t2, t3))
    assert np.array_equal(left.f.on_arrows.map, right.f.on_arrows.map)
    assert np.array_equal(left.g.on_arrows.map, right.g.on_arrows.map)
    from ggx.xmod import validate_xmod_gg_morphism
    assert validate_xmod_gg_morphism(left).ok
