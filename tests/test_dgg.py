"""Double group-groupoids and the special double groupoid of a crossed
module."""

from dataclasses import replace

import pytest

from ggx.dgg import (DGGMorphism, SpecialSquare, comp_h, comp_v, inv_h,
                     inv_v, special_from_xmod, trivial_dgg, validate_dgg,
                     validate_dgg_morphism)
from ggx.groups import (GroupAction, GroupHom, cyclic, negation_action,
                        symmetric_3)
from ggx.groupoids import discrete_gg, pair_gg
from ggx.morphism import identity
from ggx.report import NotComposableError
from ggx.xmod import XModGroups, identity_xmod, pair_xmod
from ggx.equiv import theta


def test_trivial_dgg_on_discrete_gg():
    d = trivial_dgg(discrete_gg(cyclic(3)))
    assert validate_dgg(d).ok
    assert d.s.order == d.h.order == d.v.order == d.p.order == 3


def test_trivial_dgg_on_pair_gg():
    d = trivial_dgg(pair_gg(cyclic(2)))
    assert validate_dgg(d).ok
    assert d.s.order == 4 and d.p.order == 2


def test_theta_image_is_valid():
    xm = identity_xmod(discrete_gg(cyclic(2)))
    assert validate_dgg(theta(xm)).ok


def test_perturbed_degeneracy_is_reported_with_location():
    d = trivial_dgg(pair_gg(cyclic(2)))
    m = list(d.epsh.map)
    m[1] = 2
    bad = replace(d, epsh=GroupHom(d.h, d.s, tuple(m)))
    rep = validate_dgg(bad)
    assert not rep.ok
    assert rep.axiom == "hom-law"
    assert rep.where.startswith("(S,H)")


def test_comp_identity_law():
    d = trivial_dgg(pair_gg(cyclic(3)))
    for a in range(d.s.order):
        assert comp_h(d, a, d.epsh(d.d1h(a))) == a
        assert comp_v(d, a, d.epsv(d.d1v(a))) == a


def test_comp_two_orderings_agree():
    d = theta(pair_xmod(XModGroups(cyclic(3), cyclic(2),
                                   GroupHom.zero(cyclic(3), cyclic(2)),
                                   negation_action(cyclic(2), cyclic(3)))))
    S = d.s
    for a in range(S.order):
        for b in range(S.order):
            if d.d1h(a) == d.d0h(b):
                one = S.add(S.sub(b, d.epsh(d.d0h(b))), a)
                two = S.add(S.sub(a, d.epsh(d.d1h(a))), b)
                assert comp_h(d, a, b) == one == two
            if d.d1v(a) == d.d0v(b):
                one = S.add(S.sub(b, d.epsv(d.d0v(b))), a)
                two = S.add(S.sub(a, d.epsv(d.d1v(a))), b)
                assert comp_v(d, a, b) == one == two


def test_not_composable_raises():
    d = trivial_dgg(pair_gg(cyclic(2)))
    with pytest.raises(NotComposableError):
        comp_v(d, 0, 3)


def test_source_kernel_squares_compose_by_addition():
    d = theta(identity_xmod(pair_gg(symmetric_3())))
    S = d.s
    zero_v = d.v.zero
    kernel = [a for a in range(S.order) if d.d0v(a) == zero_v]
    for a in kernel:
        for b in kernel:
            if d.d1v(a) != d.d0v(b):
                continue
            # here d1v(a) = 0 = d0v(b): both sums equal the composite
            assert comp_v(d, a, b) == S.add(b, a) == S.add(a, b)


def test_inverse_identity_laws():
    d = theta(identity_xmod(discrete_gg(symmetric_3())))
    for b in range(d.s.order):
        assert comp_h(d, b, inv_h(d, b)) == d.epsh(d.d0h(b))
        assert comp_h(d, inv_h(d, b), b) == d.epsh(d.d1h(b))
        assert comp_v(d, b, inv_v(d, b)) == d.epsv(d.d0v(b))
        assert inv_h(d, d.epsh(d.d0h(b))) == d.epsh(d.d0h(b))


def test_kernel_inverse_reduction():
    # for squares with identity horizontal source the inverse is
    # -b + epsh(d1h(b)), in either order
    d = theta(pair_xmod(XModGroups(cyclic(3), cyclic(2),
                                   GroupHom.zero(cyclic(3), cyclic(2)),
                                   negation_action(cyclic(2), cyclic(3)))))
    S = d.s
    zero_h = d.h.zero
    for b in range(S.order):
        if d.d0h(b) != zero_h:
            continue
        e = d.epsh(d.d1h(b))
        assert inv_h(d, b) == S.add(S.neg(b), e) == S.sub(e, b)


def test_kernel_conjugation_depends_only_on_target_identity():
    d = theta(identity_xmod(pair_gg(symmetric_3())))
    S = d.s
    zero_v = d.v.zero
    kernel = [a for a in range(S.order) if d.d0v(a) == zero_v]
    for a in kernel:
        e = d.epsv(d.d1v(a))
        for a1 in kernel:
            lhs = S.add(S.add(a, a1), S.neg(a))
            rhs = S.add(S.add(e, a1), S.neg(e))
            assert lhs == rhs


def test_dgg_morphism_identity():
    d = trivial_dgg(pair_gg(cyclic(2)))
    assert validate_dgg_morphism(identity(DGGMorphism, d)).ok


# ---------------------------------------------------------------------------
# the special double groupoid


def _sp_z2():
    z2 = cyclic(2)
    return special_from_xmod(XModGroups(z2, z2, GroupHom.identity(z2),
                                        GroupAction.trivial(z2, z2)))


def _sp_z3z2():
    z3, z2 = cyclic(3), cyclic(2)
    return special_from_xmod(XModGroups(z3, z2, GroupHom.zero(z3, z2),
                                        negation_action(z2, z3)))


def test_square_count_z2():
    # the filler is determined by the four edges, so 2^4 squares
    assert len(_sp_z2().squares) == 16


def test_square_count_z3_z2():
    # zero boundary: the edge sum must vanish (8 frames), filler free (x3)
    assert len(_sp_z3z2().squares) == 24


def test_degenerate_square_satisfies_boundary():
    sp = _sp_z2()
    for a in range(2):
        for b in range(2):
            assert sp.boundary_holds(
                SpecialSquare(sp.base.a.zero, a, b, b, a))


def test_closure_of_both_compositions():
    for sp in (_sp_z2(), _sp_z3z2()):
        squares = set(sp.squares)
        for s in sp.squares:
            for t in sp.squares:
                if s.c == t.b:
                    u = sp.comp_h(s, t)
                    assert sp.boundary_holds(u) and u in squares
                if s.d == t.a:
                    u = sp.comp_v(s, t)
                    assert sp.boundary_holds(u) and u in squares


def test_associativity_identities_inverses():
    for sp in (_sp_z2(), _sp_z3z2()):
        sq = sp.squares
        for s in sq:
            assert sp.comp_h(s, sp.identity_h(s.c)) == s
            assert sp.comp_h(sp.identity_h(s.b), s) == s
            assert sp.comp_v(s, sp.identity_v(s.d)) == s
            assert sp.comp_v(sp.identity_v(s.a), s) == s
            assert sp.comp_h(s, sp.inv_h(s)) == sp.identity_h(s.b)
            assert sp.comp_v(s, sp.inv_v(s)) == sp.identity_v(s.a)
        for s in sq:
            for t in sq:
                if s.c != t.b:
                    continue
                st = sp.comp_h(s, t)
                for u in sq:
                    if t.c == u.b:
                        assert sp.comp_h(st, u) == sp.comp_h(s, sp.comp_h(t, u))
        for s in sq:
            for t in sq:
                if s.d != t.a:
                    continue
                st = sp.comp_v(s, t)
                for u in sq:
                    if t.d == u.a:
                        assert sp.comp_v(st, u) == sp.comp_v(s, sp.comp_v(t, u))


def test_special_interchange():
    sp = _sp_z3z2()
    sq = sp.squares
    for s in sq:
        for t in sq:
            if s.c != t.b:
                continue
            for s1 in sq:
                if s.d != s1.a:
                    continue
                for t1 in sq:
                    if s1.c != t1.b or t.d != t1.a:
                        continue
                    lhs = sp.comp_v(sp.comp_h(s, t), sp.comp_h(s1, t1))
                    rhs = sp.comp_h(sp.comp_v(s, s1), sp.comp_v(t, t1))
                    assert lhs == rhs


def test_special_not_composable_raises():
    sp = _sp_z2()
    s = sp.squares[0]
    t = next(t for t in sp.squares if t.b != s.c)
    with pytest.raises(NotComposableError):
        sp.comp_h(s, t)
