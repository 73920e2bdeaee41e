"""Group-groupoids: validation, derived composition, kernels and the
correspondence with crossed modules of groups."""

from itertools import product

import numpy as np
import pytest

from ggx.groups import (SCAN_CHUNK, GroupAction, GroupHom,
                        conjugation_action, cyclic, direct_product,
                        klein_four, negation_action, symmetric_3)
from ggx.groupoids import (GGMorphism, GroupGroupoid, compose_arrows, costar,
                           discrete_gg, gg_conjugation_extension,
                           gg_from_xmod, gg_semidirect, groupoid_inverse,
                           ker_d0, ker_d1, pair_gg, splitting_iso, star,
                           validate_gg_morphism, validate_group_groupoid,
                           validate_split_extension_gg, xmod_from_gg)
from ggx.morphism import compose, identity, is_isomorphism, validate
from ggx.report import NotComposableError
from ggx.xmod import XModGroups, validate_xmod_groups
from ggx.enumeration import all_gg_structures
from dataclasses import replace
from reference_laws import interchange_add


def test_discrete_gg_is_valid():
    assert validate_group_groupoid(discrete_gg(cyclic(4))).ok


def test_pair_gg_is_valid():
    assert validate_group_groupoid(pair_gg(cyclic(3))).ok
    assert validate_group_groupoid(pair_gg(symmetric_3())).ok


def test_doubling_section_is_rejected():
    z4, z2 = cyclic(4), cyclic(2)
    mod2 = GroupHom(z4, z2, (0, 1, 0, 1))
    gg = GroupGroupoid(z4, z2, mod2, mod2, GroupHom(z2, z4, (0, 2)))
    rep = validate_group_groupoid(gg)
    assert not rep.ok and rep.axiom == "sec-d0" and rep.witness == (1,)


def test_pair_composition_law():
    a = cyclic(3)
    gg = pair_gg(a)
    n = a.order
    for x, y, z in product(range(n), repeat=3):
        assert compose_arrows(gg, x * n + y, y * n + z) == x * n + z


def test_composition_identity_law():
    gg = pair_gg(cyclic(3))
    for arr in range(gg.arrows.order):
        assert compose_arrows(gg, arr, gg.eps(gg.d1(arr))) == arr
        assert compose_arrows(gg, gg.eps(gg.d0(arr)), arr) == arr


def test_non_composable_raises():
    gg = pair_gg(cyclic(2))
    with pytest.raises(NotComposableError):
        compose_arrows(gg, 0, 3)  # d1(0,0)=0, d0(1,1)=1


def test_two_composition_formulas_agree():
    for gg in (pair_gg(symmetric_3()), discrete_gg(cyclic(4))):
        arr = gg.arrows
        for a in range(arr.order):
            for b in range(arr.order):
                if gg.d1(a) != gg.d0(b):
                    continue
                first = arr.add(arr.sub(b, gg.eps(gg.d0(b))), a)
                second = arr.add(arr.sub(a, gg.eps(gg.d1(a))), b)
                assert first == second == compose_arrows(gg, a, b)


def test_inverse_of_identity_arrow():
    gg = pair_gg(cyclic(3))
    for x in range(gg.objects.order):
        assert groupoid_inverse(gg, gg.eps(x)) == gg.eps(x)


def test_pair_inverse_swaps():
    a = cyclic(3)
    gg = pair_gg(a)
    for x, y in product(range(3), repeat=2):
        assert groupoid_inverse(gg, x * 3 + y) == y * 3 + x


def test_inverse_composes_to_identity():
    gg = pair_gg(symmetric_3())
    for a in range(gg.arrows.order):
        inv = groupoid_inverse(gg, a)
        assert compose_arrows(gg, inv, a) == gg.eps(gg.d1(a))
        assert compose_arrows(gg, a, inv) == gg.eps(gg.d0(a))


def test_stars():
    gg = discrete_gg(cyclic(4))
    for x in range(4):
        assert star(gg, x).tolist() == [gg.eps(x)]
    gg = pair_gg(cyclic(3))
    for x in range(3):
        assert len(star(gg, x)) == 3
        assert len(costar(gg, x)) == 3
    k, _ = ker_d0(gg)
    for x in range(3):
        assert len(star(gg, x)) == k.order


def test_kernels():
    assert ker_d0(discrete_gg(cyclic(5)))[0].order == 1
    a = cyclic(3)
    k, inc = ker_d0(pair_gg(a))
    assert k.order == 3
    assert all(inc(i) // 3 == 0 for i in range(3))  # arrows (0, b)
    k1, _ = ker_d1(pair_gg(a))
    assert k1.order == 3


def test_gg_from_xmod_z2_identity():
    xm = XModGroups(cyclic(2), cyclic(2), GroupHom.identity(cyclic(2)),
                    GroupAction.trivial(cyclic(2), cyclic(2)))
    gg = gg_from_xmod(xm)
    assert validate_group_groupoid(gg).ok
    assert gg.arrows.order == 4 and gg.objects.order == 2
    for k in range(4):
        a, b = divmod(k, 2)
        assert gg.d0(k) == b
        assert gg.d1(k) == (a + b) % 2


def test_gg_from_xmod_zero_boundary_gives_bundle():
    z3, z2 = cyclic(3), cyclic(2)
    xm = XModGroups(z3, z2, GroupHom.zero(z3, z2), negation_action(z2, z3))
    gg = gg_from_xmod(xm)
    assert validate_group_groupoid(gg).ok
    assert np.array_equal(gg.d0.map, gg.d1.map)  # loops only


def test_gg_from_conjugation_xmod_star_sizes():
    s3 = symmetric_3()
    xm = XModGroups(s3, s3, GroupHom.identity(s3), conjugation_action(s3))
    gg = gg_from_xmod(xm)
    assert validate_group_groupoid(gg).ok
    for x in range(s3.order):
        assert len(star(gg, x)) == s3.order


def test_kernel_of_gg_from_xmod():
    z3, z2 = cyclic(3), cyclic(2)
    xm = XModGroups(z3, z2, GroupHom.zero(z3, z2), negation_action(z2, z3))
    k, inc = ker_d0(gg_from_xmod(xm))
    assert k.order == 3
    assert all(v % 2 == 0 for v in inc.map)  # pairs (a, 0)


def test_xmod_from_gg_discrete_is_trivial():
    xm = xmod_from_gg(discrete_gg(cyclic(4)))
    assert xm.a.order == 1
    assert validate_xmod_groups(xm).ok


def test_xmod_from_gg_pair_validates():
    xm = xmod_from_gg(pair_gg(symmetric_3()))
    assert validate_xmod_groups(xm).ok
    assert xm.a.order == 6


def test_roundtrip_isomorphism_on_examples():
    for gg in (discrete_gg(cyclic(4)), pair_gg(cyclic(3)),
               pair_gg(symmetric_3()),
               gg_from_xmod(XModGroups(cyclic(2), cyclic(2),
                                       GroupHom.identity(cyclic(2)),
                                       GroupAction.trivial(cyclic(2),
                                                           cyclic(2))))):
        iso = splitting_iso(gg)
        assert is_isomorphism(iso)


def test_roundtrip_isomorphism_on_enumerated_structures():
    groups = [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(6),
              symmetric_3(), cyclic(8)]
    seen = 0
    for g in groups:
        for g0 in groups:
            if g0.order > g.order:
                continue
            for gg in all_gg_structures(g, g0):
                assert is_isomorphism(splitting_iso(gg))
                xm = xmod_from_gg(gg)
                assert validate_xmod_groups(xm).ok
                seen += 1
    assert seen > 20


def test_xmod_roundtrip_through_gg_on_enumerated_modules():
    # crossed module -> group-groupoid -> crossed module is isomorphic to
    # the identity: the kernel of the rebuilt source map is the pairs
    # (a, 0), so a -> position of (a, 0) with the base group untouched
    from ggx.enumeration import all_xmod_groups
    from ggx.xmod import XModGroupsMorphism
    from ggx.groups import is_injective, is_surjective
    pairs = [(cyclic(2), cyclic(2)), (cyclic(3), cyclic(2)),
             (klein_four(), cyclic(2)), (cyclic(4), cyclic(4)),
             (symmetric_3(), symmetric_3())]
    seen = 0
    for a, b in pairs:
        for xm in all_xmod_groups(a, b):
            back = xmod_from_gg(gg_from_xmod(xm))
            _, inc = ker_d0(gg_from_xmod(xm))
            pos = {v: i for i, v in enumerate(inc.map)}
            nb = xm.b.order
            f1 = GroupHom(xm.a, back.a,
                          tuple(pos[i * nb] for i in range(xm.a.order)))
            m = XModGroupsMorphism(xm, back, f1, GroupHom.identity(xm.b))
            assert validate(m).ok
            assert is_injective(f1) and is_surjective(f1)
            seen += 1
    assert seen > 10


def test_interchange_inside_one_groupoid():
    gg = pair_gg(symmetric_3())
    arr = gg.arrows
    pairs = [(a, b) for a in range(arr.order) for b in range(arr.order)
             if gg.d1(a) == gg.d0(b)]
    for (a, b) in pairs[:80]:
        for (a1, b1) in pairs[:80]:
            lhs = arr.add(compose_arrows(gg, a, b), compose_arrows(gg, a1, b1))
            rhs = compose_arrows(gg, arr.add(a, a1), arr.add(b, b1))
            assert lhs == rhs


def test_chunked_interchange_scan_keeps_the_first_witness():
    # the discrete groupoid on z2 x zC, C = SCAN_CHUNK, with the
    # composite of each pair (a, a), a = (1, x), shifted by (0, 1): the
    # pairs of the first chunk, a = (0, x), still interchange with the
    # group operation, and two pairs of the second chunk do not
    c = SCAN_CHUNK
    g = direct_product(cyclic(2), cyclic(c))
    tbl = g.table
    A, B, comp, comp_full = discrete_gg(g).composable_pairs
    assert len(A) == 2 * c
    comp = tbl[comp, np.where(A >= c, 1, 0)]
    comp_full = comp_full.copy()
    comp_full[A, B] = comp
    lhs = tbl[comp[:, None], comp]
    rhs = comp_full[tbl[A[:, None], A], tbl[B[:, None], B]]
    i, j = np.argwhere(lhs != rhs)[0]      # every pair of pairs in one grid
    assert i >= c
    rep = interchange_add(tbl, (A, B, comp, comp_full))
    assert rep.axiom == "interchange"
    assert rep.witness == (A[i], B[i], A[j], B[j])


def test_kernels_commute_elementwise():
    for gg in (pair_gg(symmetric_3()), discrete_gg(cyclic(4))):
        arr = gg.arrows
        k0, inc0 = ker_d0(gg)
        k1, inc1 = ker_d1(gg)
        for i in range(k0.order):
            for j in range(k1.order):
                a, b = inc0(i), inc1(j)
                assert arr.add(a, b) == arr.add(b, a)


def test_gg_morphism_validation_and_composition():
    gg = pair_gg(cyclic(2))
    ident = identity(GGMorphism, gg)
    assert validate_gg_morphism(ident).ok
    assert validate_gg_morphism(compose(ident, ident)).ok
    bad = GGMorphism(gg, gg, GroupHom(gg.arrows, gg.arrows, (0, 2, 1, 3)),
                     GroupHom.identity(gg.objects))
    assert not validate_gg_morphism(bad).ok


def test_conjugation_extension_of_gg_is_valid():
    for gg in (pair_gg(cyclic(2)), discrete_gg(symmetric_3())):
        ext = gg_conjugation_extension(gg)
        assert validate_split_extension_gg(ext).ok


def test_direct_product_extension_of_gg_is_valid():
    gg = pair_gg(cyclic(2))
    ext = gg_conjugation_extension(gg)  # conjugation on abelian = trivial
    assert validate_split_extension_gg(ext).ok


def test_split_extension_gg_catches_broken_section():
    ext = gg_conjugation_extension(pair_gg(cyclic(2)))
    bad = replace(ext, s=GGMorphism(
        ext.h, ext.k,
        GroupHom.zero(ext.h.arrows, ext.k.arrows),
        GroupHom.zero(ext.h.objects, ext.k.objects)))
    rep = validate_split_extension_gg(bad)
    assert not rep.ok
    assert rep.axiom == "section"
    assert rep.where.startswith("level-")


def test_gg_semidirect_validates():
    gg = pair_gg(cyclic(2))
    k = gg_semidirect(gg, gg, conjugation_action(gg.arrows))
    assert validate_group_groupoid(k).ok
    assert k.arrows.order == 16
