"""Brute-force enumeration of homomorphisms, actions, crossed modules and
group-groupoid structures at small orders.

These are the oracles behind the test corpus: results are exhaustive and
duplicate-free at the representation level, and the output order is
deterministic (candidates are generated over lexicographically ordered
image tuples and results sorted by their map encoding).

Within one :func:`all_xmod_gg` call the homomorphisms and actions between
two groups are computed once per pair of groups and shared by every
group-groupoid pair over them, so each shared hom and action is also
validated once (see :func:`~ggx.report.once_per_value`).

Every entry point accepts a ``max_order`` bound; ``None`` means the
configured default, which is 8 unless the ``GGX_MAX_ORDER`` environment
variable overrides it.  Requests over the bound raise
:class:`~ggx.report.BoundExceededError`.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import product

from .groups import (FiniteGroup, GroupAction, GroupHom, cyclic, dihedral_8,
                     generating_sequence, generating_words, is_hom,
                     klein_four, quaternion_8, symmetric_3)
from .groupoids import (GGMorphism, GroupGroupoid, validate_group_groupoid,
                        validate_morphism_squares)
from .report import BoundExceededError, GgxError
from .xmod import (XModGG, XModGroups, arrow_level,
                   validate_action_compatibility, validate_xmod_groups)

DEFAULT_MAX_ORDER = 8


def resolve_bound(max_order: int | None = None) -> int:
    if max_order is not None:
        return max_order
    env = os.environ.get("GGX_MAX_ORDER")
    if not env:
        return DEFAULT_MAX_ORDER
    try:
        return int(env)
    except ValueError:
        raise GgxError(f"GGX_MAX_ORDER must be an integer, got {env!r}") \
            from None


def _check_bound(bound: int, *groups: FiniteGroup) -> None:
    for g in groups:
        if g.order > bound:
            raise BoundExceededError(
                f"group {g.name!r} of order {g.order} exceeds the "
                f"enumeration bound {bound}")


def base_groups() -> tuple[FiniteGroup, ...]:
    """The stock groups the corpus is built over: cyclic groups of order 2
    through 8, the Klein four-group, and the three nonabelian groups of
    order at most 8."""
    return (cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(6), cyclic(7),
            cyclic(8), klein_four(), symmetric_3(), dihedral_8(),
            quaternion_8())


def all_homs(a: FiniteGroup, b: FiniteGroup,
             max_order: int | None = None) -> list[GroupHom]:
    """Every homomorphism ``a -> b``, by backtracking over the images of a
    generating set and filtering with the exhaustive hom law."""
    bound = resolve_bound(max_order)
    _check_bound(bound, a, b)
    gens = generating_sequence(a)
    words = generating_words(a, gens)
    out = []
    for images in product(range(b.order), repeat=len(gens)):
        m = [0] * a.order
        for e, (prev, pos) in words:
            m[e] = b.zero if prev == -1 else b.add(m[prev], images[pos])
        f = GroupHom(a, b, tuple(m))
        if is_hom(f):
            out.append(f)
    out.sort(key=lambda f: f.map)
    return out


def automorphism_group(g: FiniteGroup,
                       max_order: int | None = None):
    """The automorphisms of ``g`` as a group under composition, together
    with the list of automorphisms in the group's element order.

    The group operation is ``i + j = (element i) after (element j)``, so a
    homomorphism into it is exactly an action."""
    bound = resolve_bound(max_order)
    _check_bound(bound, g)
    autos = [f for f in all_homs(g, g, max_order=max_order)
             if len(set(f.map)) == g.order]
    autos.sort(key=lambda f: f.map)
    n = len(autos)
    pos = {f.map: i for i, f in enumerate(autos)}
    rows = []
    for i in range(n):
        fi = autos[i].map
        row = []
        for j in range(n):
            fj = autos[j].map
            row.append(pos[tuple(fi[v] for v in fj)])
        rows.append(tuple(row))
    aut = FiniteGroup(f"aut[{g.name}]", tuple(f"a{i}" for i in range(n)),
                      tuple(rows))
    return aut, autos


def all_actions(b: FiniteGroup, a: FiniteGroup,
                max_order: int | None = None) -> list[GroupAction]:
    """Every action of ``b`` on ``a`` by automorphisms: the homomorphisms
    from ``b`` into the automorphism group of ``a``, materialized as
    permutation tables."""
    bound = resolve_bound(max_order)
    _check_bound(bound, a, b)
    aut, autos = automorphism_group(a, max_order=max_order)
    out = []
    for f in all_homs(b, aut, max_order=max(bound, aut.order)):
        perms = tuple(autos[f(x)].map for x in range(b.order))
        out.append(GroupAction(b, a, perms))
    out.sort(key=lambda act: act.perms)
    return out


def all_xmod_groups(a: FiniteGroup, b: FiniteGroup,
                    max_order: int | None = None) -> list[XModGroups]:
    """Every crossed-module structure on the pair ``(a, b)``: all
    (boundary, action) combinations passing CM1 and CM2."""
    boundaries = all_homs(a, b, max_order=max_order)
    out = []
    for act in all_actions(b, a, max_order=max_order):
        for bd in boundaries:
            xm = XModGroups(a, b, bd, act)
            if validate_xmod_groups(xm).ok:
                out.append(xm)
    out.sort(key=lambda xm: (xm.boundary.map, xm.action.perms))
    return out


def all_gg_structures(g: FiniteGroup, g0: FiniteGroup,
                      max_order: int | None = None) -> list[GroupGroupoid]:
    """Every group-groupoid structure with arrow group ``g`` and object
    group ``g0``: all (d0, d1, eps) triples passing full validation."""
    bound = resolve_bound(max_order)
    _check_bound(bound, g, g0)
    homs_down = all_homs(g, g0, max_order=max_order)
    homs_up = all_homs(g0, g, max_order=max_order)
    out = []
    for eps in homs_up:
        if len(set(eps.map)) != g0.order:
            continue  # a section must be injective
        for d0 in homs_down:
            if any(d0(eps(x)) != x for x in range(g0.order)):
                continue
            for d1 in homs_down:
                if any(d1(eps(x)) != x for x in range(g0.order)):
                    continue
                gg = GroupGroupoid(g, g0, d0, d1, eps)
                if validate_group_groupoid(gg).ok:
                    out.append(gg)
    out.sort(key=lambda gg: (gg.d0.map, gg.d1.map, gg.eps.map))
    return out


def _boundary_candidates(ggG: GroupGroupoid, ggH: GroupGroupoid, homs):
    """(boundary-on-arrows, boundary-on-objects) pairs forming a morphism
    of group-groupoids; ``homs(a, b)`` lists the homomorphisms ``a -> b``."""
    homs0 = homs(ggG.objects, ggH.objects)
    return [(b1, b0)
            for b1 in homs(ggG.arrows, ggH.arrows)
            for b0 in homs0
            if validate_morphism_squares(GGMorphism(ggG, ggH, b1, b0)).ok]


def all_xmod_gg(max_order: int | None = None):
    """Stream every crossed module over group-groupoids whose arrow groups
    are stock groups of order at most the bound.

    The candidate space is group-groupoid pairs from
    :func:`all_gg_structures`, boundary morphisms between them, and arrow
    actions; the screens applied are together equivalent to
    :func:`~ggx.xmod.validate_xmod_gg`, so every streamed instance is
    valid."""
    bound = resolve_bound(max_order)
    homs = cache(lambda a, b: all_homs(a, b, max_order=bound))
    actions = cache(lambda b, a: all_actions(b, a, max_order=bound))
    groups = [g for g in base_groups() if g.order <= bound]
    ggs: list[GroupGroupoid] = []
    for g in groups:
        for g0 in groups:
            if g0.order > g.order:
                continue
            ggs.extend(all_gg_structures(g, g0, max_order=bound))
    for ggG in ggs:
        for ggH in ggs:
            boundaries = _boundary_candidates(ggG, ggH, homs)
            if not boundaries:
                continue
            for act in actions(ggH.arrows, ggG.arrows):
                if not validate_action_compatibility(ggG, ggH, act).ok:
                    continue
                for b1, b0 in boundaries:
                    xm = XModGG(ggG, ggH, b1, b0, act)
                    if validate_xmod_groups(arrow_level(xm)).ok:
                        yield xm
