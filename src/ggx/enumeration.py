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

import numpy as np

from .groups import (FiniteGroup, GroupAction, GroupHom, cyclic, dihedral_8,
                     generating_sequence, generating_words, is_hom,
                     is_injective, klein_four, quaternion_8, symmetric_3)
from .groupoids import GGMorphism, GroupGroupoid, validate_group_groupoid
from .morphism import check_laws
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
    # every tuple of generator images, in lexicographic order
    images = np.indices((b.order,) * len(gens)).reshape(
        len(gens), b.order ** len(gens))
    maps = np.empty((images.shape[1], a.order), dtype=np.intp)
    for e, (prev, pos) in generating_words(a, gens):
        maps[:, e] = b.zero if prev == -1 else b.table[maps[:, prev],
                                                       images[pos]]
    out = [f for f in (GroupHom(a, b, m) for m in maps) if is_hom(f)]
    out.sort(key=lambda f: f.map.tolist())
    return out


def automorphism_group(g: FiniteGroup,
                       max_order: int | None = None):
    """The automorphisms of ``g`` as a group under composition, together
    with the list of automorphisms in the group's element order.

    The group operation is ``i + j = (element i) after (element j)``, so a
    homomorphism into it is exactly an action."""
    bound = resolve_bound(max_order)
    _check_bound(bound, g)
    autos = [f for f in all_homs(g, g, max_order=max_order) if is_injective(f)]
    n = len(autos)
    maps = np.array([f.map for f in autos])
    # the composites [i, j] = autos[i] after autos[j] are again the autos,
    # and np.unique lists rows in the same lexicographic order as all_homs,
    # so its inverse indexes autos
    _, table = np.unique(maps[:, maps].reshape(n * n, g.order), axis=0,
                         return_inverse=True)
    aut = FiniteGroup(f"aut[{g.name}]", tuple(f"a{i}" for i in range(n)),
                      table.reshape(n, n))
    return aut, autos


def all_actions(b: FiniteGroup, a: FiniteGroup,
                max_order: int | None = None) -> list[GroupAction]:
    """Every action of ``b`` on ``a`` by automorphisms: the homomorphisms
    from ``b`` into the automorphism group of ``a``, materialized as
    permutation tables."""
    bound = resolve_bound(max_order)
    _check_bound(bound, a, b)
    aut, autos = automorphism_group(a, max_order=max_order)
    maps = np.array([f.map for f in autos])
    out = [GroupAction(b, a, maps[f.map])
           for f in all_homs(b, aut, max_order=max(bound, aut.order))]
    out.sort(key=lambda act: act.perms.tolist())
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
    out.sort(key=lambda xm: (xm.boundary.map.tolist(),
                             xm.action.perms.tolist()))
    return out


def all_gg_structures(g: FiniteGroup, g0: FiniteGroup,
                      max_order: int | None = None) -> list[GroupGroupoid]:
    """Every group-groupoid structure with arrow group ``g`` and object
    group ``g0``: all (d0, d1, eps) triples passing full validation."""
    bound = resolve_bound(max_order)
    _check_bound(bound, g, g0)
    homs_down = all_homs(g, g0, max_order=max_order)
    homs_up = all_homs(g0, g, max_order=max_order)
    objects = np.arange(g0.order)
    out = []
    for eps in homs_up:
        if not is_injective(eps):
            continue  # a section must be injective
        sections = [f for f in homs_down
                    if np.array_equal(f.map[eps.map], objects)]
        for d0 in sections:
            for d1 in sections:
                gg = GroupGroupoid(g, g0, d0, d1, eps)
                if validate_group_groupoid(gg).ok:
                    out.append(gg)
    out.sort(key=lambda gg: (gg.d0.map.tolist(), gg.d1.map.tolist(),
                             gg.eps.map.tolist()))
    return out


def _boundary_candidates(ggG: GroupGroupoid, ggH: GroupGroupoid, homs):
    """(boundary-on-arrows, boundary-on-objects) pairs forming a morphism
    of group-groupoids; ``homs(a, b)`` lists the homomorphisms ``a -> b``."""
    homs0 = homs(ggG.objects, ggH.objects)
    return [(b1, b0)
            for b1 in homs(ggG.arrows, ggH.arrows)
            for b0 in homs0
            if check_laws(GGMorphism(ggG, ggH, b1, b0)).ok]


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
