"""Enumeration oracles: expected small counts, frozen regression counts,
exhaustiveness and determinism."""

import json
import os
from itertools import product

import pytest

from ggx import enumeration
from ggx.enumeration import (all_actions, all_gg_structures, all_homs,
                             all_xmod_gg, all_xmod_groups, automorphism_group,
                             base_groups, resolve_bound)
from ggx.groups import (GroupHom, cyclic, is_hom, klein_four, symmetric_3,
                        trivial_group, validate_action)
from ggx.groupoids import validate_group_groupoid
from ggx.report import BoundExceededError
from ggx.xmod import validate_xmod_gg, validate_xmod_groups

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def frozen_counts():
    with open(os.path.join(FIXDIR, "enumeration-counts.json")) as fh:
        return json.load(fh)["counts"]


def test_hom_counts():
    z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
    assert len(all_homs(z2, z2)) == 2
    assert len(all_homs(z3, z2)) == 1
    assert [f.map.tolist() for f in all_homs(z2, z4)] == [[0, 0], [0, 2]]


def test_hom_enumeration_matches_direct_filter():
    # secondary pass over the whole candidate space at the smallest orders
    z2, z4 = cyclic(2), cyclic(4)
    brute = [m for m in product(range(4), repeat=2)
             if is_hom(GroupHom(z2, z4, m))]
    assert [list(m) for m in sorted(brute)] == \
        [f.map.tolist() for f in all_homs(z2, z4)]
    z3 = cyclic(3)
    brute = [m for m in product(range(3), repeat=3)
             if is_hom(GroupHom(z3, z3, m))]
    assert [list(m) for m in sorted(brute)] == \
        [f.map.tolist() for f in all_homs(z3, z3)]


def test_action_counts():
    z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
    assert len(all_actions(z2, z3)) == 2
    assert len(all_actions(z3, z2)) == 1
    assert len(all_actions(z2, z4)) == 2
    for act in all_actions(klein_four(), klein_four()):
        assert validate_action(act).ok


def test_automorphism_groups():
    aut, autos = automorphism_group(cyclic(3))
    assert aut.order == 2
    aut, _ = automorphism_group(klein_four())
    assert aut.order == 6
    aut, _ = automorphism_group(symmetric_3())
    assert aut.order == 6


def test_xmod_groups_counts():
    z2, z3 = cyclic(2), cyclic(3)
    assert len(all_xmod_groups(z2, z2)) == 2
    assert len(all_xmod_groups(z3, z2)) == 2
    assert len(all_xmod_groups(symmetric_3(), trivial_group())) == 0
    for xm in all_xmod_groups(z3, cyclic(3)):
        assert validate_xmod_groups(xm).ok


def test_gg_structure_counts():
    z2, z4 = cyclic(2), cyclic(4)
    ggs = all_gg_structures(z2, z2)
    assert len(ggs) == 1
    assert ggs[0].d0.map.tolist() == [0, 1]  # the discrete structure
    assert len(all_gg_structures(z4, z2)) == 0
    assert len(all_gg_structures(z2, z4)) == 0  # no injective section
    for gg in all_gg_structures(klein_four(), z2):
        assert validate_group_groupoid(gg).ok


def test_xmod_gg_bound_two_contains_the_standard_pair():
    found = list(all_xmod_gg(2))
    assert len(found) == 2
    boundaries = sorted(x.boundary_arrows.map.tolist() for x in found)
    assert boundaries == [[0, 0], [0, 1]]  # the zero and identity modules


def test_every_streamed_instance_validates(corpus_small):
    for xm in corpus_small:
        assert validate_xmod_gg(xm).ok


def test_stream_is_duplicate_free(corpus_small):
    seen = set()
    for xm in corpus_small:
        key = tuple(x.tobytes() for x in (
            xm.g.arrows.table, xm.g.objects.table, xm.g.d0.map,
            xm.g.d1.map, xm.g.eps.map, xm.h.arrows.table,
            xm.h.objects.table, xm.h.d0.map, xm.h.d1.map, xm.h.eps.map,
            xm.boundary_arrows.map, xm.boundary_objects.map,
            xm.action.perms))
        assert key not in seen
        seen.add(key)


def test_stream_is_deterministic():
    first = [(x.boundary_arrows.map.tolist(), x.action.perms.tolist())
             for x in all_xmod_gg(3)]
    second = [(x.boundary_arrows.map.tolist(), x.action.perms.tolist())
              for x in all_xmod_gg(3)]
    assert first == second


def test_frozen_counts_are_stable():
    counts = frozen_counts()
    names = {"z2": cyclic(2), "z3": cyclic(3), "z4": cyclic(4),
             "v4": klein_four(), "s3": symmetric_3(), "1": trivial_group()}
    for key, want in counts["all_homs"].items():
        a, b = key.split("->")
        assert len(all_homs(names[a], names[b])) == want, key
    for key, want in counts["all_actions"].items():
        b, a = key.split(" on ")
        assert len(all_actions(names[b], names[a])) == want, key
    for key, want in counts["all_xmod_groups"].items():
        a, b = key.split("/")
        assert len(all_xmod_groups(names[a], names[b])) == want, key
    for key, want in counts["all_gg_structures"].items():
        g, g0 = key.split("/")
        assert len(all_gg_structures(names[g], names[g0])) == want, key
    for bound in (2, 3):
        assert sum(1 for _ in all_xmod_gg(int(bound))) == \
            counts["all_xmod_gg"][str(bound)]


def test_frozen_count_bound_four(corpus_small):
    # checked through the session corpus fixture to avoid re-enumerating
    counts = frozen_counts()
    assert counts["all_xmod_gg"]["4"] == 2958


def test_frozen_count_bound_six():
    assert sum(1 for _ in all_xmod_gg(6)) == \
        frozen_counts()["all_xmod_gg"]["6"] == 5409


def test_all_xmod_gg_lists_actions_once_per_group_pair(monkeypatch):
    pairs = []
    real = enumeration.all_actions

    def counted(b, a, max_order=None):
        pairs.append((b, a))
        return real(b, a, max_order=max_order)

    monkeypatch.setattr(enumeration, "all_actions", counted)
    assert sum(1 for _ in all_xmod_gg(4)) == frozen_counts()["all_xmod_gg"]["4"]
    assert pairs and len(pairs) == len(set(pairs))


def test_bound_is_enforced():
    with pytest.raises(BoundExceededError):
        all_homs(cyclic(9), cyclic(2), max_order=8)


def test_env_var_overrides_bound(monkeypatch):
    monkeypatch.setenv("GGX_MAX_ORDER", "3")
    assert resolve_bound() == 3
    with pytest.raises(BoundExceededError):
        all_homs(cyclic(4), cyclic(2))
    monkeypatch.delenv("GGX_MAX_ORDER")
    assert resolve_bound() == 8


def test_base_group_catalog():
    names = [g.name for g in base_groups()]
    assert names == ["z2", "z3", "z4", "z5", "z6", "z7", "z8", "v4", "s3",
                     "d4", "q8"]
