"""The reference oracle of the implied laws against the validators.

The validators stop at the checks that imply the laws of
``reference_laws``; these tests show, in both directions, that the oracle
is exactly as strong as what replaced it, and that it passes on every
catalog structure."""

import functools

import numpy as np
import pytest

from ggx.cli import _validator_for
from ggx.dgg import DoubleGroupGroupoid, validate_dgg
from ggx.enumeration import all_gg_structures, all_homs, base_groups
from ggx.equiv import theta
from ggx.groupoids import GroupGroupoid, validate_group_groupoid
from ggx.groups import is_injective
from ggx.xmod import XModGG
from reference_laws import dgg_laws, gg_laws, oracle

BOUND = 8


@functools.lru_cache(maxsize=None)
def candidates() -> tuple:
    """Every ``(d0, d1, eps)`` triple that :func:`all_gg_structures` hands to
    the validator at the bound, as ``(group-groupoid, report)``."""
    groups = [g for g in base_groups() if g.order <= BOUND]
    out = []
    for g in groups:
        for g0 in groups:
            if g0.order > g.order:
                continue
            down = all_homs(g, g0, max_order=BOUND)
            objects = np.arange(g0.order)
            for eps in all_homs(g0, g, max_order=BOUND):
                if not is_injective(eps):
                    continue
                sections = [f for f in down
                            if np.array_equal(f.map[eps.map], objects)]
                for d0 in sections:
                    for d1 in sections:
                        gg = GroupGroupoid(g, g0, d0, d1, eps)
                        out.append((gg, validate_group_groupoid(gg)))
    return tuple(out)


def test_oracle_passes_on_every_accepted_group_groupoid():
    groups = [g for g in base_groups() if g.order <= BOUND]
    accepted = [gg for g in groups for g0 in groups if g0.order <= g.order
                for gg in all_gg_structures(g, g0, max_order=BOUND)]
    assert len(accepted) == 91
    for gg in accepted:
        rep = gg_laws(gg)
        assert rep.ok, (gg.name, rep.describe())
    assert sum(rep.ok for _, rep in candidates()) == 91


def test_oracle_comp_agree_fires_where_only_ker_commute_fails():
    rejected = [(gg, rep) for gg, rep in candidates() if not rep.ok]
    assert len(rejected) == 8
    for gg, rep in rejected:
        assert rep.axiom == "ker-commute", rep.describe()
        law = gg_laws(gg)
        assert law.axiom == "comp-agree", (gg.name, law.describe())


@pytest.mark.parametrize("name", ["pair-xmod-z4", "pair-xmod-v4",
                                  "pair-xmod-s3"])
def test_oracle_passes_on_large_theta_images(catalog_entries, name):
    d = theta(catalog_entries[name])
    assert validate_dgg(d).ok
    rep = dgg_laws(d)
    assert rep.ok, rep.describe()


def test_oracle_passes_on_every_catalog_structure(catalog_entries):
    checked = 0
    for name in sorted(catalog_entries):
        obj = catalog_entries[name]
        if not isinstance(obj, (GroupGroupoid, DoubleGroupGroupoid,
                                XModGG)):
            continue
        assert _validator_for(obj)(obj).ok, name
        rep = oracle(obj)
        assert rep.ok, (name, rep.describe())
        checked += 1
        if isinstance(obj, XModGG) and \
                obj.g.arrows.order * obj.h.arrows.order <= 64:
            rep = dgg_laws(theta(obj))
            assert rep.ok, (f"theta({name})", rep.describe())
    assert checked >= 20
