"""The reference oracle of the implied laws against the validators.

The validators stop at the checks that imply the laws of
``reference_laws``; these tests show, in both directions, that the oracle
is exactly as strong as what replaced it, and that it passes on every
catalog structure.  Likewise ``validate_group`` decides associativity of a
large table over a generating set, and gives the verdict and first
witness of the whole-table scan."""

import functools

import numpy as np
import pytest

from ggx.cli import _validator_for
from ggx.dgg import DoubleGroupGroupoid, validate_dgg
from ggx.enumeration import all_gg_structures, all_homs, base_groups
from ggx.equiv import theta
from ggx.groupoids import GroupGroupoid, validate_group_groupoid
from ggx.groups import SCAN_CHUNK, is_injective, validate_group
from ggx.xmod import XModGG
from gen_witnesses import intercalates, loop_bases, swapped
from reference_laws import associativity, dgg_laws, gg_laws, oracle

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


def test_large_loops_get_the_verdict_and_witness_of_the_whole_scan():
    # loops past one block of the scan: about 25 intercalate swaps of each
    # group table, spread over the intercalates in lexicographic order
    checked = 0
    for name, g in loop_bases().items():
        assert g.order ** 2 > SCAN_CHUNK
        cells = intercalates(g)
        for cell in cells[::-(-len(cells) // 25)]:
            loop = swapped(g, cell)
            t = loop.table
            want = tuple(int(v) for v in np.argwhere(t[t] != t[:, t])[0])
            ref, rep = associativity(t), validate_group(loop)
            assert ref.witness == want
            assert (rep.axiom, rep.witness) == ("associativity", want), \
                (name, cell.tolist(), rep.describe())
            checked += 1
    assert checked >= 100


def test_accepted_large_groups_pass_the_whole_table_scan(large_squares):
    for name, g in large_squares.items():
        assert validate_group(g).ok, name
        rep = associativity(g.table)
        assert rep.ok, (name, rep.describe())
