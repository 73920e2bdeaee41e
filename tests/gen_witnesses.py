"""Regenerate the first-witness contract fixture.

Run from the repository root:  python tests/gen_witnesses.py

The inputs are seeded single changes of valid structures that keep every
component well formed, so the validators get past the group and hom checks
and report on the deeper axioms:

* a structure map, boundary, action or comparison-map component replaced
  by another valid homomorphism or action between the same groups, also
  in the codomain of a comparison morphism, so that every morphism law
  gets a failing input;
* one entry of a group table or of the pairing table of a crossed square
  changed;
* an intercalate of a group table of order 32 to 72 swapped (a 2x2
  subsquare ``a b / b a`` becomes ``b a / a b``), which leaves a loop: a
  Latin square with the same identity, but not associative.

A case key ``family/instance/site#i`` names the ``i``-th option of a site
in a fixed enumeration order (homs and actions as the enumeration oracles
list them), so :func:`build` rebuilds any case without a search.  Per site
the generator scans a seeded sample of the options and keeps the first
few, plus the first option of every further ``(axiom, where)`` outcome, so
every tag a site can reach is kept.  Each record is the ``(axiom, where,
witness)`` of the first violation (``(null, "", [])`` for a valid input).
The values are a regression contract: the scan order of every validator is
part of its output, so a rewrite of a validator must reproduce every
record.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ggx.catalog import catalog_build
from ggx.dgg import trivial_dgg, validate_dgg, validate_dgg_morphism
from ggx.enumeration import (all_actions, all_gg_structures, all_homs,
                             all_xmod_gg)
from ggx.equiv import (delta, roundtrip_delta_eta, roundtrip_eta_delta,
                       roundtrip_gamma_theta, roundtrip_theta_gamma, theta)
from ggx.groups import (FiniteGroup, GroupAction, GroupHom, cyclic,
                        dihedral_8, direct_product, klein_four,
                        negation_action, quaternion_8,
                        split_extension_from_action, symmetric_3,
                        trivial_group, validate_group,
                        validate_split_extension)
from ggx.groupoids import GroupGroupoid, pair_gg, validate_group_groupoid
from ggx.xmod import (XModGG, validate_xmod_gg, validate_xmod_gg_morphism,
                      validate_xmod_groups)
from ggx.xsq import CrossedSquare, validate_xsq, validate_xsq_morphism

OUT = os.path.join(os.path.dirname(__file__), "fixtures", "witnesses.json")

SEED = 1802
BOUND = 64      # order bound for the hom and action searches
PER_SITE = 3    # options kept per site before only new outcomes are kept
KEPT = {"group-loop": 10}   # families that keep more options per site
SCAN = 400      # options of a site whose outcome is looked at

XMOD_CATALOG = ("pair-xmod-z3-z2-inv", "shear-xmod-v4-z2", "pair-xmod-z2",
                "identity-xmod-s3", "discrete-xmod-s3", "zero-xmod-v4",
                "discrete-xmod-z3-z2-inv", "identity-xmod-v4")
# double group-groupoids whose maps are swapped: the hom search from 16
# squares into 16 vertical edges alone takes seconds per map
DGG_MAX_SQUARES, DGG_MAX_EDGES = 16, 9
DGG_MAPS = ("d0h", "d1h", "epsh", "d0v", "d1v", "epsv",
            "d0H", "d1H", "epsH", "d0V", "d1V", "epsV")


@functools.lru_cache(maxsize=None)
def _homs(dom, cod):
    return all_homs(dom, cod, max_order=BOUND)


@functools.lru_cache(maxsize=None)
def _actions(actor, target):
    return all_actions(actor, target, max_order=BOUND)


# ---------------------------------------------------------------------------
# Instances


def _loop5():
    rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    return FiniteGroup.from_rows("loop5", rows)


def _no_identity():
    return FiniteGroup.from_rows(
        "q3", [[(j - i) % 3 for j in range(3)] for i in range(3)])


def loop_bases(product=direct_product) -> dict:
    """Groups of order 32 to 72 whose swapped intercalates give loops past
    the single block of the associativity scan, each built by ``product``
    from two factors."""
    z2 = cyclic(2)
    z2_5 = z2
    for _ in range(4):
        z2_5 = product(z2_5, z2)
    return {"z2^5": z2_5, "z2xz18": product(z2, cyclic(18)),
            "d4xq8": product(dihedral_8(), quaternion_8()),
            "s3xz2xz6": product(product(symmetric_3(), z2), cyclic(6))}


def intercalates(g: FiniteGroup) -> np.ndarray:
    """Every intercalate ``(r1, r2, c1, c2)`` of ``g``'s table off the
    identity row and column, ``r1 < r2`` and ``c1 < c2``, in lexicographic
    order: ``t[r1, c1] == t[r2, c2]`` and ``t[r1, c2] == t[r2, c1]``."""
    t, n = g.table, g.order
    col = np.argsort(t, axis=1)         # col[r, v]: the column of v in row r
    r1, r2, c1 = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
    c2 = col[r2, t[r1, c1]]
    ok = ((r1 < r2) & (c1 < c2) & (t[r1, c2] == t[r2, c1])
          & (r1 != g.zero) & (c1 != g.zero))
    return np.stack([r1[ok], r2[ok], c1[ok], c2[ok]], axis=1)


def swapped(g: FiniteGroup, cell) -> FiniteGroup:
    """``g`` with the intercalate ``cell`` swapped: its two columns trade
    places in its two rows."""
    r1, r2, c1, c2 = cell
    t = g.table.copy()
    t[np.ix_([r1, r2], [c1, c2])] = t[np.ix_([r1, r2], [c2, c1])]
    return FiniteGroup(f"{g.name}~swap", g.elements, t)


class _Swaps(Sequence):
    """The loops of every intercalate swap of a group, built on demand:
    listing them all would take gigabytes."""

    def __init__(self, g: FiniteGroup):
        self.g, self.cells = g, intercalates(g)

    def __len__(self):
        return len(self.cells)

    def __getitem__(self, i):
        return swapped(self.g, self.cells[i])


def _s3_over_1():
    """A one-object groupoid on a nonabelian group: the kernels of the
    source and target maps do not commute."""
    s3, one = symmetric_3(), trivial_group()
    zero = GroupHom.zero(s3, one)
    return GroupGroupoid(s3, one, zero, zero, GroupHom.zero(one, s3))


def _action_xmods() -> dict:
    """``z6`` over ``z2`` under the zero boundary and the trivial action of
    the arrows of each ``v4`` over ``z2``: valid crossed modules whose
    changed actions reach ``act-inv`` and ``act-interchange``, which no
    bound-4 instance reaches."""
    g = all_gg_structures(cyclic(6), cyclic(2))[0]
    return {f"z6-z2-by-v4-z2-{k}": XModGG(
        g, h, GroupHom.zero(g.arrows, h.arrows),
        GroupHom.zero(g.objects, h.objects),
        GroupAction.trivial(h.arrows, g.arrows))
        for k, h in enumerate(all_gg_structures(klein_four(), cyclic(2)))}


def bilinear_xsq() -> CrossedSquare:
    """``L = M = N = z3`` over ``P = z2`` with zero maps, ``P`` negating
    ``L`` and ``M`` and fixing ``N``, and ``h(m, n) = mn``: a valid crossed
    square on which a changed pairing entry or action gets past CS1-CS3."""
    z3, z2 = cyclic(3), cyclic(2)
    neg = negation_action(z2, z3)
    return CrossedSquare(
        z3, z3, z3, z2, GroupHom.zero(z3, z3), GroupHom.zero(z3, z3),
        GroupHom.zero(z3, z2), GroupHom.zero(z3, z2), neg, neg,
        GroupAction.trivial(z2, z3),
        tuple(tuple(m * n % 3 for n in range(3)) for m in range(3)))


@functools.lru_cache(maxsize=None)
def _xmods() -> dict:
    items = {f"b3#{i}": xm for i, xm in enumerate(all_xmod_gg(3))}
    items.update((name, catalog_build(name)) for name in XMOD_CATALOG)
    return items


@functools.lru_cache(maxsize=None)
def _dggs() -> dict:
    items = {f"theta({k})": theta(xm) for k, xm in _xmods().items()}
    items["trivial-dgg-pair-z2"] = catalog_build("trivial-dgg-pair-z2")
    items["trivial-dgg-pair-z3"] = trivial_dgg(pair_gg(cyclic(3)))
    return {k: d for k, d in items.items()
            if d.s.order <= DGG_MAX_SQUARES and d.v.order <= DGG_MAX_EDGES}


@functools.lru_cache(maxsize=None)
def _xsqs() -> dict:
    items = {f"delta({k})": delta(xm) for k, xm in _xmods().items()}
    for name in ("norrie-s3", "norrie-z2-whole"):
        items[name] = catalog_build(name)
    items["bilinear-z3-z2"] = bilinear_xsq()
    return items


def _comparisons(roundtrip, sources):
    return {k: roundtrip(x).morphism for k, x in sources().items()}


# family -> (validator, instances, sites); a site is a dotted field path
# into the instance, "table" / "hmap" (or a path ending in "hmap") for
# single-entry changes,
# "intercalate" for intercalate swaps, or "self" for the instance unchanged
FAMILIES = {
    "group": (validate_group, lambda: {
        "loop5": _loop5(), "no-identity": _no_identity(), "z3": cyclic(3),
        "v4": catalog_build("v4"), "s3": symmetric_3()}, ("self", "table")),
    "group-loop": (validate_group, loop_bases, ("intercalate",)),
    "splitext": (validate_split_extension, lambda: {
        "z3-z2-inv": catalog_build("splitext-z3-z2-inv"),
        "z2-z2": split_extension_from_action(
            cyclic(2), cyclic(2), GroupAction.trivial(cyclic(2), cyclic(2)))},
        ("inclusion", "projection", "section")),
    "xmod-groups": (validate_xmod_groups, lambda: {
        n: catalog_build(n)
        for n in ("conj-xmodgroups-s3", "inv-xmodgroups-z3-z2")},
        ("boundary", "action")),
    "gg": (validate_group_groupoid, lambda: {
        "s3-over-1": _s3_over_1(), "pair-z2": pair_gg(cyclic(2)),
        "pair-z3": pair_gg(cyclic(3)), "pair-s3": pair_gg(symmetric_3()),
        **{f"{k}.g": xm.g for k, xm in list(_xmods().items())[:8]}},
        ("self", "d0", "d1", "eps")),
    "xmod-gg": (validate_xmod_gg, _xmods,
                ("boundary_arrows", "boundary_objects", "action",
                 "g.d0", "g.d1", "g.eps")),
    "xmod-gg-act": (validate_xmod_gg, _action_xmods, ("action",)),
    "dgg": (validate_dgg, _dggs, DGG_MAPS),
    "xsq": (validate_xsq, _xsqs,
            ("lam", "lam_prime", "mu", "nu", "act_p_on_l", "act_p_on_m",
             "act_p_on_n", "hmap")),
    "gamma-theta": (validate_xmod_gg_morphism,
                    lambda: _comparisons(roundtrip_gamma_theta, _xmods),
                    ("f.on_arrows", "f.on_objects", "g.on_arrows",
                     "g.on_objects", "codomain.boundary_arrows")),
    "eta-delta": (validate_xmod_gg_morphism,
                  lambda: _comparisons(roundtrip_eta_delta, _xmods),
                  ("f.on_arrows", "f.on_objects", "g.on_arrows",
                   "g.on_objects")),
    "theta-gamma": (validate_dgg_morphism,
                    lambda: _comparisons(roundtrip_theta_gamma, _dggs),
                    ("fs", "fh", "fv", "fp",
                     *(f"codomain.{name}" for name in DGG_MAPS))),
    "delta-eta": (validate_xsq_morphism,
                  lambda: _comparisons(roundtrip_delta_eta, _xsqs),
                  ("f_l", "f_m", "f_n", "f_p", "codomain.act_p_on_m",
                   "codomain.hmap")),
}


@functools.lru_cache(maxsize=None)
def instances(family: str) -> dict:
    return FAMILIES[family][1]()


# ---------------------------------------------------------------------------
# Sites and options


def _get(obj, path):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _set(obj, path, value):
    head, _, rest = path.partition(".")
    if rest:
        value = _set(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def _cells(rows, n):
    """Every single-entry change ``(i, j, v)`` of a table with entries
    below ``n``."""
    return [(i, j, v) for i, row in enumerate(rows)
            for j, cur in enumerate(row) for v in range(n) if v != cur]


def _with_cell(rows, cell):
    i, j, v = cell
    out = [list(r) for r in rows]
    out[i][j] = v
    return tuple(tuple(r) for r in out)


def options(obj, site) -> list:
    """The changed structures of ``obj`` at ``site``, in a fixed order."""
    if site == "self":
        return [obj]
    if site == "table":
        return [FiniteGroup(obj.name, obj.elements, _with_cell(obj.table, c))
                for c in _cells(obj.table, obj.order)]
    if site == "intercalate":
        return _Swaps(obj)
    head, _, last = site.rpartition(".")
    if last == "hmap":
        xs = _get(obj, head) if head else obj
        return [_set(obj, site, _with_cell(xs.hmap, c))
                for c in _cells(xs.hmap, xs.l.order)]
    cur = _get(obj, site)
    if isinstance(cur, GroupAction):
        found = _actions(cur.actor, cur.target)
    else:
        found = _homs(cur.domain, cur.codomain)
    return [_set(obj, site, x) for x in found if x != cur]


@functools.lru_cache(maxsize=None)
def site_options(family: str, inst: str, site: str) -> list:
    return options(instances(family)[inst], site)


def build(key: str):
    """The validator and the input of a case key."""
    family, inst, rest = key.split("/", 2)
    site, index = rest.rsplit("#", 1)
    return FAMILIES[family][0], site_options(family, inst, site)[int(index)]


def record(report) -> list:
    return [report.axiom, report.where, list(report.witness)]


def select(key_prefix: str, validate, opts, per_site: int = PER_SITE) -> dict:
    """Records of the options kept at one site, keyed by case key."""
    order = list(range(len(opts)))
    random.Random(f"{SEED}/{key_prefix}").shuffle(order)
    kept, seen = {}, set()
    for i in order[:SCAN]:
        rec = record(validate(opts[i]))
        outcome = (rec[0], rec[1])
        if len(kept) < per_site or outcome not in seen:
            kept[f"{key_prefix}#{i}"] = rec
            seen.add(outcome)
    return kept


def generate() -> dict:
    records = {}
    for family, (validate, _, sites) in FAMILIES.items():
        for inst in instances(family):
            for site in sites:
                records.update(select(f"{family}/{inst}/{site}", validate,
                                      site_options(family, inst, site),
                                      KEPT.get(family, PER_SITE)))
    return records


def main() -> None:
    records = generate()
    doc = {
        "_generated_by": "python tests/gen_witnesses.py  (first-violation "
                         "contract: axiom, where and witness of every "
                         "seeded input)",
        "records": records,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {OUT}")


if __name__ == "__main__":
    main()
