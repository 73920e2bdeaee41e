"""Derived values are computed once per value, and what constructions keep
without computing it is what a computation would give.

``once_per_value`` keeps the functor images, kernels, group-groupoids,
object actions and validation reports on the value they are derived from;
the constructions of ``ggx.groups`` keep a ``VALID`` report on the groups,
homs and actions they build when the reports their inputs hold prove one.
The counts below wrap the computation each ``once_per_value`` function
looks up as ``__wrapped__``, so a value served from what is kept is not
counted.  The oracle tests check every kept report against the validator
on an equal value, between groups that held no report, and every kept
functor image against the functor on an equal input that holds none.
"""

from collections import Counter

import pytest

import ggx.groups
from ggx import equiv, serialize
from ggx.dgg import validate_dgg
from ggx.enumeration import all_xmod_gg
from ggx.equiv import delta, eta, gamma, theta
from ggx.groupoids import validate_group_groupoid
from ggx.groups import (FiniteGroup, GroupAction, GroupHom, compose,
                        conjugation_through, cyclic, hom_restrict, kernel,
                        pull_back, semidirect_product, split_maps, subgroup,
                        symmetric_3, validate_action, validate_group,
                        validate_hom)
from ggx.report import proven
from ggx.xmod import XModGG, validate_xmod_gg
from ggx.xsq import validate_xsq
from gen_witnesses import loop_bases

FUNCTORS = (theta, gamma, delta, eta)
LARGE = ("pair-xmod-z4", "pair-xmod-v4", "pair-xmod-s3")


def fresh(x):
    """An equal value, rebuilt from its document, that holds nothing
    derived."""
    return serialize.loads(serialize.dumps(x))


def unchecked(g: FiniteGroup) -> FiniteGroup:
    """An equal group that does not hold a report yet."""
    return FiniteGroup(g.name, g.elements, g.table)


VALIDATOR = {FiniteGroup: validate_group, GroupHom: validate_hom,
             GroupAction: validate_action}


def kept(x) -> bool:
    """Whether ``x`` holds a report at all (kept or computed)."""
    return VALIDATOR[type(x)].key in x.__dict__


def unkept(x):
    """An equal group, hom or action, between groups that hold no report."""
    if isinstance(x, FiniteGroup):
        return unchecked(x)
    dom, cod, table = map(x.__getattribute__, x.__match_args__)
    return type(x)(unchecked(dom), unchecked(cod), table)


def pipeline(xm):
    """The benchmark's pipeline on one crossed module over group-groupoids:
    validate it, theta, validate the image, gamma, delta, validate the
    crossed square, eta, then the four round trips.  Returns the verdicts
    and the four images."""
    verdicts = [validate_xmod_gg(xm).ok]
    d = theta(xm)
    verdicts.append(validate_dgg(d).ok)
    g = gamma(d)
    xs = delta(xm)
    verdicts.append(validate_xsq(xs).ok)
    e = eta(xs)
    verdicts += [equiv.roundtrip_theta_gamma(d).ok,
                 equiv.roundtrip_gamma_theta(xm).ok,
                 equiv.roundtrip_eta_delta(xm).ok,
                 equiv.roundtrip_delta_eta(xs).ok]
    return verdicts, (d, g, xs, e)


@pytest.fixture
def computed(monkeypatch):
    """Counts, by name, of the computations of the given ``once_per_value``
    functions; a value served from what is kept is not counted."""
    counts = Counter()

    def count(*functions):
        for fn in functions:
            def counted(value, inner=fn.__wrapped__, name=fn.__name__):
                counts[name] += 1
                return inner(value)
            monkeypatch.setattr(fn, "__wrapped__", counted)
        return counts

    return count


@pytest.fixture
def kept_reports(monkeypatch):
    """Every ``(validator, value, report)`` that a construction keeps."""
    kept = []
    real = ggx.groups.keep

    def record(once, value, derived):
        assert once in (validate_group, validate_hom, validate_action)
        kept.append((once, value, derived))
        real(once, value, derived)

    monkeypatch.setattr(ggx.groups, "keep", record)
    return kept


def test_pipeline_derives_each_value_once(corpus, computed):
    counts = computed(*FUNCTORS, kernel, validate_group)
    for xm in corpus[::25]:
        xm = fresh(xm)
        counts.clear()
        verdicts, _ = pipeline(xm)
        assert all(verdicts)
        # theta of xm and of gamma(d), gamma of d, delta of xm and of
        # eta(xs), eta of xs: the twelve calls have six distinct inputs
        assert [counts[f.__name__] for f in FUNCTORS] == [2, 1, 2, 1], xm
        assert counts["kernel"] <= 6, (xm, counts)
        assert counts["validate_group"] <= 8, (xm, counts)


def test_theta_hands_back_the_group_groupoids_it_was_built_from(corpus,
                                                                computed):
    counts = computed(validate_group_groupoid)
    for xm in corpus[::25]:
        xm = fresh(xm)
        assert validate_xmod_gg(xm).ok
        d = theta(xm)
        assert d.gg_hp() is xm.h
        counts.clear()
        assert validate_dgg(d).ok
        # (S,H), (S,V) and (V,P); (H,P) is xm.h, checked with xm
        assert counts["validate_group_groupoid"] <= 3, (xm, counts)


def test_functor_images_equal_fresh_images_of_equal_inputs(corpus,
                                                           catalog_entries):
    for xm in corpus[::20] + [catalog_entries[name] for name in LARGE]:
        xm = fresh(xm)
        _, (d, g, xs, e) = pipeline(xm)
        # every image the pipeline keeps, with the functor and its input
        for fn, x in ((theta, xm), (gamma, d), (delta, xm), (eta, xs),
                      (theta, g), (delta, e)):
            assert fn(x) is fn(x)
            assert fn(x) == fn(fresh(x)), (fn.__name__, xm)


def test_kept_reports_are_what_validation_gives(corpus, catalog_entries,
                                                kept_reports):
    kept_groups, copies, checked_maps = [], {}, {}

    def check_kept_maps():
        """Check each hom and action kept since the last call against the
        validator on an equal value between unchecked copies of its groups
        (one copy per group value), and move the kept groups aside."""
        made = {}                                # id -> (group, its copy)

        def copy(g):
            if id(g) not in made:
                made[id(g)] = g, (copies.get(g)
                                  or copies.setdefault(g, unchecked(g)))
            return made[id(g)][1]

        for once, value, report in kept_reports:
            if once is validate_group:
                kept_groups.append((value, report))
                continue
            assert report.ok
            dom, cod, table = map(value.__getattribute__,
                                  value.__match_args__)
            dom, cod = copy(dom), copy(cod)     # kept alive by copies
            key = (once, id(dom), id(cod), table.shape, table.tobytes())
            if key not in checked_maps:
                checked_maps[key] = once(type(value)(dom, cod, table))
            assert checked_maps[key] == report, value
        kept_reports.clear()

    for xm in corpus + [catalog_entries[name] for name in LARGE]:
        verdicts, _ = pipeline(fresh(xm))
        assert all(verdicts)
        check_kept_maps()
    # each hom and action once, by value
    kinds = Counter(once for once, *_ in checked_maps)
    assert kinds[validate_hom] >= 100 and kinds[validate_action] >= 50

    def proven_product(a, b):
        act = GroupAction.trivial(b, a)
        assert validate_action(act).ok
        return semidirect_product(a, b, act)

    products = loop_bases(proven_product)
    check_kept_maps()
    assert all(any(k is g for k, _ in kept_groups)
               for g in products.values())
    # each group once, by value
    checked = {}
    for g, report in kept_groups:
        assert report.ok
        checked.setdefault(g, report)
    assert len(checked) >= 100
    for g, report in checked.items():
        assert validate_group(unchecked(g)) == report, g


def test_pipeline_computes_only_what_no_construction_proves(
        corpus, catalog_entries, computed, monkeypatch):
    counts = computed(validate_hom, validate_group, validate_action)
    made = []
    inner = XModGG.obj_action.__wrapped__
    monkeypatch.setattr(XModGG.obj_action, "__wrapped__",
                        lambda xm: made.append(xm) or inner(xm))
    for xm in corpus[::25] + [catalog_entries[name] for name in LARGE]:
        xm = fresh(xm)
        counts.clear()
        made.clear()
        verdicts, (d, g, xs, e) = pipeline(xm)
        assert all(verdicts)
        # 8 homs of the parsed structure, 5 of the theta image (d1h, d0v,
        # d1v, epsv, d1V) and the 8 non-identity components of the four
        # round trips' comparison morphisms
        assert counts["validate_hom"] <= 21, (xm, counts)
        # the four parsed groups and the vertical edges of theta(gamma(d))
        assert counts["validate_group"] <= 5, (xm, counts)
        # the parsed action, its object action and delta's P-action on L
        assert counts["validate_action"] <= 3, (xm, counts)
        # one object action per crossed module the pipeline meets
        assert sorted(map(id, made)) == sorted(map(id, (xm, g, e))), xm


def test_the_enumeration_screen_keeps_no_object_action():
    """``all_xmod_gg`` screens bare ``(G, H, action)`` triples, so it keeps
    no object action on an action or on a crossed module."""
    for xm in all_xmod_gg(3):
        assert XModGG.obj_action.key not in xm.__dict__
        assert not any(isinstance(v, GroupAction)
                       for v in xm.action.__dict__.values())


def constructions(g: FiniteGroup, c: FiniteGroup) -> list:
    """One value of each kind a construction may keep ``VALID`` on, built
    from ``g``, with the rotations ``0, 2, 4`` as a subgroup, and ``c``."""
    ident = GroupHom.identity(g)
    sub, inc = subgroup(g, [0, 2, 4])
    conj = conjugation_through(ident, inc)
    k = semidirect_product(sub, g, conj)
    return [ident, GroupHom.zero(g, c), compose(ident, GroupHom.zero(g, c)),
            sub, inc, hom_restrict(ident, inc, inc), conj,
            pull_back(conj, inc), k, *split_maps(sub, g, k)]


def test_constructions_keep_valid_exactly_when_their_parts_are_proven():
    g, c = unchecked(symmetric_3()), cyclic(2)
    assert not any(kept(x) for x in constructions(g, c))
    assert validate_group(g).ok and validate_group(c).ok
    for x in constructions(g, c):
        assert kept(x) and proven(VALIDATOR[type(x)], x), x
        assert VALIDATOR[type(x)](unkept(x)).ok, x


def test_a_composite_with_a_failing_hom_keeps_nothing():
    z4, z2 = cyclic(4), cyclic(2)
    assert validate_group(z4).ok and validate_group(z2).ok
    f = GroupHom(z4, z2, [0, 1, 1, 0])
    rep = validate_hom(f)
    assert rep.axiom == "hom-law" and rep.witness == (1, 1)
    ident = GroupHom.identity(z2)
    assert proven(validate_hom, ident)
    composite = compose(f, ident)
    assert not kept(composite)
    assert validate_hom(composite) == rep


def test_reading_back_through_a_non_injective_map_keeps_nothing():
    z4, z2 = cyclic(4), cyclic(2)
    assert validate_group(z4).ok and validate_group(z2).ok
    f, i, j = (GroupHom.zero(z4, z4), GroupHom.identity(z4),
               GroupHom.zero(z2, z4))
    assert all(proven(validate_hom, x) for x in (f, i, j))
    assert not kept(hom_restrict(f, i, j))
    assert not kept(conjugation_through(i, j))


def test_split_maps_of_a_group_not_built_from_the_factors_keep_nothing():
    z2, z3 = cyclic(2), cyclic(3)
    act = GroupAction.trivial(z3, z2)
    assert validate_action(act).ok
    k = semidirect_product(z2, z3, act)
    assert all(proven(validate_hom, f) for f in split_maps(z2, z3, k))
    # the factors swapped, and an equal group that semidirect_product did
    # not build, though it holds a computed VALID
    other = unchecked(k)
    assert validate_group(other).ok
    for a, b, prod in ((z3, z2, k), (z2, z3, other)):
        assert not any(kept(f) for f in split_maps(a, b, prod))
