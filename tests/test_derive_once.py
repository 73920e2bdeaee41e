"""Derived values are computed once per value, and what constructions keep
without computing it is what a computation would give.

``once_per_value`` keeps the functor images, kernels, group-groupoids and
validation reports on the value they are derived from; ``subgroup`` and
``semidirect_product`` keep a ``VALID`` report when the reports their
inputs hold prove one.  The counts below wrap the computation each
``once_per_value`` function looks up as ``__wrapped__``, so a value served
from what is kept is not counted.  The oracle tests check every kept report
against ``validate_group`` on an equal group that holds none, and every
kept functor image against the functor on an equal input that holds none.
"""

from collections import Counter

import pytest

import ggx.groups
from ggx import equiv, serialize
from ggx.dgg import validate_dgg
from ggx.equiv import delta, eta, gamma, theta
from ggx.groupoids import validate_group_groupoid
from ggx.groups import (FiniteGroup, GroupAction, kernel, semidirect_product,
                        validate_action, validate_group)
from ggx.xmod import validate_xmod_gg
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
def kept_groups(monkeypatch):
    """Every group that ``subgroup`` or ``semidirect_product`` keeps a
    report on, with the report."""
    kept = []
    real = ggx.groups.keep

    def record(once, value, derived):
        assert once is validate_group
        kept.append((value, derived))
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
                                                kept_groups):
    for xm in corpus + [catalog_entries[name] for name in LARGE]:
        verdicts, _ = pipeline(fresh(xm))
        assert all(verdicts)

    def proven_product(a, b):
        act = GroupAction.trivial(b, a)
        assert validate_action(act).ok
        return semidirect_product(a, b, act)

    products = loop_bases(proven_product)
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
