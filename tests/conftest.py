import pytest

from ggx.catalog import catalog_build, catalog_names
from ggx.enumeration import all_xmod_gg
from ggx.equiv import gamma, theta
from ggx.xmod import XModGG


@pytest.fixture(scope="session")
def catalog_entries():
    """Every named catalog structure, built once."""
    return {name: catalog_build(name) for name in catalog_names()}


@pytest.fixture(scope="session")
def corpus_small():
    """The exhaustively enumerated crossed modules over group-groupoids
    with arrow groups of order at most 3."""
    return list(all_xmod_gg(3))


@pytest.fixture(scope="session")
def corpus(catalog_entries):
    """The sweep corpus: the order-4 enumeration plus every catalog crossed
    module whose square group stays desk-sized."""
    items = list(all_xmod_gg(4))
    for name in sorted(catalog_entries):
        obj = catalog_entries[name]
        if isinstance(obj, XModGG) and \
                obj.g.arrows.order * obj.h.arrows.order <= 64:
            items.append(obj)
    return items


@pytest.fixture(scope="session")
def large_squares(catalog_entries):
    """The square groups of order 256 and 324 that the large pipeline
    validates: of ``theta(x)`` and of ``theta(gamma(theta(x)))`` for the
    three large catalog crossed modules."""
    out = {}
    for name in ("pair-xmod-z4", "pair-xmod-v4", "pair-xmod-s3"):
        d = theta(catalog_entries[name])
        out[f"theta({name})"] = d.s
        out[f"theta(gamma(theta({name})))"] = theta(gamma(d)).s
    return out
