"""Morphisms of every structure, declared once and checked by one code path.

A morphism kind is a frozen dataclass with fields ``domain``, ``codomain``
and one per component, and two class attributes: ``COMPONENTS``, one
:class:`Component` each, and ``SCANS``, its laws as an ordered tuple of
scans.  A scan is a tuple of laws that share their first quantified
variable, all squares or all table laws: for each value of the variable
it tries each law in order before it moves to the next value.
:func:`validate`, :func:`check_laws`, :func:`compose`, :func:`identity`
and :func:`is_isomorphism` serve every kind.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import groups
from .groups import GroupHom, is_injective, is_surjective, validate_hom
from .report import (VALID, DomainMismatchError, ValidationReport, fail,
                     first_violation, nested)


class Component(NamedTuple):
    """The ``kind`` in ``field``, reported under ``where``, maps the
    ``side`` field of the domain to the same field of the codomain."""

    field: str
    where: str
    side: str
    kind: type = GroupHom


class Law:
    """``out[dom.T] == cod.T[row]``, a square when ``T`` is a structure map,
    or ``out[dom.T] == cod.T[row[:, None], col[None, :]]``, a table law
    such as equivariance (``T`` an action's perms) or a pairing.  ``table``
    is the path to ``T`` in a structure; ``out``, ``row`` and ``col`` are
    paths to components.  The witness is an index of ``dom.T``."""

    def __init__(self, tag: str, table: str, out: str, row: str,
                 col: str | None = None, message: str = "",
                 where: str = ""):
        self.tag, self.message, self.where = tag, message, where
        self.square = col is None
        self.get = attrgetter(f"domain.{table}", f"codomain.{table}",
                              *(f"{c}.map" for c in (out, row, col) if c))

    def sides(self, m):
        if self.square:
            dom_t, cod_t, out, row = self.get(m)
            return out[dom_t], cod_t[row]
        dom_t, cod_t, out, row, col = self.get(m)
        return out[dom_t], cod_t[row[:, None], col[None, :]]

    def fail(self, *witness) -> ValidationReport:
        return fail(self.tag, witness, self.message, self.where)


def square(s: str, pre: str, post: str, message: str = "", tag: str = "",
           where: str = "") -> Law:
    """``post[dom.s] == cod.s[pre]`` for the structure map ``s``."""
    return Law(tag or f"square-{s}", f"{s}.map", post, pre,
               message=message or f"{s} does not commute", where=where)


def check_laws(m) -> ValidationReport:
    """The scans of ``m``, for components known to be wired and valid."""
    for scan in m.SCANS:
        if not (rep := _check_scan(scan, m)).ok:
            return rep
    return VALID


def _check_scan(laws, m) -> ValidationReport:
    """Squares are stacked as columns, table laws joined along their second
    axis, so that each law reports a witness in its own indices."""
    if len(laws) == 1:
        return first_violation(laws[0].fail, *laws[0].sides(m))
    if laws[0].square:
        lhs, rhs = [], []
        for law in laws:
            left, right = law.sides(m)
            lhs.append(left)
            rhs.append(right)
        return first_violation(lambda x, k: laws[k].fail(x),
                               np.array(lhs).T, np.array(rhs).T)
    bad = [np.not_equal(*law.sides(m)) for law in laws]

    def report(x, j):
        for law, b in zip(laws, bad):
            if j < b.shape[1]:
                return law.fail(x, j)
            j -= b.shape[1]

    return first_violation(report, np.concatenate(bad, axis=1))


def validate(m) -> ValidationReport:
    """Each component in turn, its wiring and then the component itself;
    then :func:`check_laws`."""
    for c in m.COMPONENTS:
        f = getattr(m, c.field)
        if (f.domain != getattr(m.domain, c.side)
                or f.codomain != getattr(m.codomain, c.side)):
            return fail("malformed", (),
                        f"{c.where} is wired to the wrong domain or codomain")
        rep = validate_hom(f) if c.kind is GroupHom else validate(f)
        if not rep.ok:
            return nested(c.where, rep)
    return check_laws(m)


def identity(kind: type, x):
    """The identity of ``x`` as a morphism of ``kind``, which may be
    ``GroupHom``."""
    if kind is GroupHom:
        return GroupHom.identity(x)
    return kind(x, x, **{c.field: identity(c.kind, getattr(x, c.side))
                         for c in kind.COMPONENTS})


def compose(m1, m2):
    """``m1`` followed by ``m2``."""
    if isinstance(m1, GroupHom):
        return groups.compose(m1, m2)
    if m1.codomain != m2.domain:
        raise DomainMismatchError(
            f"cannot compose {type(m1).__name__}s: the codomain of the "
            "first is not the domain of the second")
    return type(m1)(m1.domain, m2.codomain,
                    **{c.field: compose(getattr(m1, c.field),
                                        getattr(m2, c.field))
                       for c in m1.COMPONENTS})


def bijective(m) -> bool:
    """Every group hom of ``m`` is a bijection."""
    if isinstance(m, GroupHom):
        return is_injective(m) and is_surjective(m)
    return all(bijective(getattr(m, c.field)) for c in m.COMPONENTS)


def is_isomorphism(m) -> bool:
    """``m`` is a valid morphism whose group homs are bijections."""
    return validate(m).ok and bijective(m)
