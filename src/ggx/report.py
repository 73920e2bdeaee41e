"""Validation reports and the error types shared across the package.

Every validator returns a :class:`ValidationReport` instead of raising, so
callers (tests, the CLI) can inspect which axiom failed and on which
witness.  Every axiom check goes through :func:`first_violation`, which
reports the first violation in row-major order over the quantified
variables, so the reported witness is deterministic.  Validators of the
basic values (groups, homomorphisms, actions, group-groupoids) are wrapped
in :func:`once_per_value`, which keeps the report on the checked value; the
same wrapper keeps other derived values, such as a kernel or a functor
image, on the value they are derived from.  A construction that can prove
a report without computing it keeps it with :func:`keep`, reading only the
reports its inputs already hold (:func:`proven`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable

import numpy as np


class GgxError(Exception):
    """Base class for errors raised by this package."""


class ParseError(GgxError):
    """A document is syntactically or structurally malformed.

    ``path`` points at the offending entry, e.g. ``"table[1][2]"``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class NotComposableError(GgxError):
    """Arrows or squares whose endpoints do not match were composed."""


class DomainMismatchError(GgxError):
    """Maps with incompatible domain/codomain were combined."""


class BoundExceededError(GgxError):
    """An enumeration was requested beyond the configured order bound."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an axiom check.

    ``axiom`` is a short stable tag (``"CM1"``, ``"latin-square"``, ...),
    ``where`` locates the failure inside a composite structure
    (``"arrows"``, ``"epsh"``, ``"level-objects"``, ...) and ``witness``
    holds the element indices exhibiting the violation.
    """

    ok: bool
    axiom: str | None = None
    where: str = ""
    witness: tuple = ()
    message: str = ""

    def describe(self) -> str:
        if self.ok:
            return "valid"
        loc = f" [{self.where}]" if self.where else ""
        wit = f" witness={self.witness}" if self.witness else ""
        msg = f": {self.message}" if self.message else ""
        return f"invalid{loc} axiom={self.axiom}{wit}{msg}"

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "axiom": self.axiom,
            "where": self.where,
            "witness": list(self.witness),
            "message": self.message,
        }


VALID = ValidationReport(ok=True)


def fail(axiom: str, witness: tuple = (), message: str = "",
         where: str = "") -> ValidationReport:
    return ValidationReport(ok=False, axiom=axiom, where=where,
                            witness=witness, message=message)


def first_violation(report: Callable[..., ValidationReport], lhs,
                    rhs=None) -> ValidationReport:
    """Decide one axiom over a grid of quantified variables.

    ``lhs`` is a boolean array that is true where the axiom is violated,
    or, with ``rhs``, one side of an equation that must hold entrywise.
    Returns :data:`VALID` when nothing is violated, and otherwise
    ``report(*index)`` at the first violation in row-major order, which is
    the order of nested loops over the same axes.  Several laws over the
    same variables share one array: stacked on a trailing axis when each
    value of the variables is tested against all of them in turn, on a
    leading axis when each law is tested over all values before the next;
    ``report`` tells them apart by that index.
    """
    bad = np.asarray(lhs) if rhs is None else np.not_equal(lhs, rhs)
    if not np.count_nonzero(bad):
        return VALID
    flat, index = int(bad.argmax()), []
    for n in reversed(bad.shape):               # np.unravel_index, in ints
        flat, i = divmod(flat, n)
        index.append(i)
    return report(*reversed(index))


def nested(where: str, inner: ValidationReport) -> ValidationReport:
    """Re-scope a component's failure under ``where``."""
    if inner.ok:
        return inner
    prefix = f"{where}.{inner.where}" if inner.where else where
    return ValidationReport(ok=False, axiom=inner.axiom, where=prefix,
                            witness=inner.witness, message=inner.message)


def once_per_value(derive: Callable):
    """Compute ``derive(value)`` at most once per instance of an immutable
    value.

    The result, a report or any other derived value, is kept in the
    instance's ``__dict__``, the way ``functools.cached_property`` keeps a
    derived array such as :attr:`~ggx.groups.FiniteGroup.inverse`, so it
    lives and dies with the value.  Equality and hashing read only the
    dataclass fields, so what is kept never joins them.  The computation
    is looked up as the wrapper's ``__wrapped__`` on every miss, so a test
    can wrap it to count what is computed.
    """
    key = f"_{derive.__name__}"

    @wraps(derive)
    def once(value):
        cache = value.__dict__
        if key not in cache:
            cache[key] = once.__wrapped__(value)
        return cache[key]

    once.key = key
    return once


def keep(once: Callable, value, derived) -> None:
    """Keep ``derived`` on ``value`` as the result of the
    :func:`once_per_value` function ``once``, for a construction that knows
    it without computing it."""
    value.__dict__[once.key] = derived


def proven(validate: Callable, value) -> bool:
    """Whether ``value`` already holds a passing report of the
    :func:`once_per_value` validator ``validate``; never validates."""
    rep = value.__dict__.get(validate.key)
    return rep is not None and rep.ok
