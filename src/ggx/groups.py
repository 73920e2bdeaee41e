"""Finite groups as Cayley tables: homomorphisms, actions, split extensions
and semidirect products.

Conventions used by the whole package:

* Elements of a group of order ``n`` are the integer indices ``0 .. n-1``;
  a parallel tuple of names exists purely for I/O.
* The operation is written additively even for nonabelian groups:
  ``table[i, j]`` is the index of ``i + j``; :attr:`FiniteGroup.zero` is the
  identity index and :attr:`FiniteGroup.inverse` the inverse of every
  element.
* Every table is stored once, as a read-only ``np.intp`` array (see
  :func:`index_array`): a group's Cayley table, a homomorphism's map, an
  action's permutation table (one permutation of the target per actor
  element) and a crossed square's pairing.  Constructors accept any
  rectangular nested sequence of integers and convert it once.
* Values are immutable after construction and compare by content (see
  :class:`IndexArrays`); validators are pure functions returning
  :class:`~ggx.report.ValidationReport`.  Operations assume their inputs
  already validated.
* :func:`validate_group`, :func:`validate_hom` and :func:`validate_action`
  run at most once per value: each keeps its report on the value it
  checked, as :attr:`FiniteGroup.inverse` is kept once computed.  A hom
  checks its domain and codomain, and an action its actor and target,
  before its own laws.  :func:`kernel` is kept on its hom the same way.
  Constructions keep ``VALID`` on the groups, homs and actions they build
  when their inputs' reports prove it (:func:`built`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .report import (VALID, BoundExceededError, DomainMismatchError,
                     GgxError, ValidationReport, fail, first_violation, keep,
                     nested, once_per_value, proven)

# pairs per block of the blocked scans: composable pairs of the action
# interchange scan in xmod, pairs (i, j) of the associativity scan here;
# each block checks its pairs against the whole of the other axis.  A group
# table with at most SCAN_CHUNK pairs is checked for associativity whole, in
# one block; a larger one with j over a generating set (validate_group)
SCAN_CHUNK = 256


def index_dtype(n: int):
    """The compact integer dtype the scans use for element indices below
    ``n`` and for -1: int16 below 2**15 elements, else int32."""
    return np.int16 if n < 1 << 15 else np.int32


def index_array(values) -> np.ndarray:
    """A fresh read-only ``np.intp`` copy of ``values``, any rectangular
    nested sequence of integers: the one stored form of every table."""
    try:
        arr = np.array(values, dtype=np.intp)
    except (TypeError, ValueError) as exc:
        raise GgxError(f"not a rectangular table of indices: {exc}") from None
    arr.setflags(write=False)
    return arr


class IndexArrays:
    """Value semantics for the frozen dataclasses that hold tables.

    The fields named in ``ARRAYS`` are converted by :func:`index_array` at
    construction.  Equality and hashing compare every field, each array as
    its shape and bytes; equality short-circuits on identity.  Reports and
    derived arrays cached in the instance's ``__dict__`` are not fields, so
    they never join either.
    """

    ARRAYS: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self.ARRAYS:
            object.__setattr__(self, name, index_array(getattr(self, name)))

    def _key(self) -> tuple:
        # a dataclass lists its fields in __match_args__
        return tuple((x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x
                     for x in map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def members(n: int, indices) -> np.ndarray:
    """The boolean mask of ``indices`` among ``0 .. n-1``."""
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(indices, dtype=np.intp)] = True
    return mask


def require(ok, message: str, *axes) -> None:
    """Raise :class:`GgxError` with ``message`` at the first false entry of
    the boolean array ``ok`` in row-major order; the witness reads each
    index of that entry through the matching index array of ``axes``."""
    if not ok.all():
        first = np.argwhere(~ok)[0]
        witness = ",".join(str(ax[i]) for ax, i in zip(axes, first))
        raise GgxError(f"{message}: witness ({witness})")


@dataclass(frozen=True, eq=False)
class FiniteGroup(IndexArrays):
    """A finite group given by an element list and a Cayley table."""

    name: str
    elements: tuple[str, ...]
    table: np.ndarray

    ARRAYS = ("table",)

    @staticmethod
    def from_rows(name: str, rows, elements=None) -> "FiniteGroup":
        if elements is None:
            elements = tuple(str(i) for i in range(len(rows)))
        return FiniteGroup(name, tuple(elements), rows)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def zero(self) -> int:
        """Index of the identity element."""
        t, full = self.table, np.arange(self.order)
        for e in np.flatnonzero(t[:, 0] == 0):  # e + 0 = 0
            if (t[e] == full).all() and (t[:, e] == full).all():
                return int(e)
        raise GgxError(f"group {self.name!r} has no identity element")

    @cached_property
    def inverse(self) -> np.ndarray:
        """The inverse of every element (its first right inverse), as a
        read-only array computed once."""
        hits = self.table == self.zero
        require(hits.any(axis=1), f"group {self.name!r}: no inverse",
                range(self.order))
        return index_array(hits.argmax(axis=1))

    def add(self, i: int, j: int) -> int:
        return self.table[i, j]

    def neg(self, i: int) -> int:
        return self.inverse[i]

    def sub(self, i: int, j: int) -> int:
        return self.table[i, self.inverse[j]]

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def generating_sequence(g: FiniteGroup) -> list[int]:
    """A greedy generating set: scan indices, keep whatever enlarges the
    span (the closure under ``+`` of the identity and what was kept so far).

    In a group the span is a subgroup, so each kept element at least doubles
    it and at most ``log2(order)`` are kept.  The table needs only an
    identity and to be a Latin square: the span of the result is every
    element whether or not ``+`` is associative."""
    gens: list[int] = []
    span = np.zeros(g.order, dtype=bool)
    span[g.zero] = True
    for x in range(g.order):
        if span[x]:
            continue
        gens.append(x)
        span[x] = True
        while True:
            idx = np.flatnonzero(span)
            grown = span.copy()
            grown[g.table[np.ix_(idx, idx)]] = True
            if (grown == span).all():
                break
            span = grown
        if span.all():
            break
    return gens


def scan_associativity(t: np.ndarray, middles) -> ValidationReport:
    """The first ``(i, j, k)`` in row-major order with ``(i+j)+k !=
    i+(j+k)`` in the table ``t``, over every ``i`` and ``k`` and the
    middles ``j`` listed in ``middles``: an index list, or ``slice(None)``
    for every element.

    Whole rows ``i`` at a time: each block holds at least SCAN_CHUNK pairs
    ``(i, j)``, each checked against every ``k``.
    """
    n = len(t)
    mid = t[middles]                             # (j, k) -> j+k
    rows = -(-SCAN_CHUNK // len(mid))

    def violation(i, j, k):                      # in the block at row i0
        i, j = i0 + i, int(np.arange(n)[middles][j])
        return fail("associativity", (i, j, k),
                    f"({i}+{j})+{k} != {i}+({j}+{k})")

    for i0 in range(0, n, rows):
        blk = t[i0:i0 + rows]
        if not (rep := first_violation(violation, t[blk[:, middles]],
                                       np.take(blk, mid, axis=1))).ok:
            return rep
    return VALID


@once_per_value
def validate_group(g: FiniteGroup) -> ValidationReport:
    """Decide the group axioms exactly, with the first witness of a
    violation in scan order.

    Malformed data (a table of the wrong shape, out-of-range index,
    duplicate names) is reported with the ``malformed`` tag, distinct from
    axiom failures.  Axiom scan order: Latin square, identity,
    associativity, inverses.  A table with more than SCAN_CHUNK pairs is
    checked for associativity over a generating set of middles, and again
    over every middle only to locate the first witness (Light's test, see
    "Implied laws" in ``docs/format.md``).
    """
    n = len(g.elements)
    if n == 0:
        return fail("malformed", (), "empty element list")
    if len(set(g.elements)) != n:
        return fail("malformed", (), "element names are not distinct")
    tbl = g.table
    if tbl.shape != (n, n):
        return fail("malformed", tbl.shape,
                    f"table has shape {tbl.shape} for {n} elements")
    if not (rep := first_violation(
            lambda i, j: fail("malformed", (i, j),
                              f"table[{i}][{j}] = {tbl[i, j]} out of range"),
            (tbl < 0) | (tbl >= n))).ok:
        return rep

    full = np.arange(n)
    def not_latin(i, col):
        if col:
            return fail("latin-square", ("col", i),
                        f"column {i} is not a permutation")
        return fail("latin-square", ("row", i), f"row {i} is not a permutation")

    # per i: row i, then column i
    if not (rep := first_violation(not_latin, np.array(
            [(np.sort(tbl, axis=1) != full).any(axis=1),
             (np.sort(tbl, axis=0) != full[:, None]).any(axis=0)]).T)).ok:
        return rep

    identities = np.flatnonzero((tbl == full).all(axis=1)
                                & (tbl == full[:, None]).all(axis=0))
    if len(identities) == 0:
        return fail("identity", (), "no two-sided identity element")
    identity = int(identities[0])

    # Light's test: the middles j with (i+j)+k = i+(j+k) for every i and k
    # hold the identity and are closed under +, so they are every element
    # once they hold a generating set
    t = tbl.astype(index_dtype(n))
    if n * n <= SCAN_CHUNK or \
            not scan_associativity(t, generating_sequence(g)).ok:
        if not (rep := scan_associativity(t, slice(None))).ok:
            return rep

    # every row is a permutation, so each i has one right inverse
    right_inv = np.argmax(tbl == identity, axis=1)
    return first_violation(
        lambda i: fail("inverse", (i, int(right_inv[i])),
                       f"{right_inv[i]} is not a left inverse of {i}"),
        tbl[right_inv, full] != identity)


# ---------------------------------------------------------------------------
# Homomorphisms


@dataclass(frozen=True, eq=False)
class GroupHom(IndexArrays):
    """A map of element indices satisfying ``f(a + a') = f(a) + f(a')``."""

    domain: FiniteGroup
    codomain: FiniteGroup
    map: np.ndarray

    ARRAYS = ("map",)

    @staticmethod
    def identity(g: FiniteGroup) -> "GroupHom":
        return built(GroupHom(g, g, np.arange(g.order)), g)

    @staticmethod
    def zero(domain: FiniteGroup, codomain: FiniteGroup) -> "GroupHom":
        zeros = np.full(domain.order, codomain.zero)
        return built(GroupHom(domain, codomain, zeros), domain, codomain)

    def __call__(self, i: int) -> int:
        return self.map[i]

    def __repr__(self) -> str:
        return f"GroupHom({self.domain.name}->{self.codomain.name})"


@once_per_value
def validate_hom(f: GroupHom) -> ValidationReport:
    """Check the domain, then the codomain, then the map and the hom law."""
    for grp, where in ((f.domain, "domain"), (f.codomain, "codomain")):
        rep = validate_group(grp)
        if not rep.ok:
            return nested(where, rep)
    n, m = f.domain.order, f.codomain.order
    fm = f.map
    if fm.shape != (n,):
        return fail("malformed", (),
                    f"map has shape {fm.shape}, domain order {n}")
    if not (rep := first_violation(
            lambda i: fail("malformed", (i,), f"map[{i}] out of range"),
            (fm < 0) | (fm >= m))).ok:
        return rep
    return first_violation(
        lambda a, b: fail("hom-law", (a, b), f"f({a}+{b}) != f({a})+f({b})"),
        fm[f.domain.table], f.codomain.table[fm[:, None], fm[None, :]])


def is_hom(f: GroupHom) -> bool:
    return validate_hom(f).ok


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """``f`` followed by ``g``."""
    if f.codomain != g.domain:
        raise DomainMismatchError(
            f"cannot compose {f!r} with {g!r}: codomain/domain differ")
    return built(GroupHom(f.domain, g.codomain, g.map[f.map]), f, g)


def subgroup(g: FiniteGroup, indices, name: str | None = None):
    """The subgroup on ``indices``, as a group plus its inclusion hom.

    Raises if the subset is not closed under the operation.  A non-empty
    closed subset of a group is a group, so the subgroup and its inclusion
    keep a ``VALID`` report when ``g`` already holds one.
    """
    inside = members(g.order, indices)
    idxs = np.flatnonzero(inside)
    sums = g.table[idxs[:, None], idxs]
    require(inside[sums], f"subset of {g.name!r} not closed under +",
            idxs, idxs)
    sub = built(FiniteGroup(name or f"sub[{g.name}]",
                            tuple(g.elements[i] for i in idxs),
                            np.searchsorted(idxs, sums)), g, ok=len(idxs) > 0)
    return sub, built(GroupHom(sub, g, idxs), sub, g)


def read_back(values, incl: GroupHom, message: str) -> np.ndarray:
    """``values``, elements of the codomain of the injective ``incl``, as
    the elements of its domain they come from.

    Raises ``GgxError(message)`` if a value lies outside the image.
    """
    pos = np.full(incl.codomain.order, -1, dtype=np.intp)
    pos[incl.map] = np.arange(incl.domain.order)
    out = pos[values]
    if (out < 0).any():
        raise GgxError(message)
    return out


@once_per_value
def kernel(f: GroupHom):
    """Kernel subgroup of ``f`` with its inclusion, derived once per hom."""
    return subgroup(f.domain, np.flatnonzero(f.map == f.codomain.zero),
                    name=f"ker[{f.domain.name}]")


def image(f: GroupHom):
    """Image subgroup of ``f`` with its inclusion."""
    return subgroup(f.codomain, f.map, name=f"im[{f.codomain.name}]")


def is_injective(f: GroupHom) -> bool:
    return np.count_nonzero(np.bincount(f.map)) == f.domain.order


def is_surjective(f: GroupHom) -> bool:
    return np.count_nonzero(np.bincount(f.map)) == f.codomain.order


def is_isomorphism(f: GroupHom) -> bool:
    return is_injective(f) and is_surjective(f) and is_hom(f)


def hom_restrict(f: GroupHom, dom_incl: GroupHom, cod_incl: GroupHom) -> GroupHom:
    """Restrict ``f`` along subgroup inclusions on both sides."""
    r = read_back(f.map[dom_incl.map], cod_incl,
                  "restriction does not land in the codomain subgroup")
    ok = dom_incl.codomain == f.domain and cod_incl.codomain == f.codomain
    return built(GroupHom(dom_incl.domain, cod_incl.domain, r),
                 f, dom_incl, cod_incl, ok=ok and is_injective(cod_incl))


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True, eq=False)
class GroupAction(IndexArrays):
    """A left action of ``actor`` on ``target`` by automorphisms.

    ``perms[b]`` is the permutation ``a -> b . a`` of the target's indices.
    """

    actor: FiniteGroup
    target: FiniteGroup
    perms: np.ndarray

    ARRAYS = ("perms",)

    @staticmethod
    def trivial(actor: FiniteGroup, target: FiniteGroup) -> "GroupAction":
        return GroupAction(actor, target, np.broadcast_to(
            np.arange(target.order), (actor.order, target.order)))

    def act(self, b: int, a: int) -> int:
        return self.perms[b, a]

    def __repr__(self) -> str:
        return f"GroupAction({self.actor.name} on {self.target.name})"


@once_per_value
def validate_action(act: GroupAction) -> ValidationReport:
    """Check the actor, then the target, then the table and the action
    laws."""
    for grp, where in ((act.actor, "actor"), (act.target, "target")):
        rep = validate_group(grp)
        if not rep.ok:
            return nested(where, rep)
    nb, na = act.actor.order, act.target.order
    P = act.perms
    if P.shape != (nb, na):
        return fail("malformed", (), "permutation table has wrong shape")
    if ((P < 0) | (P >= na)).any():
        return fail("malformed", (), "permutation entry out of range")
    full = np.arange(na)
    if not (rep := first_violation(
            lambda b: fail("act-perm", (b,), f"row {b} is not a permutation"),
            (np.sort(P, axis=1) != full).any(axis=1))).ok:
        return rep
    if not (rep := first_violation(
            lambda a: fail("act-id", (a,),
                           "identity of the actor moves an element"),
            P[act.actor.zero], full)).ok:
        return rep
    if not (rep := first_violation(
            lambda b, b1, a: fail("act-compat", (b, b1, a),
                                  f"({b}+{b1}).{a} != {b}.({b1}.{a})"),
            P[act.actor.table],              # (b,b',a) -> (b+b').a
            P[:, P])).ok:                    # (b,b',a) -> b.(b'.a)
        return rep
    TA = act.target.table
    return first_violation(
        lambda b, a, a1: fail("act-auto", (b, a, a1),
                              f"{b}.({a}+{a1}) != {b}.{a}+{b}.{a1}"),
        P[:, TA],                                  # b.(a+a')
        TA[P[:, :, None], P[:, None, :]])          # b.a + b.a'


_VALIDATOR = {FiniteGroup: validate_group, GroupHom: validate_hom,
              GroupAction: validate_action}


def built(value, *parts, ok: bool = True):
    """``value``, keeping ``VALID`` on it when ``ok`` and every part holds
    a passing report: ``value`` is valid by a proof in "Groups that
    constructions build" (``docs/format.md``).  Reads held reports only."""
    if ok and all(proven(_VALIDATOR[type(p)], p) for p in parts):
        keep(_VALIDATOR[type(value)], value, VALID)
    return value


def conjugation_through(v: GroupHom, incl: GroupHom) -> GroupAction:
    """The action ``x . k = v(x) + i(k) - v(x)`` of the domain of ``v`` on
    the domain of the inclusion ``i = incl``, both maps landing in the same
    group; each conjugate is read back through ``i``.

    Raises if a conjugate leaves the image of ``i``.
    """
    tbl, vm = v.codomain.table, v.map
    conj = tbl[tbl[vm[:, None], incl.map[None, :]],
               v.codomain.inverse[vm][:, None]]
    return built(GroupAction(v.domain, incl.domain, read_back(
        conj, incl, "a conjugate of a subgroup element left the subgroup")),
        v, incl, ok=v.codomain == incl.codomain and is_injective(incl))


def pull_back(act: GroupAction, f: GroupHom) -> GroupAction:
    """The action ``x . a = f(x) . a`` of the domain of ``f`` through the
    action ``act`` of its codomain."""
    return built(GroupAction(f.domain, act.target, act.perms[f.map]),
                 act, f, ok=f.codomain == act.actor)


def conjugates(g: FiniteGroup, idx) -> np.ndarray:
    """``x + i - x`` for every element ``x`` (rows) and every ``i`` in the
    index array ``idx`` (columns)."""
    return g.table[g.table[:, idx], g.inverse[:, None]]


def conjugation_action(g: FiniteGroup) -> GroupAction:
    """The action ``b . a = b + a - b`` of a group on itself."""
    ident = GroupHom.identity(g)
    return conjugation_through(ident, ident)


# ---------------------------------------------------------------------------
# Semidirect products and split extensions


def sd_index(nb: int, i, j):
    """Index of the pair ``(i, j)`` in a product with second factor order
    nb; ``i`` and ``j`` may be broadcastable index arrays."""
    return i * nb + j


def pair_map(f, g, nb: int) -> np.ndarray:
    """The map ``(x, y) -> (f[x], g[y])`` of pair indices, for index maps
    ``f`` and ``g`` into products whose second factor has order ``nb``."""
    return sd_index(nb, f[:, None], g[None, :]).ravel()


def semidirect_product(a: FiniteGroup, b: FiniteGroup, act: GroupAction,
                       name: str | None = None) -> FiniteGroup:
    """The group on pairs ``(x, y)`` with ``(x,y)+(x1,y1) = (x + y.x1, y+y1)``.

    ``act`` must be an action of ``b`` on ``a``; the pair ``(x, y)`` has
    index ``x * |b| + y`` and name ``"(x,y)"``.  It keeps a ``VALID``
    report when ``act`` already holds one, is wired to ``b`` acting on
    ``a``, and no two pairs share a name (see "Implied laws" in
    ``docs/format.md``).
    """
    nb = b.order
    I = np.arange(a.order * nb)
    ai, bi = I // nb, I % nb
    apart = a.table[ai[:, None], act.perms[bi[:, None], ai[None, :]]]
    bpart = b.table[bi[:, None], bi[None, :]]
    names = tuple(f"({x},{y})" for x in a.elements for y in b.elements)
    k = FiniteGroup(name or f"({a.name})x({b.name})", names,
                    sd_index(nb, apart, bpart))
    ok = act.actor == b and act.target == a and len(set(names)) == len(names)
    if proven(validate_group, built(k, act, ok=ok)):
        k.__dict__["_factors"] = (a, b)         # read by split_maps
    return k


def direct_product(a: FiniteGroup, b: FiniteGroup,
                   name: str | None = None) -> FiniteGroup:
    return semidirect_product(a, b, GroupAction.trivial(b, a), name=name)


def split_maps(a: FiniteGroup, b: FiniteGroup, k: FiniteGroup):
    """The inclusion ``x -> (x, 0)``, projection ``(x, y) -> y`` and
    section ``y -> (0, y)`` of a semidirect product ``k`` of ``a`` by
    ``b``, valid when ``semidirect_product`` built ``k`` valid from them."""
    nb, ok = b.order, k.__dict__.get("_factors") == (a, b)
    return tuple(built(f, ok=ok) for f in (
        GroupHom(a, k, sd_index(nb, np.arange(a.order), b.zero)),
        GroupHom(k, b, np.arange(k.order) % nb),
        GroupHom(b, k, sd_index(nb, a.zero, np.arange(nb)))))


@dataclass(frozen=True)
class SplitExtension:
    """A short exact sequence of groups with a section of the projection."""

    kernel_group: FiniteGroup
    total_group: FiniteGroup
    quotient_group: FiniteGroup
    inclusion: GroupHom
    projection: GroupHom
    section: GroupHom


def validate_split_extension(ext: SplitExtension) -> ValidationReport:
    wiring = [
        (ext.inclusion, ext.kernel_group, ext.total_group, "inclusion"),
        (ext.projection, ext.total_group, ext.quotient_group, "projection"),
        (ext.section, ext.quotient_group, ext.total_group, "section-map"),
    ]
    for f, dom, cod, where in wiring:
        if f.domain != dom or f.codomain != cod:
            return fail("malformed", (), f"{where} is wired to the wrong groups")
        rep = validate_hom(f)
        if not rep.ok:
            return nested(where, rep)
    nk, nq = ext.total_group.order, ext.quotient_group.order
    im, pm = ext.inclusion.map, ext.projection.map
    if not (rep := first_violation(
            lambda v: fail("injective", (v,), "inclusion is not injective"),
            np.bincount(im, minlength=nk) > 1)).ok:
        return rep
    if not (rep := first_violation(
            lambda h: fail("surjective", (h,),
                           "projection is not surjective"),
            np.bincount(pm, minlength=nq) == 0)).ok:
        return rep
    if not (rep := first_violation(
            lambda w: fail("exact", (w,),
                           "image of inclusion != kernel of projection"),
            np.bincount(im, minlength=nk) > 0,
            pm == ext.quotient_group.zero)).ok:
        return rep
    return first_violation(
        lambda h: fail("section", (h,), f"p(s({h})) != {h}"),
        pm[ext.section.map], np.arange(nq))


def derived_action(ext: SplitExtension) -> GroupAction:
    """The action ``b . a = s(b) + a - s(b)`` read back through the inclusion."""
    return conjugation_through(ext.section, ext.inclusion)


def split_extension_from_action(a: FiniteGroup, b: FiniteGroup,
                                act: GroupAction) -> SplitExtension:
    """The canonical split extension of ``b`` by ``a`` with total group
    the semidirect product: ``i(x) = (x,0)``, ``p(x,y) = y``, ``s(y) = (0,y)``."""
    k = semidirect_product(a, b, act)
    return SplitExtension(a, k, b, *split_maps(a, b, k))


def conjugation_extension(g: FiniteGroup) -> SplitExtension:
    """The split extension of ``g`` by itself realizing conjugation."""
    return split_extension_from_action(g, g, conjugation_action(g))


# ---------------------------------------------------------------------------
# Isomorphism search (diagnostics only; naive backtracking)


def generating_words(g: FiniteGroup, gens: list[int]) -> list[tuple[int, int]]:
    """For each element, a pair ``(previous_element, generator_pos)`` with
    ``elem = previous + gens[pos]``; the identity maps to ``(-1, -1)``.
    Elements are listed in a BFS order usable for evaluation."""
    expr: dict[int, tuple[int, int]] = {g.zero: (-1, -1)}
    order: list[int] = [g.zero]
    frontier = [g.zero]
    while frontier:
        nxt = []
        for e in frontier:
            for pos, gen in enumerate(gens):
                e2 = int(g.add(e, gen))
                if e2 not in expr:
                    expr[e2] = (e, pos)
                    order.append(e2)
                    nxt.append(e2)
        frontier = nxt
    if len(expr) != g.order:
        raise GgxError("generators do not generate the group")
    return [(e, expr[e]) for e in order]  # type: ignore[return-value]


def element_orders(g: FiniteGroup) -> tuple[int, ...]:
    out = []
    for x in range(g.order):
        k, acc = 1, x
        while acc != g.zero:
            acc = g.add(acc, x)
            k += 1
        out.append(k)
    return tuple(out)


def iso_search(a: FiniteGroup, b: FiniteGroup,
               max_order: int = 16) -> GroupHom | None:
    """Find some isomorphism ``a -> b`` by backtracking over generator
    images, or ``None``.  Intended for small diagnostics only."""
    if a.order != b.order:
        return None
    if a.order > max_order:
        raise BoundExceededError(f"iso_search limited to order {max_order}")
    if sorted(element_orders(a)) != sorted(element_orders(b)):
        return None
    gens = generating_sequence(a)
    words = generating_words(a, gens)
    orders_a = element_orders(a)
    orders_b = element_orders(b)
    candidates = [
        [y for y in range(b.order) if orders_b[y] == orders_a[x]]
        for x in gens
    ]
    for images in product(*candidates):
        m = [0] * a.order
        for e, (prev, pos) in words:
            if prev == -1:
                m[e] = b.zero
            else:
                m[e] = b.add(m[prev], images[pos])
        f = GroupHom(a, b, m)
        if is_injective(f) and is_hom(f):
            return f
    return None


# ---------------------------------------------------------------------------
# Stock groups


def trivial_group(name: str = "1") -> FiniteGroup:
    return FiniteGroup(name, ("0",), [[0]])


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    i = np.arange(n)
    return FiniteGroup(name or f"z{n}", tuple(str(x) for x in range(n)),
                       (i[:, None] + i) % n)


def klein_four() -> FiniteGroup:
    i = np.arange(4)
    return FiniteGroup("v4", ("0", "a", "b", "c"), i[:, None] ^ i)


def negation_action(b: FiniteGroup, a: FiniteGroup) -> GroupAction:
    """Action of an order-2 element group by negation on an abelian group."""
    fixed = (np.arange(b.order) == b.zero)[:, None]
    return GroupAction(b, a, np.where(fixed, np.arange(a.order), a.inverse))


def symmetric_3() -> FiniteGroup:
    z3, z2 = cyclic(3), cyclic(2)
    return semidirect_product(z3, z2, negation_action(z2, z3), name="s3")


def dihedral_8() -> FiniteGroup:
    z4, z2 = cyclic(4), cyclic(2)
    return semidirect_product(z4, z2, negation_action(z2, z4), name="d4")


def quaternion_8() -> FiniteGroup:
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    # element = (sign, unit) with units 1,i,j,k
    def split(x):
        return (-1 if x % 2 else 1), x // 2

    def fuse(sign, unit):
        return unit * 2 + (0 if sign == 1 else 1)

    unit_mult = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }
    rows = []
    for x in range(8):
        sx, ux = split(x)
        row = []
        for y in range(8):
            sy, uy = split(y)
            s, u = unit_mult[(ux, uy)]
            row.append(fuse(sx * sy * s, u))
        rows.append(row)
    return FiniteGroup("q8", names, rows)
