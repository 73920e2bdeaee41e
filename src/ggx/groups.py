"""Finite groups as Cayley tables: homomorphisms, actions, split extensions
and semidirect products.

Conventions used by the whole package:

* Elements of a group of order ``n`` are the integer indices ``0 .. n-1``;
  a parallel tuple of names exists purely for I/O.
* The operation is written additively even for nonabelian groups:
  ``table[i][j]`` is the index of ``i + j``; :attr:`FiniteGroup.zero` is the
  identity index and ``neg`` the inverse.
* Actions are stored as explicit permutation tables (one permutation of the
  target per actor element), which keeps every axiom check exhaustive at the
  small orders this package targets.
* Values are immutable after construction; validators are pure functions
  returning :class:`~ggx.report.ValidationReport`.  Operations assume their
  inputs already validated.
* :func:`validate_group`, :func:`validate_hom` and :func:`validate_action`
  run at most once per value: each keeps its report on the value it
  checked, as :attr:`FiniteGroup.np_table` keeps the table.  A hom checks
  its domain and codomain, and an action its actor and target, before its
  own laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .report import (BoundExceededError, DomainMismatchError, GgxError,
                     ValidationReport, fail, first_violation, nested,
                     once_per_value)

Table = tuple[tuple[int, ...], ...]

# pairs per block of the blocked scans: composable pairs of the interchange
# scans in groupoids and dgg, pairs (i, j) of the associativity scan here;
# each block checks its pairs against the whole of the other axis
SCAN_CHUNK = 256


def index_dtype(n: int):
    """The compact integer dtype the scans use for element indices below
    ``n`` and for -1: int16 below 2**15 elements, else int32."""
    return np.int16 if n < 1 << 15 else np.int32


def entries(m, x, y):
    """``m[x, y]`` for broadcastable index arrays ``x`` and ``y``, read as one
    flat gather at ``x * m.shape[1] + y``.  The positions are computed in
    intp whatever the dtype of ``x``, so compact indices cannot overflow."""
    return m.ravel()[np.multiply(x, m.shape[1], dtype=np.intp) + y]


def freeze_table(rows) -> Table:
    return tuple(tuple(int(v) for v in row) for row in rows)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by an element list and a Cayley table."""

    name: str
    elements: tuple[str, ...]
    table: Table

    @staticmethod
    def from_rows(name: str, rows, elements=None) -> "FiniteGroup":
        table = freeze_table(rows)
        if elements is None:
            elements = tuple(str(i) for i in range(len(table)))
        return FiniteGroup(name, tuple(elements), table)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def np_table(self) -> np.ndarray:
        arr = np.array(self.table, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def zero(self) -> int:
        """Index of the identity element."""
        n = self.order
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(n)):
                return e
        raise GgxError(f"group {self.name!r} has no identity element")

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        """Inverse of each element, computed once and cached."""
        e = self.zero
        out = []
        for i in range(self.order):
            row = self.table[i]
            try:
                out.append(row.index(e))
            except ValueError:
                raise GgxError(f"group {self.name!r}: {i} has no inverse")
        return tuple(out)

    @cached_property
    def np_neg(self) -> np.ndarray:
        arr = np.array(self.neg_table, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def add(self, i: int, j: int) -> int:
        return self.table[i][j]

    def neg(self, i: int) -> int:
        return self.neg_table[i]

    def sub(self, i: int, j: int) -> int:
        return self.table[i][self.neg_table[j]]

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.np_table, self.np_table.T))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


@once_per_value
def validate_group(g: FiniteGroup) -> ValidationReport:
    """Check the group axioms exhaustively.

    Malformed data (non-square table, out-of-range index, duplicate names)
    is reported with the ``malformed`` tag, distinct from axiom failures.
    Axiom scan order: Latin square, identity, associativity, inverses.
    """
    n = len(g.elements)
    if n == 0:
        return fail("malformed", (), "empty element list")
    if len(set(g.elements)) != n:
        return fail("malformed", (), "element names are not distinct")
    if len(g.table) != n:
        return fail("malformed", (n, len(g.table)),
                    f"table has {len(g.table)} rows for {n} elements")
    for i, row in enumerate(g.table):
        if len(row) != n:
            return fail("malformed", (i,), f"row {i} has length {len(row)}")
        for j, v in enumerate(row):
            if not (0 <= v < n):
                return fail("malformed", (i, j),
                            f"table[{i}][{j}] = {v} out of range")

    tbl = g.np_table
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

    # (i+j)+k against i+(j+k), whole rows i at a time: each block holds at
    # least SCAN_CHUNK pairs (i, j), each checked against every k
    t = tbl.astype(index_dtype(n))
    rows = -(-SCAN_CHUNK // n)
    for i0 in range(0, n, rows):
        blk = t[i0:i0 + rows]
        if not (rep := first_violation(
                lambda i, j, k: fail("associativity", (i0 + i, j, k),
                                     f"({i0 + i}+{j})+{k} != "
                                     f"{i0 + i}+({j}+{k})"),
                t[blk], np.take(blk, t, axis=1))).ok:
            return rep

    # every row is a permutation, so each i has one right inverse
    right_inv = np.argmax(tbl == identity, axis=1)
    return first_violation(
        lambda i: fail("inverse", (i, int(right_inv[i])),
                       f"{right_inv[i]} is not a left inverse of {i}"),
        tbl[right_inv, full] != identity)


# ---------------------------------------------------------------------------
# Homomorphisms


@dataclass(frozen=True)
class GroupHom:
    """A map of element indices satisfying ``f(a + a') = f(a) + f(a')``."""

    domain: FiniteGroup
    codomain: FiniteGroup
    map: tuple[int, ...]

    @staticmethod
    def from_callable(domain, codomain, fn) -> "GroupHom":
        return GroupHom(domain, codomain,
                        tuple(int(fn(i)) for i in range(domain.order)))

    @staticmethod
    def identity(g: FiniteGroup) -> "GroupHom":
        return GroupHom(g, g, tuple(range(g.order)))

    @staticmethod
    def zero(domain: FiniteGroup, codomain: FiniteGroup) -> "GroupHom":
        return GroupHom(domain, codomain, (codomain.zero,) * domain.order)

    @cached_property
    def np_map(self) -> np.ndarray:
        arr = np.array(self.map, dtype=np.int64)
        arr.flags.writeable = False
        return arr

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
    if len(f.map) != n:
        return fail("malformed", (), f"map has length {len(f.map)}, domain order {n}")
    if any(not (0 <= v < m) for v in f.map):
        i = next(i for i, v in enumerate(f.map) if not (0 <= v < m))
        return fail("malformed", (i,), f"map[{i}] out of range")
    fm = f.np_map
    return first_violation(
        lambda a, b: fail("hom-law", (a, b), f"f({a}+{b}) != f({a})+f({b})"),
        fm[f.domain.np_table], f.codomain.np_table[fm[:, None], fm[None, :]])


def is_hom(f: GroupHom) -> bool:
    return validate_hom(f).ok


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """``f`` followed by ``g``."""
    if f.codomain != g.domain:
        raise DomainMismatchError(
            f"cannot compose {f!r} with {g!r}: codomain/domain differ")
    return GroupHom(f.domain, g.codomain, tuple(g.map[v] for v in f.map))


def subgroup(g: FiniteGroup, indices, name: str | None = None):
    """The subgroup on ``indices``, as a group plus its inclusion hom.

    Raises if the subset is not closed under the operation.
    """
    idxs = sorted(set(int(i) for i in indices))
    pos = {v: k for k, v in enumerate(idxs)}
    rows = []
    for i in idxs:
        row = []
        for j in idxs:
            v = g.table[i][j]
            if v not in pos:
                raise GgxError(
                    f"subset of {g.name!r} not closed: {i}+{j}={v} escapes")
            row.append(pos[v])
        rows.append(row)
    sub = FiniteGroup(name or f"sub[{g.name}]",
                      tuple(g.elements[i] for i in idxs), freeze_table(rows))
    incl = GroupHom(sub, g, tuple(idxs))
    return sub, incl


def kernel(f: GroupHom):
    """Kernel subgroup of ``f`` with its inclusion."""
    z = f.codomain.zero
    idxs = [i for i, v in enumerate(f.map) if v == z]
    return subgroup(f.domain, idxs, name=f"ker[{f.domain.name}]")


def image(f: GroupHom):
    """Image subgroup of ``f`` with its inclusion."""
    return subgroup(f.codomain, sorted(set(f.map)), name=f"im[{f.codomain.name}]")


def is_injective(f: GroupHom) -> bool:
    return len(set(f.map)) == f.domain.order


def is_surjective(f: GroupHom) -> bool:
    return len(set(f.map)) == f.codomain.order


def is_isomorphism(f: GroupHom) -> bool:
    return is_injective(f) and is_surjective(f) and is_hom(f)


def hom_restrict(f: GroupHom, dom_incl: GroupHom, cod_incl: GroupHom) -> GroupHom:
    """Restrict ``f`` along subgroup inclusions on both sides."""
    pos = {v: k for k, v in enumerate(cod_incl.map)}
    out = []
    for i in range(dom_incl.domain.order):
        v = f.map[dom_incl.map[i]]
        if v not in pos:
            raise GgxError("restriction does not land in the codomain subgroup")
        out.append(pos[v])
    return GroupHom(dom_incl.domain, cod_incl.domain, tuple(out))


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True)
class GroupAction:
    """A left action of ``actor`` on ``target`` by automorphisms.

    ``perms[b]`` is the permutation ``a -> b . a`` of the target's indices.
    """

    actor: FiniteGroup
    target: FiniteGroup
    perms: Table

    @staticmethod
    def trivial(actor: FiniteGroup, target: FiniteGroup) -> "GroupAction":
        row = tuple(range(target.order))
        return GroupAction(actor, target, (row,) * actor.order)

    @cached_property
    def np_perms(self) -> np.ndarray:
        arr = np.array(self.perms, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def act(self, b: int, a: int) -> int:
        return self.perms[b][a]

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
    if len(act.perms) != nb or any(len(r) != na for r in act.perms):
        return fail("malformed", (), "permutation table has wrong shape")
    if any(not (0 <= v < na) for r in act.perms for v in r):
        return fail("malformed", (), "permutation entry out of range")
    P = act.np_perms
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
            P[act.actor.np_table],           # (b,b',a) -> (b+b').a
            P[:, P])).ok:                    # (b,b',a) -> b.(b'.a)
        return rep
    TA = act.target.np_table
    return first_violation(
        lambda b, a, a1: fail("act-auto", (b, a, a1),
                              f"{b}.({a}+{a1}) != {b}.{a}+{b}.{a1}"),
        P[:, TA],                                  # b.(a+a')
        TA[P[:, :, None], P[:, None, :]])          # b.a + b.a'


def conjugation_through(v: GroupHom, incl: GroupHom) -> GroupAction:
    """The action ``x . k = v(x) + i(k) - v(x)`` of the domain of ``v`` on
    the domain of the inclusion ``i = incl``, both maps landing in the same
    group; each conjugate is read back through ``i``.

    Raises if a conjugate leaves the image of ``i``.
    """
    tbl, neg = v.codomain.np_table, v.codomain.np_neg
    vm, im = v.np_map, incl.np_map
    conj = tbl[tbl[vm[:, None], im[None, :]], neg[vm][:, None]]
    index = np.full(v.codomain.order, -1, dtype=np.int64)
    index[im] = np.arange(len(im))
    rows = index[conj]
    if (rows < 0).any():
        raise GgxError("a conjugate of a subgroup element left the subgroup")
    return GroupAction(v.domain, incl.domain, freeze_table(rows.tolist()))


def conjugation_action(g: FiniteGroup) -> GroupAction:
    """The action ``b . a = b + a - b`` of a group on itself."""
    ident = GroupHom.identity(g)
    return conjugation_through(ident, ident)


# ---------------------------------------------------------------------------
# Semidirect products and split extensions


def sd_index(nb: int, i: int, j: int) -> int:
    """Index of the pair ``(i, j)`` in a product with second factor order nb."""
    return i * nb + j


def sd_split(nb: int, k: int) -> tuple[int, int]:
    return divmod(k, nb)


def semidirect_product(a: FiniteGroup, b: FiniteGroup, act: GroupAction,
                       name: str | None = None) -> FiniteGroup:
    """The group on pairs ``(x, y)`` with ``(x,y)+(x1,y1) = (x + y.x1, y+y1)``.

    ``act`` must be an action of ``b`` on ``a``; the pair ``(x, y)`` has
    index ``x * |b| + y`` and name ``"(x,y)"``.
    """
    na, nb = a.order, b.order
    n = na * nb
    I = np.arange(n)
    ai, bi = I // nb, I % nb
    P, TA, TB = act.np_perms, a.np_table, b.np_table
    apart = TA[ai[:, None], P[bi[:, None], ai[None, :]]]
    bpart = TB[bi[:, None], bi[None, :]]
    table = apart * nb + bpart
    names = tuple(f"({a.elements[i]},{b.elements[j]})"
                  for i in range(na) for j in range(nb))
    return FiniteGroup(name or f"({a.name})x({b.name})", names,
                       freeze_table(table.tolist()))


def direct_product(a: FiniteGroup, b: FiniteGroup,
                   name: str | None = None) -> FiniteGroup:
    return semidirect_product(a, b, GroupAction.trivial(b, a), name=name)


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
    im, pm = ext.inclusion.np_map, ext.projection.np_map
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
        pm[ext.section.np_map], np.arange(nq))


def derived_action(ext: SplitExtension) -> GroupAction:
    """The action ``b . a = s(b) + a - s(b)`` read back through the inclusion."""
    return conjugation_through(ext.section, ext.inclusion)


def split_extension_from_action(a: FiniteGroup, b: FiniteGroup,
                                act: GroupAction) -> SplitExtension:
    """The canonical split extension of ``b`` by ``a`` with total group
    the semidirect product: ``i(x) = (x,0)``, ``p(x,y) = y``, ``s(y) = (0,y)``."""
    k = semidirect_product(a, b, act)
    nb = b.order
    incl = GroupHom(a, k, tuple(sd_index(nb, x, b.zero) for x in range(a.order)))
    proj = GroupHom(k, b, tuple(i % nb for i in range(k.order)))
    sect = GroupHom(b, k, tuple(sd_index(nb, a.zero, y) for y in range(nb)))
    return SplitExtension(a, k, b, incl, proj, sect)


def conjugation_extension(g: FiniteGroup) -> SplitExtension:
    """The split extension of ``g`` by itself realizing conjugation."""
    return split_extension_from_action(g, g, conjugation_action(g))


# ---------------------------------------------------------------------------
# Isomorphism search (diagnostics only; naive backtracking)


def generating_sequence(g: FiniteGroup) -> list[int]:
    """A greedy generating set: scan indices, keep whatever enlarges the span."""
    gens: list[int] = []
    known = {g.zero}
    for x in range(g.order):
        if x in known:
            continue
        gens.append(x)
        frontier = [x]
        while frontier:
            nxt = []
            for u in frontier:
                for v in list(known) + [x]:
                    for w in (g.add(u, v), g.add(v, u)):
                        if w not in known:
                            known.add(w)
                            nxt.append(w)
            frontier = nxt
        # re-close fully under addition
        changed = True
        while changed:
            changed = False
            for u in list(known):
                for v in list(known):
                    w = g.add(u, v)
                    if w not in known:
                        known.add(w)
                        changed = True
        if len(known) == g.order:
            break
    return gens


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
                e2 = g.add(e, gen)
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
        ok = True
        for e, (prev, pos) in words:
            if prev == -1:
                m[e] = b.zero
            else:
                m[e] = b.add(m[prev], images[pos])
        f = GroupHom(a, b, tuple(m))
        if len(set(m)) == a.order and is_hom(f):
            return f
    return None


# ---------------------------------------------------------------------------
# Stock groups


def trivial_group(name: str = "1") -> FiniteGroup:
    return FiniteGroup(name, ("0",), ((0,),))


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(name or f"z{n}", tuple(str(i) for i in range(n)),
                       freeze_table(rows))


def klein_four() -> FiniteGroup:
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    return FiniteGroup("v4", ("0", "a", "b", "c"), freeze_table(rows))


def negation_action(b: FiniteGroup, a: FiniteGroup) -> GroupAction:
    """Action of an order-2 element group by negation on an abelian group."""
    ident = tuple(range(a.order))
    negs = tuple(a.neg(i) for i in range(a.order))
    rows = tuple(ident if x == b.zero else negs for x in range(b.order))
    return GroupAction(b, a, rows)


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
    return FiniteGroup("q8", names, freeze_table(rows))
