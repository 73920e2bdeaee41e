"""Crossed squares over groups: the CS1-CS5 axiom system, morphisms, and
the normal-subcrossed-module construction.

A crossed square consists of four groups in a commuting square

    L --lam--> M
    |          |
  lam'        mu
    |          |
    v          v
    N --nu---> P

with left actions of ``P`` on ``L``, ``M`` and ``N`` (inducing actions of
``M`` on ``L`` and ``N`` through ``mu`` and of ``N`` on ``L`` and ``M``
through ``nu``) and a pairing ``h : M x N -> L``.  The axioms checked are
the commutation ``nu . lam' = mu . lam`` together with:

* CS1: ``lam`` and ``lam'`` are P-equivariant, and ``(M,P,mu)``,
  ``(N,P,nu)`` and ``(L,P,mu.lam)`` are crossed modules;
* CS2: ``lam h(m,n) = m + n.(-m)`` and ``lam' h(m,n) = m.n - n``;
* CS3: ``h(lam(l), n) = l + n.(-l)`` and ``h(m, lam'(l)) = m.l - l``;
* CS4: ``h(m+m',n) = m.h(m',n) + h(m,n)`` and
  ``h(m,n+n') = h(m,n) + n.h(m,n')``;
* CS5: ``h(p.m, p.n) = p.h(m,n)``.

The source material announces six conditions but lists five; the axiom
system implemented here is the five listed items plus the commuting-square
condition, which is the natural reading of the sixth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (FiniteGroup, GroupAction, GroupHom, IndexArrays, compose,
                     conjugates, conjugation_through, hom_restrict, members,
                     read_back, require, subgroup, validate_action,
                     validate_group, validate_hom)
from .morphism import Component, Law, square, validate
from .report import ValidationReport, fail, first_violation, nested
from .xmod import XModGroups, validate_xmod_groups


@dataclass(frozen=True, eq=False)
class CrossedSquare(IndexArrays):
    l: FiniteGroup
    m: FiniteGroup
    n: FiniteGroup
    p: FiniteGroup
    lam: GroupHom
    lam_prime: GroupHom
    mu: GroupHom
    nu: GroupHom
    act_p_on_l: GroupAction
    act_p_on_m: GroupAction
    act_p_on_n: GroupAction
    hmap: np.ndarray

    ARRAYS = ("hmap",)

    def h(self, m: int, n: int) -> int:
        return self.hmap[m, n]

    def __repr__(self) -> str:
        return (f"CrossedSquare(L={self.l.name}, M={self.m.name}, "
                f"N={self.n.name}, P={self.p.name})")


def validate_xsq(xs: CrossedSquare) -> ValidationReport:
    """Exhaustive check of the crossed-square axioms; the scan order is the
    commuting square, then CS1 through CS5."""
    for grp, where in ((xs.l, "l"), (xs.m, "m"), (xs.n, "n"), (xs.p, "p")):
        rep = validate_group(grp)
        if not rep.ok:
            return nested(where, rep)
    wiring = [
        (xs.lam, xs.l, xs.m, "lam"),
        (xs.lam_prime, xs.l, xs.n, "lam-prime"),
        (xs.mu, xs.m, xs.p, "mu"),
        (xs.nu, xs.n, xs.p, "nu"),
    ]
    for f, dom, cod, where in wiring:
        if f.domain != dom or f.codomain != cod:
            return fail("malformed", (), f"{where} is wired to the wrong groups")
        rep = validate_hom(f)
        if not rep.ok:
            return nested(where, rep)
    for act, actor, target, where in (
            (xs.act_p_on_l, xs.p, xs.l, "act-p-on-l"),
            (xs.act_p_on_m, xs.p, xs.m, "act-p-on-m"),
            (xs.act_p_on_n, xs.p, xs.n, "act-p-on-n")):
        if act.actor != actor or act.target != target:
            return fail("malformed", (), f"{where} is wired to the wrong groups")
        rep = validate_action(act)
        if not rep.ok:
            return nested(where, rep)
    h = xs.hmap
    if (h.shape != (xs.m.order, xs.n.order)
            or ((h < 0) | (h >= xs.l.order)).any()):
        return fail("malformed", (), "pairing table has wrong shape or range")

    lam, lamp = xs.lam.map, xs.lam_prime.map
    mu, nu = xs.mu.map, xs.nu.map
    if not (rep := first_violation(
            lambda l: fail("square-commute", (l,), "nu.lam' != mu.lam"),
            nu[lamp], mu[lam])).ok:
        return rep

    L, M, N, P = xs.l, xs.m, xs.n, xs.p
    PL = xs.act_p_on_l.perms
    PM = xs.act_p_on_m.perms
    PN = xs.act_p_on_n.perms
    # CS1: equivariance of lam and lam', at (p, l, law)
    cs1_messages = ("lam is not P-equivariant", "lam' is not P-equivariant")
    if not (rep := first_violation(
            lambda p, l, k: fail("CS1", (p, l), cs1_messages[k]),
            np.stack([lam[PL], lamp[PL]], axis=-1),
            np.stack([PM[:, lam], PN[:, lamp]], axis=-1))).ok:
        return rep
    # CS1: the three crossed modules over P
    for xm, which in ((XModGroups(M, P, xs.mu, xs.act_p_on_m), "mu"),
                      (XModGroups(N, P, xs.nu, xs.act_p_on_n), "nu"),
                      (XModGroups(L, P, compose(xs.lam, xs.mu), xs.act_p_on_l),
                       "kappa")):
        rep = validate_xmod_groups(xm)
        if not rep.ok:
            return fail("CS1", rep.witness,
                        f"({which}) is not a crossed module: {rep.axiom}")

    TL, TM, TN = L.table, M.table, N.table
    negL, negM, negN = L.inverse, M.inverse, N.inverse
    ls, ms, ns = np.arange(L.order), np.arange(M.order), np.arange(N.order)
    # CS2, at (m, n, law)
    cs2_messages = ("lam h(m,n) != m + n.(-m)", "lam' h(m,n) != m.n - n")
    if not (rep := first_violation(
            lambda m, n, k: fail("CS2", (m, n), cs2_messages[k]),
            np.stack([lam[h], lamp[h]], axis=-1),
            np.stack([TM[ms[:, None], PM[nu[None, :], negM[:, None]]],
                      TN[PN[mu[:, None], ns[None, :]], negN[None, :]]],
                     axis=-1))).ok:
        return rep
    # CS3: per l, h(lam(l), n) over every n, then h(m, lam'(l)) over every m
    nn = N.order

    def cs3(l, j):
        if j < nn:
            return fail("CS3", (l, j), "h(lam(l), n) != l + n.(-l)")
        return fail("CS3", (j - nn, l), "h(m, lam'(l)) != m.l - l")

    if not (rep := first_violation(cs3, np.concatenate([
            h[lam[:, None], ns[None, :]]
            != TL[ls[:, None], PL[nu[None, :], negL[:, None]]],
            (h[ms[:, None], lamp[None, :]]
             != TL[PL[mu[:, None], ls[None, :]], negL[None, :]]).T],
            axis=1))).ok:
        return rep
    # CS4
    if not (rep := first_violation(
            lambda m, m1, n: fail("CS4", (m, m1, n),
                                  "h(m+m',n) != m.h(m',n) + h(m,n)"),
            h[TM[:, :, None], ns[None, None, :]],
            TL[PL[mu[:, None, None], h[None, :, :]], h[:, None, :]])).ok:
        return rep
    if not (rep := first_violation(
            lambda m, n, n1: fail("CS4", (m, n, n1),
                                  "h(m,n+n') != h(m,n) + n.h(m,n')"),
            h[ms[:, None, None], TN[None, :, :]],
            TL[h[:, :, None], PL[nu[None, :, None], h[:, None, :]]])).ok:
        return rep
    # CS5
    return first_violation(
        lambda p, m, n: fail("CS5", (p, m, n), "h(p.m, p.n) != p.h(m,n)"),
        h[PM[:, :, None], PN[:, None, :]],
        PL[np.arange(P.order)[:, None, None], h[None, :, :]])


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class XSqMorphism:
    """Four group homs commuting with the square's maps, equivariant for
    the point-group actions, and compatible with the pairings."""

    domain: CrossedSquare
    codomain: CrossedSquare
    f_l: GroupHom
    f_m: GroupHom
    f_n: GroupHom
    f_p: GroupHom

    COMPONENTS = tuple(Component(f"f_{x}", f"f_{x}", x) for x in "lmnp")
    SCANS = (
        # per l: lam, then lam'
        (square("lam", "f_l", "f_m"),
         square("lam_prime", "f_l", "f_n", "lam' does not commute",
                tag="square-lam-prime")),
        (square("mu", "f_m", "f_p"),),
        (square("nu", "f_n", "f_p"),),
        # per p: the action on L, then on M, then on N
        tuple(Law(f"equivariance-{x}", f"act_p_on_{x}.perms", f"f_{x}",
                  "f_p", f"f_{x}", f"P-action on {x.upper()}")
              for x in "lmn"),
        (Law("pairing", "hmap", "f_l", "f_m", "f_n",
             "f_l(h(m,n)) != h(f_m(m), f_n(n))"),))


def validate_xsq_morphism(m: XSqMorphism) -> ValidationReport:
    return validate(m)


# ---------------------------------------------------------------------------
# The normal-subcrossed-module square


def norrie_xsq(parent: XModGroups, s_indices, t_indices) -> CrossedSquare:
    """The crossed square of a normal subcrossed module ``(S, T)`` of
    ``(A, B)``:

        S --bdry|--> T
        |            |
       inc          inc
        |            |
        v            v
        A --bdry---> B

    ``B`` acts on ``S`` by restricting its action on ``A``, on ``T`` by
    conjugation, and the pairing is ``h(t, a) = t.a - a``.

    Normality is checked exhaustively: ``T`` normal in ``B``, ``S`` normal
    in ``A``, the boundary maps ``S`` into ``T``, the ``B``-action keeps
    ``S`` stable, and every displacement ``t.a - a`` lands in ``S``.
    """
    A, B, P = parent.a, parent.b, parent.action.perms
    in_s, in_t = members(A.order, s_indices), members(B.order, t_indices)
    s_idx, t_idx = np.flatnonzero(in_s), np.flatnonzero(in_t)
    require(in_t[conjugates(B, t_idx)], "T is not normal in B",
            range(B.order), t_idx)
    require(in_s[conjugates(A, s_idx)], "S is not normal in A",
            range(A.order), s_idx)
    require(in_t[parent.boundary.map[s_idx]],
            "boundary does not map S into T", s_idx)
    require(in_s[P[:, s_idx]], "B-action does not keep S stable",
            range(B.order), s_idx)
    # h(t, a) = t.a - a for every t in T and a in A
    displacement = A.table[P[t_idx], A.inverse]
    require(in_s[displacement], "displacement t.a - a escapes S",
            t_idx, range(A.order))

    S, incS = subgroup(A, s_idx, name=f"sub[{A.name}]")
    T, incT = subgroup(B, t_idx, name=f"sub[{B.name}]")
    # both tables were checked to land in S above
    act_b_on_s = GroupAction(B, S, read_back(P[:, s_idx], incS, "left S"))
    hmap = read_back(displacement, incS, "left S")
    return CrossedSquare(S, T, A, B, hom_restrict(parent.boundary, incS, incT),
                         incS, incT, parent.boundary, act_b_on_s,
                         conjugation_through(GroupHom.identity(B), incT),
                         parent.action, hmap)
