"""Reference oracle for the laws the validators prove instead of scanning.

``validate_group_groupoid`` stops at ``ker-commute`` and ``validate_dgg`` at
``compat-eps-eps``: the laws below follow from the checks before them (see
"Implied laws" in ``docs/format.md``), as associativity over every middle
follows from associativity over a generating set.  This module keeps one
exhaustive scan of each, with its tag, scan order and witness, so the tests
can check the proofs on every structure they build:

* :func:`associativity`: ``associativity`` of a table over every triple;
* :func:`gg_laws`: ``comp-agree``, ``comp-endpoint``, ``comp-assoc``,
  ``comp-identity``, ``comp-inverse`` and ``interchange`` of one
  group-groupoid;
* :func:`dgg_laws`: :func:`gg_laws` of the four group-groupoids of a double
  group-groupoid, then ``compat-comp-dh``, ``compat-comp-dv``,
  ``compat-comp-epsh``, ``compat-comp-epsv``, ``compat-inv-h``,
  ``compat-inv-v`` and ``interchange-mixed``;
* :func:`oracle`: the laws of every group-groupoid and double
  group-groupoid a validator checks inside a value.

Each function returns the report of the first violation, or ``VALID``.
"""

from __future__ import annotations

import numpy as np

from ggx.dgg import DoubleGroupGroupoid
from ggx.groupoids import GroupGroupoid, inverse_map
from ggx.groups import SCAN_CHUNK, index_dtype
from ggx.report import VALID, ValidationReport, fail, first_violation, nested
from ggx.xmod import XModGG


def associativity(t) -> ValidationReport:
    """``(i+j)+k`` against ``i+(j+k)`` over every triple of the table ``t``,
    one row ``i`` at a time: the first violation in row-major order."""
    for i, row in enumerate(t):
        bad = np.argwhere(t[row] != row[t])
        if len(bad):
            j, k = (int(v) for v in bad[0])
            return fail("associativity", (i, j, k),
                        f"({i}+{j})+{k} != {i}+({j}+{k})")
    return VALID


def entries(m, x, y):
    """``m[x, y]`` for broadcastable index arrays ``x`` and ``y``, read as one
    flat gather at ``x * m.shape[1] + y``.  The positions are computed in
    intp whatever the dtype of ``x``, so compact indices cannot overflow."""
    return m.ravel()[np.multiply(x, m.shape[1], dtype=np.intp) + y]


# ---------------------------------------------------------------------------
# Group-groupoids


def gg_laws(gg: GroupGroupoid) -> ValidationReport:
    """The laws of the derived composition, in scan order: the two
    composition formulas agree, endpoints, associativity, identities,
    inverses, then the interchange with the group operation."""
    d0m, d1m, em = gg.d0.map, gg.d1.map, gg.eps.map
    tbl = gg.arrows.table
    A, B, comp, comp_full = pairs = gg.composable_pairs

    def at_pair(tag, message):
        return lambda i: fail(tag, (int(A[i]), int(B[i])), message)

    # the two composition formulas agree: b - eps(d0 b) + a == a - eps(d1 a) + b
    neg = gg.arrows.inverse
    if not (rep := first_violation(
            at_pair("comp-agree",
                    "the two derived composition formulas disagree"),
            comp, tbl[tbl[A, neg[em[d1m[A]]]], B])).ok:
        return rep
    if not (rep := first_violation(
            at_pair("comp-endpoint", "composite has wrong source or target"),
            (d0m[comp] != d0m[A]) | (d1m[comp] != d1m[B]))).ok:
        return rep

    # (i, c): the pair i followed by every arrow c composable with it
    arrows = np.arange(gg.arrows.order)
    then_c = d0m[None, :] == d1m[B][:, None]
    if not (rep := first_violation(
            lambda i, c: fail("comp-assoc", (int(A[i]), int(B[i]), c),
                              "derived composition is not associative"),
            then_c & (comp_full[comp[:, None], arrows[None, :]]
                      != comp_full[A[:, None], comp_full[B[:, None],
                                                         arrows[None, :]]]))).ok:
        return rep

    # per arrow a: the two identity laws, then the two inverse laws
    inv = inverse_map(gg)

    def unit_law(a, k):
        if k == 0:
            return fail("comp-identity", (a,), f"eps(d1({a})) o {a} != {a}")
        if k == 1:
            return fail("comp-identity", (a,), f"{a} o eps(d0({a})) != {a}")
        return fail("comp-inverse", (a, int(inv[a])),
                    "groupoid inverse fails the identity laws")

    if not (rep := first_violation(unit_law, np.array(
            [comp_full[arrows, em[d1m]] != arrows,
             comp_full[em[d0m], arrows] != arrows,
             (comp_full[inv, arrows] != em[d1m])
             | (comp_full[arrows, inv] != em[d0m])]).T)).ok:
        return rep

    return interchange_add(tbl, pairs)


def interchange_add(tbl, pairs) -> ValidationReport:
    """The interchange ``(b o a) + (b1 o a1) == (b + b1) o (a + a1)`` of a
    groupoid composition with the group operation ``tbl``, over every two
    composable ``pairs``; the witness is ``(a, b, a1, b1)``.

    The pairs ``(a, b)`` are scanned in blocks of rows; each block reads
    its rows of the columns ``x + a1``, ``x + b1`` and ``x + (b1 o a1)``,
    gathered once in the compact :func:`~ggx.groups.index_dtype`.
    """
    A, B, comp, comp_full = pairs
    t = tbl.astype(index_dtype(len(tbl)))
    plus_a, plus_b, plus_comp = t[:, A], t[:, B], t[:, comp]
    for i0 in range(0, len(A), SCAN_CHUNK):
        sl = slice(i0, i0 + SCAN_CHUNK)
        # the right-hand side first, so its intp positions are freed before
        # the left-hand side is allocated
        rhs = entries(comp_full, plus_a[A[sl]], plus_b[B[sl]])
        rep = first_violation(
            lambda i, j: fail("interchange",
                              (int(A[i0 + i]), int(B[i0 + i]),
                               int(A[j]), int(B[j])),
                              "(b o a) + (b1 o a1) != (b + b1) o (a + a1)"),
            plus_comp[comp[sl]], rhs)
        if not rep.ok:
            return rep
    return VALID


# ---------------------------------------------------------------------------
# Double group-groupoids


def dgg_laws(d: DoubleGroupGroupoid) -> ValidationReport:
    """:func:`gg_laws` of ``(S,H)``, ``(S,V)``, ``(H,P)`` and ``(V,P)``, then
    the functoriality of each direction's composition and inversion for the
    other direction's structure, then the interchange of the two
    compositions with each other."""
    ggs = {"h": d.gg_sh(), "v": d.gg_sv(), "H": d.gg_hp(), "V": d.gg_vp()}
    for key, where in (("h", "(S,H)"), ("v", "(S,V)"), ("H", "(H,P)"),
                       ("V", "(V,P)")):
        rep = gg_laws(ggs[key])
        if not rep.ok:
            return nested(where, rep)

    for rep in _derived_laws(d, ggs):
        if not rep.ok:
            return rep
    return VALID


def _derived_laws(d: DoubleGroupGroupoid, ggs: dict):
    """The reports of the double-groupoid laws, lazily and in scan order."""
    pairs = {k: gg.composable_pairs for k, gg in ggs.items()}
    dh = np.array([d.d0h.map, d.d1h.map])
    dv = np.array([d.d0v.map, d.d1v.map])
    epsh, epsv = d.epsh.map, d.epsv.map
    face = "a face map does not preserve composition"
    degen = "a degeneracy does not preserve composition"
    yield _preserves_composition("compat-comp-dh", face, pairs["v"], dh,
                                 pairs["H"])
    yield _preserves_composition("compat-comp-dv", face, pairs["h"], dv,
                                 pairs["V"])
    yield _preserves_composition("compat-comp-epsh", degen, pairs["H"],
                                 epsh[None, :], pairs["v"])
    yield _preserves_composition("compat-comp-epsv", degen, pairs["V"],
                                 epsv[None, :], pairs["h"])
    # each direction's inversion is functorial for the other direction
    yield _inversion_functorial("compat-inv-h", inverse_map(ggs["h"]), dv,
                                inverse_map(ggs["V"]), epsv, pairs["v"])
    yield _inversion_functorial("compat-inv-v", inverse_map(ggs["v"]), dh,
                                inverse_map(ggs["H"]), epsh, pairs["h"])
    yield _interchange_mixed(d, pairs["v"], pairs["h"][3])


def _preserves_composition(tag, message, pairs, maps, target_pairs):
    """Each row ``f`` of ``maps`` sends the composite of every composable
    pair to the composite of the images in the target groupoid; at
    ``(row, pair)``, reported as the pair ``(a, b)``."""
    A, B, comp, _ = pairs
    vals = target_pairs[3][maps[:, A], maps[:, B]]
    return first_violation(
        lambda k, i: fail(tag, (int(A[i]), int(B[i])), message),
        (vals < 0) | (maps[:, comp] != vals))


def _inversion_functorial(tag, inv, faces, edge_inv, eps, other_pairs):
    """One direction's square inversion ``inv`` commutes with the other
    direction's face maps (at ``(x, face)``) and degeneracy, and preserves
    the other direction's composition."""
    if not (rep := first_violation(
            lambda x, k: fail(tag, (x,),
                              "inversion does not commute with a face map"),
            faces[:, inv].T, edge_inv[faces].T)).ok:
        return rep
    if not (rep := first_violation(
            lambda e: fail(tag, (e,),
                           "inversion does not commute with a degeneracy"),
            inv[eps], eps[edge_inv])).ok:
        return rep
    A, B, comp, comp_full = other_pairs
    rhs = comp_full[inv[A], inv[B]]
    return first_violation(
        lambda i: fail(tag, (int(A[i]), int(B[i])),
                       "inversion does not preserve the other composition"),
        (rhs < 0) | (inv[comp] != rhs))


def _interchange_mixed(d, v_pairs, chf) -> ValidationReport:
    """Check (beta ov alpha) oh (beta1 ov alpha1) == (beta oh beta1) ov
    (alpha oh alpha1) over all quadruples where both sides are defined.

    Both sides are defined exactly when the two v-composable pairs are also
    h-composable edgewise (a 2x2 grid of squares); edgewise matching forces
    the left side's composability, so a grid whose left side fails to
    compose is reported as well.
    """
    d0h, d1h = d.d0h.map, d.d1h.map
    # v-composable pairs indexed by position: value cv[i] = Bv[i] ov Av[i]
    Av, Bv, cv, cvf = v_pairs
    d0a, d1a, d0b, d1b = d0h[Av], d1h[Av], d0h[Bv], d1h[Bv]
    for i0 in range(0, len(Av), SCAN_CHUNK):
        sl = slice(i0, i0 + SCAN_CHUNK)
        # grid condition: betas and alphas are h-composable pairwise
        # (rows: pairs in the chunk act as the second h-factor)
        grid = ((d1b[None, :] == d0b[sl, None])
                & (d1a[None, :] == d0a[sl, None]))
        rows, cols = np.nonzero(grid)
        i, j = i0 + rows, cols

        def at(message):
            return lambda p: fail(
                "interchange-mixed",
                (int(Av[i[p]]), int(Bv[i[p]]), int(Av[j[p]]), int(Bv[j[p]])),
                message)

        if not (rep := first_violation(
                at("grid of squares whose composite rows do not compose"),
                d1h[cv[j]] != d0h[cv[i]])).ok:
            return rep
        lhs = entries(chf, cv[j], cv[i])
        rhs = entries(cvf, entries(chf, Av[j], Av[i]),
                      entries(chf, Bv[j], Bv[i]))
        if not (rep := first_violation(
                at("(b ov a) oh (b1 ov a1) != (b oh b1) ov (a oh a1)"),
                (rhs < 0) | (lhs != rhs))).ok:
            return rep
    return VALID


# ---------------------------------------------------------------------------


def oracle(obj) -> ValidationReport:
    """The laws above for every group-groupoid and double group-groupoid a
    validator checks inside ``obj``: the value itself, or the two
    group-groupoids of a crossed module over group-groupoids.  Other
    values have none and get ``VALID``."""
    if isinstance(obj, GroupGroupoid):
        return gg_laws(obj)
    if isinstance(obj, DoubleGroupGroupoid):
        return dgg_laws(obj)
    if isinstance(obj, XModGG):
        for gg, where in ((obj.g, "g"), (obj.h, "h")):
            rep = gg_laws(gg)
            if not rep.ok:
                return nested(where, rep)
    return VALID
