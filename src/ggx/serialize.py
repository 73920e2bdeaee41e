"""Serialization of every structure kind to a documented JSON subset.

A document is one JSON object with a ``kind`` field, a ``format_version``
field and kind-specific payload fields; values are restricted to objects,
strings, integers and nested lists.  Wherever a nested structure is
expected (a group inside a homomorphism, a group-groupoid inside a crossed
module, ...) the value may instead be a string, read as a path relative to
the referencing file; reference cycles are rejected.

Parsing checks shape only (field presence, table squareness, index
ranges); it never runs axiom checks, so ``parse`` followed by the matching
validator is the way to decide validity.  Printing is canonical: sorted
keys, two-space indentation, a trailing newline; ``dumps(loads(text))``
reproduces the canonical form of ``text`` byte for byte.
"""

from __future__ import annotations

import json
import os

from .groups import (FiniteGroup, GroupAction, GroupHom, SplitExtension)
from .groupoids import GGMorphism, GroupGroupoid, SplitExtensionGG
from .report import ParseError
from .xmod import XModGG, XModGroups
from .dgg import DoubleGroupGroupoid
from .xsq import CrossedSquare

FORMAT_VERSION = 1

KINDS = ("group", "hom", "action", "xmod-groups", "group-groupoid",
         "xmod-gg", "dgg", "xsq", "split-extension", "split-extension-gg")


# ---------------------------------------------------------------------------
# Printing


def to_document(obj) -> dict:
    """The JSON-ready document of a structure (references always inlined)."""
    if isinstance(obj, FiniteGroup):
        return {"kind": "group", "format_version": FORMAT_VERSION,
                "name": obj.name, "elements": list(obj.elements),
                "table": obj.table.tolist()}
    if isinstance(obj, GroupHom):
        return {"kind": "hom", "format_version": FORMAT_VERSION,
                "domain": to_document(obj.domain),
                "codomain": to_document(obj.codomain),
                "map": obj.map.tolist()}
    if isinstance(obj, GroupAction):
        return {"kind": "action", "format_version": FORMAT_VERSION,
                "actor": to_document(obj.actor),
                "target": to_document(obj.target),
                "perms": obj.perms.tolist()}
    if isinstance(obj, XModGroups):
        return {"kind": "xmod-groups", "format_version": FORMAT_VERSION,
                "a": to_document(obj.a), "b": to_document(obj.b),
                "boundary": obj.boundary.map.tolist(),
                "action": obj.action.perms.tolist()}
    if isinstance(obj, GroupGroupoid):
        return {"kind": "group-groupoid", "format_version": FORMAT_VERSION,
                "arrows": to_document(obj.arrows),
                "objects": to_document(obj.objects),
                "d0": obj.d0.map.tolist(), "d1": obj.d1.map.tolist(),
                "eps": obj.eps.map.tolist()}
    if isinstance(obj, XModGG):
        return {"kind": "xmod-gg", "format_version": FORMAT_VERSION,
                "g": to_document(obj.g), "h": to_document(obj.h),
                "boundary_arrows": obj.boundary_arrows.map.tolist(),
                "boundary_objects": obj.boundary_objects.map.tolist(),
                "action": obj.action.perms.tolist()}
    if isinstance(obj, DoubleGroupGroupoid):
        doc = {"kind": "dgg", "format_version": FORMAT_VERSION,
               "squares": to_document(obj.s), "hedges": to_document(obj.h),
               "vedges": to_document(obj.v), "points": to_document(obj.p)}
        for field in ("d0h", "d1h", "epsh", "d0v", "d1v", "epsv",
                      "d0H", "d1H", "epsH", "d0V", "d1V", "epsV"):
            doc[field] = getattr(obj, field).map.tolist()
        return doc
    if isinstance(obj, CrossedSquare):
        return {"kind": "xsq", "format_version": FORMAT_VERSION,
                "l": to_document(obj.l), "m": to_document(obj.m),
                "n": to_document(obj.n), "p": to_document(obj.p),
                "lam": obj.lam.map.tolist(),
                "lam_prime": obj.lam_prime.map.tolist(),
                "mu": obj.mu.map.tolist(), "nu": obj.nu.map.tolist(),
                "act_p_on_l": obj.act_p_on_l.perms.tolist(),
                "act_p_on_m": obj.act_p_on_m.perms.tolist(),
                "act_p_on_n": obj.act_p_on_n.perms.tolist(),
                "h": obj.hmap.tolist()}
    if isinstance(obj, SplitExtension):
        return {"kind": "split-extension", "format_version": FORMAT_VERSION,
                "kernel": to_document(obj.kernel_group),
                "total": to_document(obj.total_group),
                "quotient": to_document(obj.quotient_group),
                "inclusion": obj.inclusion.map.tolist(),
                "projection": obj.projection.map.tolist(),
                "section": obj.section.map.tolist()}
    if isinstance(obj, SplitExtensionGG):
        return {"kind": "split-extension-gg", "format_version": FORMAT_VERSION,
                "g": to_document(obj.g), "k": to_document(obj.k),
                "h": to_document(obj.h),
                "iota_arrows": obj.iota.on_arrows.map.tolist(),
                "iota_objects": obj.iota.on_objects.map.tolist(),
                "p_arrows": obj.p.on_arrows.map.tolist(),
                "p_objects": obj.p.on_objects.map.tolist(),
                "s_arrows": obj.s.on_arrows.map.tolist(),
                "s_objects": obj.s.on_objects.map.tolist()}
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(to_document(obj), sort_keys=True, indent=2) + "\n"


def dump_path(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


# ---------------------------------------------------------------------------
# Parsing


def _need(payload: dict, key: str, path: str):
    if key not in payload:
        raise ParseError(f"missing field {key!r}", path)
    return payload[key]


def _int_list(value, path: str, length: int, upper: int) -> list[int]:
    if not isinstance(value, list):
        raise ParseError("expected a list of integers", path)
    if len(value) != length:
        raise ParseError(f"expected length {length}, got {len(value)}", path)
    for i, v in enumerate(value):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError("expected an integer", f"{path}[{i}]")
        if not (0 <= v < upper):
            raise ParseError(f"index {v} out of range (order {upper})",
                             f"{path}[{i}]")
    return value


def _int_table(value, path: str, rows: int, cols: int,
               upper: int) -> list[list[int]]:
    if not isinstance(value, list):
        raise ParseError("expected a list of rows", path)
    if len(value) != rows:
        raise ParseError(f"expected {rows} rows, got {len(value)}", path)
    return [_int_list(r, f"{path}[{i}]", cols, upper)
            for i, r in enumerate(value)]


class _Loader:
    """Parses documents, resolving string values as relative file paths."""

    def __init__(self, basedir: str | None = None, stack: tuple = ()):
        self.basedir = basedir
        self.stack = stack

    def sub(self, value, path: str, expect: str):
        """A nested structure: either an inline document or a reference."""
        if isinstance(value, str):
            if self.basedir is None:
                raise ParseError("file references need a base directory; "
                                 "parse from a file to enable them", path)
            ref = os.path.normpath(os.path.join(self.basedir, value))
            if ref in self.stack:
                raise ParseError(f"reference cycle through {value!r}", path)
            try:
                with open(ref, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read reference {value!r}: {exc}",
                                 path)
            loader = _Loader(os.path.dirname(ref), self.stack + (ref,))
            obj, kind = loader.parse_text(text)
            if kind != expect:
                raise ParseError(
                    f"reference {value!r} has kind {kind!r}, expected "
                    f"{expect!r}", path)
            return obj
        if not isinstance(value, dict):
            raise ParseError("expected an object or a reference path", path)
        obj, kind = self.parse_payload(value, path)
        if kind != expect:
            raise ParseError(f"expected kind {expect!r}, found {kind!r}", path)
        return obj

    def parse_text(self, text: str):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}", "")
        if not isinstance(payload, dict):
            raise ParseError("top-level value must be an object", "")
        return self.parse_payload(payload, "")

    def parse_payload(self, payload: dict, path: str):
        kind = _need(payload, "kind", path)
        if kind not in KINDS:
            raise ParseError(f"unknown kind {kind!r}", f"{path}.kind")
        version = _need(payload, "format_version", path)
        if version != FORMAT_VERSION:
            raise ParseError(
                f"format_version {version!r} unsupported (expected "
                f"{FORMAT_VERSION})", f"{path}.format_version")
        return getattr(self, "_parse_" + kind.replace("-", "_"))(payload, path), kind

    # -- kind parsers ------------------------------------------------------

    def _parse_group(self, payload, path):
        name = _need(payload, "name", path)
        if not isinstance(name, str):
            raise ParseError("name must be a string", f"{path}.name")
        elements = _need(payload, "elements", path)
        if (not isinstance(elements, list)
                or not all(isinstance(e, str) for e in elements)):
            raise ParseError("elements must be a list of strings",
                             f"{path}.elements")
        n = len(elements)
        if n == 0:
            raise ParseError("a group needs at least one element",
                             f"{path}.elements")
        if len(set(elements)) != n:
            raise ParseError("element names must be distinct",
                             f"{path}.elements")
        table = _int_table(_need(payload, "table", path), f"{path}.table",
                           n, n, n)
        return FiniteGroup(name, tuple(elements), table)

    def _parse_hom(self, payload, path):
        dom = self.sub(_need(payload, "domain", path), f"{path}.domain",
                       "group")
        cod = self.sub(_need(payload, "codomain", path), f"{path}.codomain",
                       "group")
        m = _int_list(_need(payload, "map", path), f"{path}.map",
                      dom.order, cod.order)
        return GroupHom(dom, cod, m)

    def _parse_action(self, payload, path):
        actor = self.sub(_need(payload, "actor", path), f"{path}.actor",
                         "group")
        target = self.sub(_need(payload, "target", path), f"{path}.target",
                          "group")
        perms = _int_table(_need(payload, "perms", path), f"{path}.perms",
                           actor.order, target.order, target.order)
        return GroupAction(actor, target, perms)

    def _parse_xmod_groups(self, payload, path):
        a = self.sub(_need(payload, "a", path), f"{path}.a", "group")
        b = self.sub(_need(payload, "b", path), f"{path}.b", "group")
        bd = _int_list(_need(payload, "boundary", path), f"{path}.boundary",
                       a.order, b.order)
        perms = _int_table(_need(payload, "action", path), f"{path}.action",
                           b.order, a.order, a.order)
        return XModGroups(a, b, GroupHom(a, b, bd), GroupAction(b, a, perms))

    def _parse_group_groupoid(self, payload, path):
        arrows = self.sub(_need(payload, "arrows", path), f"{path}.arrows",
                          "group")
        objects = self.sub(_need(payload, "objects", path),
                           f"{path}.objects", "group")
        d0 = _int_list(_need(payload, "d0", path), f"{path}.d0",
                       arrows.order, objects.order)
        d1 = _int_list(_need(payload, "d1", path), f"{path}.d1",
                       arrows.order, objects.order)
        eps = _int_list(_need(payload, "eps", path), f"{path}.eps",
                        objects.order, arrows.order)
        return GroupGroupoid(arrows, objects,
                             GroupHom(arrows, objects, d0),
                             GroupHom(arrows, objects, d1),
                             GroupHom(objects, arrows, eps))

    def _parse_xmod_gg(self, payload, path):
        g = self.sub(_need(payload, "g", path), f"{path}.g", "group-groupoid")
        h = self.sub(_need(payload, "h", path), f"{path}.h", "group-groupoid")
        b1 = _int_list(_need(payload, "boundary_arrows", path),
                       f"{path}.boundary_arrows",
                       g.arrows.order, h.arrows.order)
        b0 = _int_list(_need(payload, "boundary_objects", path),
                       f"{path}.boundary_objects",
                       g.objects.order, h.objects.order)
        perms = _int_table(_need(payload, "action", path), f"{path}.action",
                           h.arrows.order, g.arrows.order, g.arrows.order)
        return XModGG(g, h, GroupHom(g.arrows, h.arrows, b1),
                      GroupHom(g.objects, h.objects, b0),
                      GroupAction(h.arrows, g.arrows, perms))

    def _parse_dgg(self, payload, path):
        s = self.sub(_need(payload, "squares", path), f"{path}.squares",
                     "group")
        h = self.sub(_need(payload, "hedges", path), f"{path}.hedges",
                     "group")
        v = self.sub(_need(payload, "vedges", path), f"{path}.vedges",
                     "group")
        p = self.sub(_need(payload, "points", path), f"{path}.points",
                     "group")
        shapes = {
            "d0h": (s, h), "d1h": (s, h), "epsh": (h, s),
            "d0v": (s, v), "d1v": (s, v), "epsv": (v, s),
            "d0H": (h, p), "d1H": (h, p), "epsH": (p, h),
            "d0V": (v, p), "d1V": (v, p), "epsV": (p, v),
        }
        homs = {}
        for field, (dom, cod) in shapes.items():
            m = _int_list(_need(payload, field, path), f"{path}.{field}",
                          dom.order, cod.order)
            homs[field] = GroupHom(dom, cod, m)
        return DoubleGroupGroupoid(s=s, h=h, v=v, p=p, **homs)

    def _parse_xsq(self, payload, path):
        l = self.sub(_need(payload, "l", path), f"{path}.l", "group")
        m = self.sub(_need(payload, "m", path), f"{path}.m", "group")
        n = self.sub(_need(payload, "n", path), f"{path}.n", "group")
        p = self.sub(_need(payload, "p", path), f"{path}.p", "group")
        lam = _int_list(_need(payload, "lam", path), f"{path}.lam",
                        l.order, m.order)
        lam_p = _int_list(_need(payload, "lam_prime", path),
                          f"{path}.lam_prime", l.order, n.order)
        mu = _int_list(_need(payload, "mu", path), f"{path}.mu",
                       m.order, p.order)
        nu = _int_list(_need(payload, "nu", path), f"{path}.nu",
                       n.order, p.order)
        apl = _int_table(_need(payload, "act_p_on_l", path),
                         f"{path}.act_p_on_l", p.order, l.order, l.order)
        apm = _int_table(_need(payload, "act_p_on_m", path),
                         f"{path}.act_p_on_m", p.order, m.order, m.order)
        apn = _int_table(_need(payload, "act_p_on_n", path),
                         f"{path}.act_p_on_n", p.order, n.order, n.order)
        hmap = _int_table(_need(payload, "h", path), f"{path}.h",
                          m.order, n.order, l.order)
        return CrossedSquare(l, m, n, p,
                             GroupHom(l, m, lam), GroupHom(l, n, lam_p),
                             GroupHom(m, p, mu), GroupHom(n, p, nu),
                             GroupAction(p, l, apl), GroupAction(p, m, apm),
                             GroupAction(p, n, apn), hmap)

    def _parse_split_extension(self, payload, path):
        ker = self.sub(_need(payload, "kernel", path), f"{path}.kernel",
                       "group")
        tot = self.sub(_need(payload, "total", path), f"{path}.total",
                       "group")
        quo = self.sub(_need(payload, "quotient", path), f"{path}.quotient",
                       "group")
        inc = _int_list(_need(payload, "inclusion", path),
                        f"{path}.inclusion", ker.order, tot.order)
        proj = _int_list(_need(payload, "projection", path),
                         f"{path}.projection", tot.order, quo.order)
        sec = _int_list(_need(payload, "section", path), f"{path}.section",
                        quo.order, tot.order)
        return SplitExtension(ker, tot, quo, GroupHom(ker, tot, inc),
                              GroupHom(tot, quo, proj),
                              GroupHom(quo, tot, sec))

    def _parse_split_extension_gg(self, payload, path):
        g = self.sub(_need(payload, "g", path), f"{path}.g", "group-groupoid")
        k = self.sub(_need(payload, "k", path), f"{path}.k", "group-groupoid")
        h = self.sub(_need(payload, "h", path), f"{path}.h", "group-groupoid")

        def hom(field, dom, cod):
            m = _int_list(_need(payload, field, path), f"{path}.{field}",
                          dom.order, cod.order)
            return GroupHom(dom, cod, m)

        iota = GGMorphism(g, k, hom("iota_arrows", g.arrows, k.arrows),
                          hom("iota_objects", g.objects, k.objects))
        p = GGMorphism(k, h, hom("p_arrows", k.arrows, h.arrows),
                       hom("p_objects", k.objects, h.objects))
        s = GGMorphism(h, k, hom("s_arrows", h.arrows, k.arrows),
                       hom("s_objects", h.objects, k.objects))
        return SplitExtensionGG(g, k, h, iota, p, s)


def loads(text: str, basedir: str | None = None):
    """Parse a document from text; returns the typed structure
    (unvalidated).  ``basedir`` enables relative file references."""
    obj, _kind = _Loader(basedir).parse_text(text)
    return obj


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    real = os.path.normpath(os.path.abspath(path))
    obj, _kind = _Loader(os.path.dirname(real), (real,)).parse_text(text)
    return obj


def kind_of(obj) -> str:
    return to_document(obj)["kind"]
