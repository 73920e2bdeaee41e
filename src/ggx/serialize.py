"""Serialization of every structure kind to a documented JSON subset.

A document is one JSON object with a ``kind`` field, a ``format_version``
field and kind-specific payload fields; values are restricted to objects,
strings, integers and nested lists.  :data:`LAYOUT` is the one statement
of each kind's payload, read by :func:`to_document`, the parser and
:func:`kind_of`: the value class, which takes the parsed fields in order,
and each field's document key, the attribute path it prints
(``"iota.on_arrows.map"``) and its part, one of

* a kind (:func:`_field`): a nested structure, or a string read as a path
  relative to the referencing file (reference cycles are rejected);
* an index list or table (:func:`_raw`, :func:`_hom`, :func:`_act`) whose
  length, columns and bound are orders of earlier group fields or of their
  attributes (``"g.arrows"``), or a group's own element count, kept as an
  array or read as a hom or an action on the first two of those groups;
* a function: a group's own ``name`` or ``elements`` check.

Parsing checks shape only (field presence, unknown fields, table
squareness, index ranges); an unreadable file, and text that is not JSON
or nests too deeply, are parse errors too.  It never runs axiom checks,
so ``parse`` followed by the matching validator decides validity.
Printing is canonical: sorted keys, two-space indentation, a trailing
newline; ``dumps(loads(text))`` reproduces the canonical form of ``text``
byte for byte.  ``docs/document-schema.json`` restates the layout.
"""

from __future__ import annotations

import json
import os
from operator import attrgetter
from types import SimpleNamespace

from .groups import (FiniteGroup, GroupAction, GroupHom, SplitExtension)
from .groupoids import GGMorphism, GroupGroupoid, SplitExtensionGG
from .report import GgxError, ParseError
from .xmod import XModGG, XModGroups
from .dgg import DoubleGroupGroupoid
from .xsq import CrossedSquare

FORMAT_VERSION = 1


def _name(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError("name must be a string", path)
    return value


def _elements(value, path: str) -> tuple:
    if (not isinstance(value, list)
            or not all(isinstance(e, str) for e in value)):
        raise ParseError("elements must be a list of strings", path)
    if not value:
        raise ParseError("a group needs at least one element", path)
    if len(set(value)) != len(value):
        raise ParseError("element names must be distinct", path)
    return tuple(value)


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


def _field(key, part, attr=None):
    """A field printed from ``attr``, by default the key."""
    return key, attrgetter(attr or key), part


def _raw(key, *refs, attr=None, wrap=None):
    """An index list or table over the groups ``refs``, kept as an array or
    read as ``wrap`` on the first two."""
    read = _int_list if len(refs) == 2 else _int_table
    orders = attrgetter(*(ref + ".order" for ref in refs))
    return key, attrgetter(attr or key), (
        wrap, attrgetter(*refs[:2]), orders, read)


def _hom(key, dom, cod, attr=None):
    """An index list over ``dom`` into ``cod``, read as a hom."""
    return _raw(key, dom, cod, attr=(attr or key) + ".map", wrap=GroupHom)


def _act(key, actor, target):
    """A permutation table of ``target`` per ``actor`` element."""
    return _raw(key, actor, target, target, attr=key + ".perms",
                wrap=GroupAction)


G, GG = "group", "group-groupoid"

LAYOUT = {
    "group": (FiniteGroup, [
        _field("name", _name), _field("elements", _elements),
        _field("table", (None, None, lambda got: (len(got.elements),) * 3,
                         _int_table))]),
    "hom": (GroupHom, [
        _field("domain", G), _field("codomain", G),
        _raw("map", "domain", "codomain")]),
    "action": (GroupAction, [
        _field("actor", G), _field("target", G),
        _raw("perms", "actor", "target", "target")]),
    "xmod-groups": (XModGroups, [
        _field("a", G), _field("b", G),
        _hom("boundary", "a", "b"), _act("action", "b", "a")]),
    "group-groupoid": (GroupGroupoid, [
        _field("arrows", G), _field("objects", G),
        _hom("d0", "arrows", "objects"), _hom("d1", "arrows", "objects"),
        _hom("eps", "objects", "arrows")]),
    "xmod-gg": (XModGG, [
        _field("g", GG), _field("h", GG),
        _hom("boundary_arrows", "g.arrows", "h.arrows"),
        _hom("boundary_objects", "g.objects", "h.objects"),
        _act("action", "h.arrows", "g.arrows")]),
    "dgg": (DoubleGroupGroupoid, [
        _field("squares", G, "s"), _field("hedges", G, "h"),
        _field("vedges", G, "v"), _field("points", G, "p"),
        _hom("d0h", "squares", "hedges"), _hom("d1h", "squares", "hedges"),
        _hom("epsh", "hedges", "squares"),
        _hom("d0v", "squares", "vedges"), _hom("d1v", "squares", "vedges"),
        _hom("epsv", "vedges", "squares"),
        _hom("d0H", "hedges", "points"), _hom("d1H", "hedges", "points"),
        _hom("epsH", "points", "hedges"),
        _hom("d0V", "vedges", "points"), _hom("d1V", "vedges", "points"),
        _hom("epsV", "points", "vedges")]),
    "xsq": (CrossedSquare, [
        _field("l", G), _field("m", G), _field("n", G), _field("p", G),
        _hom("lam", "l", "m"), _hom("lam_prime", "l", "n"),
        _hom("mu", "m", "p"), _hom("nu", "n", "p"),
        _act("act_p_on_l", "p", "l"), _act("act_p_on_m", "p", "m"),
        _act("act_p_on_n", "p", "n"),
        _raw("h", "m", "n", "l", attr="hmap")]),
    "split-extension": (SplitExtension, [
        _field("kernel", G, "kernel_group"), _field("total", G, "total_group"),
        _field("quotient", G, "quotient_group"),
        _hom("inclusion", "kernel", "total"),
        _hom("projection", "total", "quotient"),
        _hom("section", "quotient", "total")]),
    "split-extension-gg": (SplitExtensionGG, [
        _field("g", GG), _field("k", GG), _field("h", GG),
        _hom("iota_arrows", "g.arrows", "k.arrows", "iota.on_arrows"),
        _hom("iota_objects", "g.objects", "k.objects", "iota.on_objects"),
        _hom("p_arrows", "k.arrows", "h.arrows", "p.on_arrows"),
        _hom("p_objects", "k.objects", "h.objects", "p.on_objects"),
        _hom("s_arrows", "h.arrows", "k.arrows", "s.on_arrows"),
        _hom("s_objects", "h.objects", "k.objects", "s.on_objects")]),
}

_KIND_OF = {cls: kind for kind, (cls, _) in LAYOUT.items()}
_KEYS = {kind: {"kind", "format_version", *(f[0] for f in fields)}
         for kind, (_, fields) in LAYOUT.items()}


# the extension maps of a split extension of group-groupoids pair up
_BUILD = {"split-extension-gg": lambda g, k, h, ia, io, pa, po, sa, so:
          SplitExtensionGG(g, k, h, GGMorphism(g, k, ia, io),
                           GGMorphism(k, h, pa, po), GGMorphism(h, k, sa, so))}


# ---------------------------------------------------------------------------
# Printing


def kind_of(obj) -> str:
    if type(obj) not in _KIND_OF:
        raise ParseError(f"cannot serialize a {type(obj).__name__}")
    return _KIND_OF[type(obj)]


def to_document(obj) -> dict:
    """The JSON-ready document of a structure (references always inlined)."""
    kind = kind_of(obj)
    doc = {"kind": kind, "format_version": FORMAT_VERSION}
    for key, get, part in LAYOUT[kind][1]:
        value = get(obj)
        if isinstance(part, str):
            value = to_document(value)
        elif not isinstance(value, str):  # an array or the element names
            value = list(value) if isinstance(value, tuple) else value.tolist()
        doc[key] = value
    return doc


def dumps(obj) -> str:
    return json.dumps(to_document(obj), sort_keys=True, indent=2) + "\n"


def dump_path(obj, path: str) -> None:
    text = dumps(obj)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise GgxError(f"cannot write {path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# Parsing


def _need(payload: dict, key: str, path: str):
    if key not in payload:
        raise ParseError(f"missing field {key!r}", path)
    return payload[key]


def _read(path: str, stack: tuple, where: str = ""):
    """The structure and kind of the document in file ``path``, a
    normalised path; ``stack`` holds the files that refer to it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read {path}: {reason}", where) from None
    return _Loader(os.path.dirname(path), stack + (path,)).parse_text(text)


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
            obj, kind = _read(ref, self.stack, path)
        elif isinstance(value, dict):
            obj, kind = self.parse_payload(value, path)
        else:
            raise ParseError("expected an object or a reference path", path)
        if kind != expect:
            raise ParseError(f"expected kind {expect!r}, found {kind!r}", path)
        return obj

    def parse_text(self, text: str):
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"not valid JSON: {exc}", "") from None
        if not isinstance(payload, dict):
            raise ParseError("top-level value must be an object", "")
        return self.parse_payload(payload, "")

    def parse_payload(self, payload: dict, path: str):
        kind = _need(payload, "kind", path)
        if not isinstance(kind, str) or kind not in LAYOUT:
            raise ParseError(f"unknown kind {kind!r}", f"{path}.kind")
        version = _need(payload, "format_version", path)
        if version != FORMAT_VERSION or isinstance(version, bool):
            raise ParseError(
                f"format_version {version!r} unsupported (expected "
                f"{FORMAT_VERSION})", f"{path}.format_version")
        cls, fields = LAYOUT[kind]
        if not _KEYS[kind].issuperset(payload):
            key = next(key for key in payload if key not in _KEYS[kind])
            raise ParseError(f"unknown field {key!r}", f"{path}.{key}")
        got = SimpleNamespace()  # the fields parsed so far, in order
        for key, _, part in fields:
            value, where = _need(payload, key, path), f"{path}.{key}"
            if isinstance(part, str):
                value = self.sub(value, where, part)
            elif isinstance(part, tuple):
                wrap, groups, orders, read = part
                value = read(value, where, *orders(got))
                if wrap is not None:
                    value = wrap(*groups(got), value)
            else:
                value = part(value, where)
            setattr(got, key, value)
        return _BUILD.get(kind, cls)(*vars(got).values()), kind


def loads(text: str, basedir: str | None = None):
    """Parse a document from text; returns the typed structure
    (unvalidated).  ``basedir`` enables relative file references."""
    return _Loader(basedir).parse_text(text)[0]


def load_path(path: str):
    return _read(os.path.normpath(os.path.abspath(path)), ())[0]
