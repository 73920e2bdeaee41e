"""Command-line interface.

Verbs:

* ``verify FILE``      -- detect the document kind, run the matching
                          validator, print a report.  Exit 0 when valid,
                          1 on an axiom failure, 2 on usage/parse errors.
* ``apply FUNCTOR FILE [-o OUT]`` -- apply theta/gamma/delta/eta and write
                          the resulting document.
* ``roundtrip NAME FILE`` -- run one of the four round-trip isomorphism
                          verifications.
* ``enumerate KIND ...`` -- run an enumeration oracle and print the count
                          (optionally emitting the documents, each as
                          soon as it is found).
* ``catalog list`` / ``catalog emit NAME [-o OUT]``.

Every verb exits 2 on a usage or parse error (an unreadable input is a
parse error) or an output it cannot write, and 3, after one line on
stderr, on an internal error: an exception that is neither a parse error
nor a :class:`~ggx.report.GgxError`.

The ``GGX_MAX_ORDER`` environment variable overrides the default
enumeration bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as _catalog
from . import enumeration, serialize
from .equiv import (delta, eta, gamma, roundtrip_delta_eta,
                    roundtrip_eta_delta, roundtrip_gamma_theta,
                    roundtrip_theta_gamma, theta)
from .groups import (FiniteGroup, GroupAction, GroupHom, SplitExtension,
                     validate_action, validate_group, validate_hom,
                     validate_split_extension)
from .groupoids import (GroupGroupoid, SplitExtensionGG,
                        validate_group_groupoid, validate_split_extension_gg)
from .report import GgxError, ParseError, ValidationReport
from .xmod import XModGG, XModGroups, validate_xmod_gg, validate_xmod_groups
from .dgg import DoubleGroupGroupoid, validate_dgg
from .xsq import CrossedSquare, validate_xsq

_VALIDATORS = [
    (FiniteGroup, validate_group),
    (GroupHom, validate_hom),
    (GroupAction, validate_action),
    (XModGroups, validate_xmod_groups),
    (GroupGroupoid, validate_group_groupoid),
    (XModGG, validate_xmod_gg),
    (DoubleGroupGroupoid, validate_dgg),
    (CrossedSquare, validate_xsq),
    (SplitExtension, validate_split_extension),
    (SplitExtensionGG, validate_split_extension_gg),
]


def _validator_for(obj):
    for klass, fn in _VALIDATORS:
        if isinstance(obj, klass):
            return fn
    raise GgxError(f"no validator for {type(obj).__name__}")


def _print_report(kind: str, report: ValidationReport, as_json: bool) -> None:
    if as_json:
        payload = {"kind": kind, **report.to_dict()}
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"kind: {kind}")
    if report.ok:
        print("valid: yes")
    else:
        print("valid: no")
        print(f"axiom: {report.axiom}")
        if report.where:
            print(f"where: {report.where}")
        if report.witness:
            print(f"witness: {report.witness}")
        if report.message:
            print(f"message: {report.message}")


def _cmd_verify(args) -> int:
    obj = serialize.load_path(args.file)
    kind = serialize.kind_of(obj)
    report = _validator_for(obj)(obj)
    _print_report(kind, report, args.json)
    return 0 if report.ok else 1


def _write(obj, output) -> None:
    """Print the document of ``obj`` to the file ``output``, or to stdout."""
    if output:
        serialize.dump_path(obj, output)
        print(f"wrote {serialize.kind_of(obj)} to {output}")
    else:
        sys.stdout.write(serialize.dumps(obj))


_FUNCTORS = {"theta": theta, "gamma": gamma, "delta": delta, "eta": eta}
_FUNCTOR_INPUT = {"theta": XModGG, "gamma": DoubleGroupGroupoid,
                  "delta": XModGG, "eta": CrossedSquare}


def _cmd_apply(args) -> int:
    obj = serialize.load_path(args.file)
    want = _FUNCTOR_INPUT[args.functor]
    if not isinstance(obj, want):
        print(f"error: {args.functor} cannot be applied to a "
              f"{serialize.kind_of(obj)} document", file=sys.stderr)
        return 2
    report = _validator_for(obj)(obj)
    if not report.ok:
        _print_report(serialize.kind_of(obj), report, args.json)
        return 1
    _write(_FUNCTORS[args.functor](obj), args.output)
    return 0


_ROUNDTRIPS = {
    "theta-gamma": (DoubleGroupGroupoid, roundtrip_theta_gamma,
                    lambda d: f"|S| = {d.s.order}"),
    "gamma-theta": (XModGG, roundtrip_gamma_theta,
                    lambda xm: f"|GxH| = {xm.g.arrows.order * xm.h.arrows.order}"),
    "delta-eta": (CrossedSquare, roundtrip_delta_eta,
                  lambda xs: f"|L| = {xs.l.order}, |P| = {xs.p.order}"),
    "eta-delta": (XModGG, roundtrip_eta_delta,
                  lambda xm: f"|GxH| = {xm.g.arrows.order * xm.h.arrows.order}"),
}


def _cmd_roundtrip(args) -> int:
    want, fn, size = _ROUNDTRIPS[args.name]
    obj = serialize.load_path(args.file)
    if not isinstance(obj, want):
        print(f"error: roundtrip {args.name} expects a different kind",
              file=sys.stderr)
        return 2
    report = _validator_for(obj)(obj)
    if not report.ok:
        _print_report(serialize.kind_of(obj), report, args.json)
        return 1
    rt = fn(obj)
    if args.json:
        print(json.dumps({"ok": rt.ok, "summary": rt.summary(),
                          "size": size(obj)}, sort_keys=True))
    else:
        print(f"{rt.summary()}, {size(obj)}")
    return 0 if rt.ok else 1


def _resolve_group(name_or_path: str) -> FiniteGroup:
    if os.path.exists(name_or_path) or name_or_path.endswith(".json"):
        obj = serialize.load_path(name_or_path)
        if not isinstance(obj, FiniteGroup):
            raise GgxError(f"{name_or_path} is not a group document")
        return obj
    return _catalog.base_group(name_or_path)


def _cmd_enumerate(args) -> int:
    if args.kind != "xmod-gg" and (args.a is None or args.b is None):
        print(f"error: enumerate {args.kind} needs --a and --b",
              file=sys.stderr)
        return 2
    emitted = []
    if args.kind == "homs":
        emitted = enumeration.all_homs(_resolve_group(args.a),
                                       _resolve_group(args.b),
                                       max_order=args.max_order)
    elif args.kind == "actions":
        emitted = enumeration.all_actions(_resolve_group(args.b),
                                          _resolve_group(args.a),
                                          max_order=args.max_order)
    elif args.kind == "xmod-groups":
        emitted = enumeration.all_xmod_groups(_resolve_group(args.a),
                                              _resolve_group(args.b),
                                              max_order=args.max_order)
    elif args.kind == "gg-structures":
        emitted = enumeration.all_gg_structures(_resolve_group(args.a),
                                                _resolve_group(args.b),
                                                max_order=args.max_order)
    elif args.kind == "xmod-gg":
        # resolve the bound now: the generator would only fail once the
        # output directory exists
        emitted = enumeration.all_xmod_gg(
            enumeration.resolve_bound(args.max_order))
    if args.out_dir:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise GgxError(f"cannot create {args.out_dir}: "
                           f"{exc.strerror or exc}") from None
    count = 0
    for obj in emitted:
        if args.out_dir:
            serialize.dump_path(obj, os.path.join(
                args.out_dir, f"{args.kind}-{count:04d}.json"))
        if args.print_docs:
            sys.stdout.write(serialize.dumps(obj))
        count += 1
    print(f"count: {count}")
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in _catalog.catalog_names():
            print(name)
        return 0
    _write(_catalog.catalog_build(args.name), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggx",
        description="validators, functors and enumeration oracles for "
                    "finite group-groupoids, crossed modules, double "
                    "group-groupoids and crossed squares")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a structure document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("apply", help="apply an equivalence functor")
    p.add_argument("functor", choices=sorted(_FUNCTORS))
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("roundtrip",
                       help="verify a functor round trip is an isomorphism")
    p.add_argument("name", choices=sorted(_ROUNDTRIPS))
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("enumerate", help="run an enumeration oracle")
    p.add_argument("kind", choices=["homs", "actions", "xmod-groups",
                                    "gg-structures", "xmod-gg"])
    p.add_argument("--a", help="first group (catalog name or file)")
    p.add_argument("--b", help="second group (catalog name or file)")
    p.add_argument("--max-order", type=int, default=None,
                   help="order bound (default: GGX_MAX_ORDER or 8)")
    p.add_argument("--out-dir", help="write every result as a document")
    p.add_argument("--print-docs", action="store_true",
                   help="dump every result to stdout")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("catalog", help="list or emit named structures")
    action = p.add_subparsers(dest="action", required=True)
    pl = action.add_parser("list")
    pl.set_defaults(fn=_cmd_catalog, action="list")
    pe = action.add_parser("emit")
    pe.add_argument("name")
    pe.add_argument("-o", "--output")
    pe.set_defaults(fn=_cmd_catalog, action="emit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GgxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault in ggx itself, not a verdict on the document
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
