"""Document format: canonical printing, parsing, references, error paths."""

import json
import os

import pytest

from ggx import serialize
from ggx.catalog import catalog_build, catalog_names
from ggx.groups import FiniteGroup
from ggx.report import ParseError
from gen_fixtures import BROKEN, VALID

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def manifest():
    with open(os.path.join(FIXDIR, "manifest.json")) as fh:
        return json.load(fh)["fixtures"]


def test_every_fixture_is_byte_exact_canonical():
    for fx in manifest():
        if fx.get("canonical") is False:
            continue
        path = os.path.join(FIXDIR, fx["file"])
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        obj = serialize.load_path(path)
        assert serialize.dumps(obj) == text, fx["file"]
        assert serialize.kind_of(obj) == fx["kind"]


def test_committed_fixtures_equal_the_generated_documents():
    # every fixture tests/gen_fixtures.py builds, catalog entries and the
    # single-entry mutations alike, prints as the committed file
    builders = [(f, lambda n=n: catalog_build(n)) for f, n in VALID]
    builders += [(f, build) for f, build, _ in BROKEN]
    for fname, build in builders:
        with open(os.path.join(FIXDIR, fname), encoding="utf-8") as fh:
            assert serialize.dumps(build()) == fh.read(), fname


def test_catalog_full_loop():
    # every catalog structure emits, re-parses and re-prints identically
    for name in catalog_names():
        obj = catalog_build(name)
        text = serialize.dumps(obj)
        again = serialize.loads(text)
        assert serialize.dumps(again) == text
        assert type(again) is type(obj)


def test_parse_checks_range_with_path():
    doc = {"kind": "group", "format_version": 1, "name": "bad",
           "elements": ["0", "1"], "table": [[0, 1], [5, 0]]}
    with pytest.raises(ParseError) as err:
        serialize.loads(json.dumps(doc))
    assert "table[1][0]" in str(err.value)
    assert "out of range" in str(err.value)


def test_parse_never_runs_axiom_checks():
    # a shape-correct but axiom-violating table parses fine
    doc = {"kind": "group", "format_version": 1, "name": "bad",
           "elements": ["0", "1"], "table": [[0, 1], [0, 1]]}
    obj = serialize.loads(json.dumps(doc))
    assert isinstance(obj, FiniteGroup)


def test_unknown_kind_and_version_mismatch():
    with pytest.raises(ParseError):
        serialize.loads(json.dumps({"kind": "ring", "format_version": 1}))
    with pytest.raises(ParseError):
        serialize.loads(json.dumps({"kind": "group", "format_version": 99,
                                    "name": "g", "elements": ["0"],
                                    "table": [[0]]}))
    with pytest.raises(ParseError):
        serialize.loads(json.dumps({"kind": "group", "format_version": True,
                                    "name": "g", "elements": ["0"],
                                    "table": [[0]]}))


def test_missing_field_names_the_field():
    with pytest.raises(ParseError) as err:
        serialize.loads(json.dumps({"kind": "group", "format_version": 1,
                                    "name": "g", "elements": ["0"]}))
    assert "table" in str(err.value)


def test_unknown_field_is_named_after_the_version():
    group = {"kind": "group", "format_version": 1, "name": "g",
             "elements": ["0"], "table": [[0]]}
    doc = {"kind": "hom", "format_version": 1, "domain": dict(group),
           "codomain": group, "map": [0]}
    doc["domain"]["extra"] = 1
    with pytest.raises(ParseError) as err:
        serialize.loads(json.dumps(doc))
    assert str(err.value) == ".domain.extra: unknown field 'extra'"
    # the unknown field is reported before a missing one
    with pytest.raises(ParseError) as err:
        serialize.loads(json.dumps({"kind": "group", "format_version": 1,
                                    "note": "", "name": "g"}))
    assert "unknown field 'note'" in str(err.value)


def test_the_schema_states_the_layout():
    with open(os.path.join(FIXDIR, "..", "..", "docs",
                           "document-schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    assert [entry["$ref"] for entry in schema["oneOf"]] == \
        [f"#/definitions/{kind}" for kind in serialize.LAYOUT]
    for kind, (_cls, fields) in serialize.LAYOUT.items():
        keys = ["kind", "format_version"] + [key for key, _, _ in fields]
        definition = schema["definitions"][kind]
        assert definition["required"] == keys, kind
        assert list(definition["properties"]) == keys, kind


def test_reference_resolution():
    obj = serialize.load_path(os.path.join(FIXDIR, "hom-by-reference.json"))
    assert obj.domain.order == 2
    assert obj.map.tolist() == [0, 1]


def test_reference_needs_a_base_directory():
    doc = {"kind": "hom", "format_version": 1, "domain": "z2-group.json",
           "codomain": "z2-group.json", "map": [0, 1]}
    with pytest.raises(ParseError):
        serialize.loads(json.dumps(doc))


def test_reference_cycle_rejected(tmp_path):
    a = {"kind": "hom", "format_version": 1, "domain": "b.json",
         "codomain": "b.json", "map": [0]}
    # b refers back to a, which is not even a group: the cycle is caught
    # before any kind mismatch
    b = {"kind": "hom", "format_version": 1, "domain": "a.json",
         "codomain": "a.json", "map": [0]}
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    with pytest.raises(ParseError) as err:
        serialize.load_path(str(tmp_path / "a.json"))
    assert "cycle" in str(err.value)


def test_reference_kind_mismatch(tmp_path):
    (tmp_path / "g.json").write_text(serialize.dumps(catalog_build("z2")))
    doc = {"kind": "xmod-gg", "format_version": 1, "g": "g.json",
           "h": "g.json", "boundary_arrows": [0, 1],
           "boundary_objects": [0, 1], "action": [[0, 1], [0, 1]]}
    (tmp_path / "xm.json").write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        serialize.load_path(str(tmp_path / "xm.json"))
    assert "kind" in str(err.value)


def test_dumps_is_deterministic():
    obj = catalog_build("trivial-dgg-pair-z2")
    assert serialize.dumps(obj) == serialize.dumps(obj)
