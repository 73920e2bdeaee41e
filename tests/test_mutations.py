"""Properties over every fixture: a document with one integer entry changed,
or with one field dropped, added or replaced by a value of another JSON
type, either fails to parse or gets a report whose tag the axiom-tag table
of ``docs/format.md`` names; a document that verifies as valid also passes
the reference oracle of the implied laws."""

import copy
import json
import os
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from ggx import serialize
from ggx.cli import _validator_for
from ggx.report import ParseError
from reference_laws import oracle

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")
FORMAT_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "format.md")


def documented_tags() -> set:
    """Every tag in the first column of the axiom-tag table."""
    tags = set()
    with open(FORMAT_MD, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("| `"):
                tags.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return tags


def fixtures() -> list:
    with open(os.path.join(FIXDIR, "manifest.json"), encoding="utf-8") as fh:
        names = [fx["file"] for fx in json.load(fh)["fixtures"]]
    docs = []
    for name in names:
        with open(os.path.join(FIXDIR, name), encoding="utf-8") as fh:
            docs.append((name, json.load(fh)))
    return docs


def integer_rows(value, out) -> list:
    """The lists of integers in a document (tables, maps, permutations), in
    sorted-key order."""
    if isinstance(value, dict):
        for key in sorted(value):
            integer_rows(value[key], out)
    elif isinstance(value, list):
        if value and all(type(v) is int for v in value):
            out.append(value)
        for v in value:
            integer_rows(v, out)
    return out


def objects(value, out) -> list:
    """The JSON objects of a document: itself and every nested structure."""
    if isinstance(value, dict):
        out.append(value)
        for v in value.values():
            objects(v, out)
    return out


TAGS = documented_tags()
FIXTURES = fixtures()


def test_the_tag_table_lists_tags_one_by_one():
    assert {"malformed", "act-interchange", "square-epsV", "CS3",
            "compat-eps-eps", "equivariance-m"} <= TAGS
    assert not [t for t in TAGS if "*" in t or "/" in t or "." in t]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_single_entry_mutations_report_documented_tags(data):
    name, doc = data.draw(st.sampled_from(FIXTURES))
    doc = copy.deepcopy(doc)
    rows = integer_rows(doc, [])
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    i = data.draw(st.integers(0, len(row) - 1))
    old = row[i]
    row[i] = data.draw(st.integers(-1, max(row) + 1)
                       .filter(lambda v: v != old))
    try:
        obj = serialize.loads(json.dumps(doc), basedir=FIXDIR)
    except ParseError:
        return
    report = _validator_for(obj)(obj)
    assert report.ok or report.axiom in TAGS, (name, report.describe())
    assert not report.ok or oracle(obj).ok, (name, oracle(obj).describe())


MUTATIONS = [("drop", None), ("add", None)] + [
    ("replace", value) for value in ("x", {}, [], True, 1.5, None)]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_structural_mutations_report_documented_tags(data):
    name, doc = data.draw(st.sampled_from(FIXTURES))
    doc = copy.deepcopy(doc)
    node = data.draw(st.sampled_from(objects(doc, [])))
    key = data.draw(st.sampled_from(sorted(node)))
    how, value = data.draw(st.sampled_from(MUTATIONS))
    if how == "drop":
        del node[key]
    elif how == "add":
        node[key + "_extra"] = 0
    else:
        node[key] = copy.deepcopy(value)
    try:
        obj = serialize.loads(json.dumps(doc), basedir=FIXDIR)
    except ParseError:
        return
    # the schema requires every field and forbids any other
    assert how == "replace", (name, key, how)
    report = _validator_for(obj)(obj)
    assert report.ok or report.axiom in TAGS, (name, report.describe())
    assert not report.ok or oracle(obj).ok, (name, oracle(obj).describe())
