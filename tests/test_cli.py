"""Command-line interface: exit codes, reports, determinism."""

import json
import os
import subprocess
import sys

import pytest

from ggx import cli, enumeration, serialize
from ggx.cli import main
from ggx.groups import FiniteGroup

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXDIR, name)


def manifest():
    with open(fixture("manifest.json")) as fh:
        return json.load(fh)["fixtures"]


def test_verify_valid_fixture(capsys):
    assert main(["verify", fixture("z2-group.json")]) == 0
    out = capsys.readouterr().out
    assert "valid: yes" in out and "kind: group" in out


def test_verify_broken_fixture(capsys):
    assert main(["verify", fixture("broken-latin.json")]) == 1
    out = capsys.readouterr().out
    assert "latin-square" in out


def test_verify_exit_codes_match_manifest(capsys):
    for fx in manifest():
        code = main(["verify", fixture(fx["file"])])
        assert code == (0 if fx["valid"] else 1), fx["file"]
    capsys.readouterr()


def test_verify_json_reports_axiom(capsys):
    main(["verify", fixture("broken-xmod-cm2.json"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["axiom"] == "CM2"
    assert payload["kind"] == "xmod-groups"


def test_verify_reports_are_byte_identical_across_runs(capsys):
    outs = []
    for _ in range(2):
        main(["verify", fixture("broken-xmodgg-action.json"), "--json"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def edited_fixture(tmp_path, name, edits):
    """A copy of fixture ``name`` with ``edits``, pairs of a key path and
    the value to put there."""
    with open(fixture(name)) as fh:
        doc = json.load(fh)
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return str(target)


_ID_PERMS = (("perms",), [[0, 1, 2], [0, 1, 2]])
_BAD_TARGET = (("target", "table", 2), [2, 0, 0])


@pytest.mark.parametrize("name, edits, where, witness", [
    ("broken-hom.json", [(("map",), [0, 0, 0, 0]),
                         (("domain", "table", 3), [3, 0, 1, 1])],
     "domain", ["row", 3]),
    ("broken-action.json", [_ID_PERMS, _BAD_TARGET], "target", ["row", 2]),
    ("broken-action.json", [_ID_PERMS, _BAD_TARGET,
                            (("actor", "table"), [[1, 1], [1, 0]])],
     "actor", ["row", 0]),
], ids=["hom-domain", "action-target", "action-actor"])
def test_verify_checks_the_groups_of_homs_and_actions(tmp_path, capsys, name,
                                                      edits, where, witness):
    path = edited_fixture(tmp_path, name, edits)
    assert main(["verify", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["axiom"], payload["where"], payload["witness"]) == \
        ("latin-square", where, witness)


def test_verify_parse_error_is_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "group", "format_version": 1, "name": "g", '
                 '"elements": ["0"], "table": [[4]]}')
    assert main(["verify", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


def write_file(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def reference_to_undecodable(tmp_path) -> str:
    write_file(tmp_path / "bad.json", b"\xff")
    doc = {"kind": "hom", "format_version": 1, "domain": "bad.json",
           "codomain": "bad.json", "map": [0]}
    return write_file(tmp_path / "ref.json", json.dumps(doc).encode())


@pytest.mark.parametrize("argv, first_words", [
    (lambda d: ["verify", str(d / "missing.json")],
     "parse error: cannot read"),
    (lambda d: ["verify", str(d)], "parse error: cannot read"),
    (lambda d: ["verify", write_file(d / "bad.json", b"\xff")],
     "parse error: cannot read"),
    (lambda d: ["verify", reference_to_undecodable(d)],
     "parse error: .domain: cannot read"),
    (lambda d: ["verify", write_file(d / "deep.json", b"[" * 200_000)],
     "parse error: not valid JSON"),
    (lambda d: ["verify", write_file(d / "digits.json", b"1" * 5000)],
     "parse error:"),
    (lambda d: ["verify", edited_fixture(d, "z2-group.json",
                                         [(("extra",), 1)])],
     "parse error: .extra: unknown field 'extra'"),
    (lambda d: ["catalog", "emit", "z2", "-o", str(d / "no" / "x.json")],
     "error: cannot write"),
    (lambda d: ["apply", "theta", fixture("identity-xmod-z2.json"),
                "-o", str(d / "no" / "x.json")], "error: cannot write"),
    (lambda d: ["enumerate", "homs", "--a", "z2", "--b", "z2", "--out-dir",
                os.path.join(write_file(d / "file", b""), "sub")],
     "error: cannot create"),
], ids=["missing-file", "directory", "undecodable-file",
        "undecodable-reference", "deep-nesting", "long-integer",
        "unknown-field", "unwritable-catalog-output",
        "unwritable-apply-output", "unusable-out-dir"])
def test_unreadable_input_and_unwritable_output_are_exit_two(
        tmp_path, capsys, argv, first_words):
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_words), lines


def test_internal_error_is_exit_three_without_traceback(monkeypatch,
                                                        capsys):
    def broken_validator(obj):
        raise RuntimeError("validator fault")

    monkeypatch.setattr(cli, "_VALIDATORS", [(FiniteGroup, broken_validator)])
    assert main(["verify", fixture("z2-group.json")]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: validator fault\n"
    assert captured.out == ""


def test_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["verify"])
    assert err.value.code == 2


def test_apply_theta_roundtrip_file(tmp_path, capsys):
    out = tmp_path / "theta.json"
    code = main(["apply", "theta", fixture("identity-xmod-z2.json"),
                 "-o", str(out)])
    assert code == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()
    assert main(["roundtrip", "theta-gamma", str(out)]) == 0
    assert "isomorphism verified" in capsys.readouterr().out


def test_apply_rejects_wrong_kind(capsys):
    assert main(["apply", "theta", fixture("z2-group.json")]) == 2
    assert "cannot be applied" in capsys.readouterr().err


def test_apply_refuses_invalid_input(capsys):
    assert main(["apply", "gamma", fixture("broken-dgg-epsh.json")]) == 1
    capsys.readouterr()


def test_roundtrip_gamma_theta_report(capsys):
    code = main(["roundtrip", "gamma-theta", fixture("identity-xmod-z2.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "isomorphism verified" in out and "|GxH| = 4" in out


def test_roundtrip_delta_eta_on_norrie(capsys):
    assert main(["roundtrip", "delta-eta", fixture("norrie-s3.json")]) == 0
    assert main(["roundtrip", "eta-delta",
                 fixture("pair-xmod-z3-z2-inv.json")]) == 0
    capsys.readouterr()


def test_enumerate_counts(capsys):
    assert main(["enumerate", "homs", "--a", "z2", "--b", "z2"]) == 0
    assert capsys.readouterr().out.strip() == "count: 2"
    assert main(["enumerate", "xmod-gg", "--max-order", "2"]) == 0
    assert capsys.readouterr().out.strip() == "count: 2"
    assert main(["enumerate", "actions", "--a", "z3", "--b", "z2"]) == 0
    assert capsys.readouterr().out.strip() == "count: 2"


def test_non_integer_max_order_variable_is_exit_two(monkeypatch, capsys):
    monkeypatch.setenv("GGX_MAX_ORDER", "abc")
    assert main(["enumerate", "homs", "--a", "z2", "--b", "z3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: GGX_MAX_ORDER must be an integer, got 'abc'"]


def test_bad_bound_variable_creates_no_output_dir(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("GGX_MAX_ORDER", "abc")
    out = tmp_path / "docs"
    assert main(["enumerate", "xmod-gg", "--out-dir", str(out)]) == 2
    assert "GGX_MAX_ORDER" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_missing_group_args(capsys):
    assert main(["enumerate", "homs", "--a", "z2"]) == 2
    capsys.readouterr()


def test_enumerate_emits_parseable_documents(tmp_path, capsys):
    out = tmp_path / "docs"
    assert main(["enumerate", "gg-structures", "--a", "v4", "--b", "z2",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    files = sorted(os.listdir(out))
    assert len(files) == 12
    for f in files:
        assert main(["verify", os.path.join(str(out), f)]) == 0
    capsys.readouterr()


def test_enumerate_xmod_gg_streams_documents(tmp_path, monkeypatch, capsys):
    out = tmp_path / "docs"
    real = enumeration.all_xmod_gg

    def checked(max_order):
        for i, xm in enumerate(real(max_order)):
            assert len(os.listdir(out)) == i  # the earlier ones are written
            yield xm

    monkeypatch.setattr(enumeration, "all_xmod_gg", checked)
    assert main(["enumerate", "xmod-gg", "--max-order", "3",
                 "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == "count: 20\n"
    assert sorted(os.listdir(out)) == \
        [f"xmod-gg-{i:04d}.json" for i in range(20)]


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ggx", "catalog", "list"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "norrie-s3" in proc.stdout.split()


def test_catalog_list_and_emit(tmp_path, capsys):
    assert main(["catalog", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "identity-xmod-z2" in names and "norrie-s3" in names
    target = tmp_path / "x.json"
    assert main(["catalog", "emit", "norrie-s3", "-o", str(target)]) == 0
    capsys.readouterr()
    assert main(["verify", str(target)]) == 0
    capsys.readouterr()


def test_catalog_unknown_name(capsys):
    assert main(["catalog", "emit", "nonsense"]) == 2
    assert "unknown catalog entry" in capsys.readouterr().err


def test_emitted_documents_are_canonical(tmp_path, capsys):
    target = tmp_path / "x.json"
    main(["catalog", "emit", "pair-gg-z2", "-o", str(target)])
    capsys.readouterr()
    text = target.read_text()
    assert serialize.dumps(serialize.loads(text)) == text
