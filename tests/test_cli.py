"""Command-line interface: exit codes, reports, determinism."""

import json
import os

import pytest

from ggx import serialize
from ggx.cli import main

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


def test_verify_parse_error_is_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "group", "format_version": 1, "name": "g", '
                 '"elements": ["0"], "table": [[4]]}')
    assert main(["verify", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


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
