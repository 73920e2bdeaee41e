"""The first-violation contract: every validator reproduces the axiom,
location and witness recorded in ``tests/fixtures/witnesses.json``
(regenerate with ``python tests/gen_witnesses.py``)."""

import json

from gen_witnesses import OUT, build, record


def test_validators_reproduce_every_witness_record():
    with open(OUT, encoding="utf-8") as fh:
        records = json.load(fh)["records"]
    wrong = {}
    for key, want in records.items():
        validate, obj = build(key)
        got = record(validate(obj))
        if got != want:
            wrong[key] = {"recorded": want, "now": got}
    assert not wrong, json.dumps(dict(list(wrong.items())[:5]), indent=1)
