"""Tests of the benchmark harness's own helpers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stats import (percentile, samples_beyond, stratified_order,  # noqa: E402
                   tail_percentile)
from tracer import Tracer, covered  # noqa: E402

gen.import_ggx()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = Tracer((), clock=clock)
    with t.span("outer"):
        clock.now = 1.0
        with t.span("mid"):
            clock.now = 2.0
            with t.span("inner"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 7.0
        with t.span("inner"):
            clock.now = 9.0
        clock.now = 10.0
    rows = t.aggregate()
    assert rows["outer"]["wall_s"] == 10.0
    assert rows["outer"]["self_s"] == 10.0 - 5.0 - 2.0
    assert rows["mid"]["self_s"] == 5.0 - 3.0
    assert rows["inner"] == {"calls": 2, "wall_s": 5.0, "self_s": 5.0}


def test_covered_merges_overlapping_intervals():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(4, 5), (0, 1)]) == 2
    assert covered([]) == 0


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99.0) == 10
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(100) == 90.0
    assert tail_percentile(10) is None


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_stratified_order_keeps_every_prefix_mixed():
    strata = {"a": list(range(90)), "b": list(range(100, 110))}
    order = stratified_order(strata, random.Random(3))
    assert sorted(order) == sorted(strata["a"] + strata["b"])
    for end in range(10, 101, 10):
        in_b = sum(1 for x in order[:end] if x >= 100)
        assert abs(in_b - end / 10) <= 1


def _small_corpus():
    from ggx import enumeration
    return sorted(gen.instance_of(xm) for xm in enumeration.all_xmod_gg(3))


def _tree(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_generated_inputs_repeat_for_a_seed(tmp_path):
    corpus = _small_corpus()
    for d in ("a", "b", "c"):
        seed = 11 if d != "c" else 12
        gen.write_verify_docs(corpus, seed, str(tmp_path / d), n_instances=8)
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert a == b
    assert a["docs.json"] != c["docs.json"]
    docs = json.loads(a["docs.json"])
    sample = gen.seeded_sample(corpus, 11, 8)
    assert len(docs) == len(gen.fixture_names()) + 6 * len(sample)
    assert {i.size for i in sample} == {i.size for i in corpus}
    assert gen.seeded_order(corpus, 5) == gen.seeded_order(corpus, 5)


def test_mutation_changes_exactly_one_integer():
    doc = {"format_version": 1, "map": [0, 1, 0], "table": [[0, 1], [1, 0]]}
    mutated = gen.mutate(json.loads(json.dumps(doc)), random.Random(4))
    flat = lambda d: d["map"] + d["table"][0] + d["table"][1]  # noqa: E731
    assert mutated["format_version"] == 1
    assert sum(x != y for x, y in zip(flat(doc), flat(mutated))) == 1


def test_tracer_wraps_tables_and_restores_bindings():
    from ggx import cli, enumeration, groups
    originals = {name: getattr(sys.modules[f"ggx.{name.split('.')[0]}"],
                               name.split(".")[1])
                 for name in workloads.TRACED}
    table = cli._VALIDATORS
    table_copy = list(table)
    t = Tracer(workloads.TRACED)
    t.install()
    try:
        assert groups.validate_group is not originals["groups.validate_group"]
        assert cli._VALIDATORS[0][1] is groups.validate_group
        assert sys.modules["ggx"].validate_group is groups.validate_group
        fixture = os.path.join(gen.FIXTURES, "z2-group.json")
        workloads.verify_document(fixture)
        assert len(list(enumeration.all_xmod_gg(2))) == 2
    finally:
        t.restore()
    rows = t.aggregate()
    assert rows["cli.main"]["calls"] == 1
    assert rows["serialize.load_path"]["calls"] == 1
    assert rows["groups.validate_group"]["calls"] >= 1
    assert rows["enumeration.all_xmod_gg"]["calls"] == 1
    assert t.counters["enumeration.all_xmod_gg.yielded"] == 2
    assert t.count_under("enumeration.all_homs",
                         "enumeration.all_xmod_gg") > 0
    for name, fn in originals.items():
        module, attr = name.split(".")
        assert getattr(sys.modules[f"ggx.{module}"], attr) is fn
    assert cli._VALIDATORS is table and table == table_copy
    assert sys.modules["ggx"].validate_group is originals[
        "groups.validate_group"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()



def test_setup_layers_stay_apart_from_pass_layers():
    def step(rows, yielded=0, cm_calls=0):
        return {"trace": {"layers": {name: {"calls": n, "self_s": n / 10,
                                            "wall_s": n / 10}
                                     for name, n in rows.items()},
                          "yielded": yielded, "cm_screen_calls": cm_calls},
                "extra": {}}

    setups = [step({"enumeration.all_homs": 5, "groups.validate_group": 2},
                   yielded=10, cm_calls=40)]
    passes = [step({"groups.validate_group": 3})]
    table, metrics = run._layers(setups, passes)
    assert metrics["groups.validate_group.calls"] == 3
    assert metrics["enumeration.all_homs.calls"] == 0
    assert metrics["setup.enumeration.all_homs.calls"] == 5
    assert metrics["enumeration.cm_accept_ratio"] == 0.0
    assert table["setup.groups.validate_group"]["calls"] == 2
