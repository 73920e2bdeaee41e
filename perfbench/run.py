"""The ggx benchmark: four closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Workloads (see README.md for why each one is there):

* ``sweep-b4``: the bound-4 corpus, each instance through the full
  validate / functor / round-trip pipeline, in seeded order.
* ``large-dgg``: the same pipeline over the three catalog crossed modules
  whose double group-groupoids have 256, 256 and 324 squares.
* ``enumerate-b6``: one exhaustive ``all_xmod_gg(6)`` per pass.
* ``verify-docs``: ``ggx verify --json`` in process over the manifest
  fixtures and seeded corpus documents and mutations.

Every set-up and every pass runs in a fresh interpreter, with numpy's
thread pools pinned to one thread.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the pass does a fixed amount of work under the span tracer
and the JSON object has the per-layer metrics.  ``--workload all`` runs
every workload both ways and prints the metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

from stats import percentile, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(HERE, ".results")

WORKLOADS = ("sweep-b4", "large-dgg", "enumerate-b6", "verify-docs")
# Workloads whose passes stop after any item; the others always finish a
# pass, so that every run does whole passes over the same inputs.
ITEM_WORKLOADS = ("sweep-b4", "verify-docs")
SETUP_REPEATS = 3
# Set-ups that only import ggx or build three structures take a fraction
# of a second, so more of them go into the median.
CHEAP_SETUP_REPEATS = 5
# p99 has ten samples beyond it from 1000 samples on.
MIN_ITEMS = 1000
# items_per_s of an item workload is the median rate of this many equal
# slices of its items, which a burst of load from outside barely moves.
SLICES = 10
TRACE_ITEMS = 1000
RUN_DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"),
              ("item_p50_ms", "ms"), ("item_p99_ms", "ms"),
              ("peak_rss_mb", "MB"))
LAYERS = (
    ("groups.validate_group", ("calls", "self_s")),
    ("groupoids.validate_group_groupoid", ("calls", "self_s")),
    ("dgg.validate_dgg", ("calls", "self_s")),
    ("dgg.validate_dgg_morphism", ("self_s",)),
    ("xmod.validate_xmod_gg", ("calls", "self_s")),
    ("xmod.validate_xmod_gg_morphism", ("self_s",)),
    ("xsq.validate_xsq", ("calls", "self_s")),
    ("xsq.validate_xsq_morphism", ("self_s",)),
    ("equiv.theta", ("self_s",)),
    ("equiv.gamma", ("self_s",)),
    ("equiv.delta", ("self_s",)),
    ("equiv.eta", ("self_s",)),
    ("equiv.roundtrip_gamma_theta", ("self_s",)),
    ("equiv.roundtrip_theta_gamma", ("self_s",)),
    ("equiv.roundtrip_eta_delta", ("self_s",)),
    ("equiv.roundtrip_delta_eta", ("self_s",)),
    ("enumeration.all_homs", ("calls", "self_s")),
    ("enumeration.all_actions", ("calls", "self_s")),
    ("enumeration.all_gg_structures", ("self_s",)),
    ("enumeration.all_xmod_gg", ("self_s",)),
    ("xmod.validate_xmod_groups", ("calls", "self_s")),
    ("serialize.load_path", ("self_s",)),
    ("cli.main", ("self_s",)),
)
# What ``setup_s`` pays for enumeration on sweep-b4 and verify-docs.
SETUP_LAYERS = (
    ("setup.enumeration.all_homs", ("calls", "self_s")),
    ("setup.enumeration.all_actions", ("self_s",)),
    ("setup.enumeration.all_gg_structures", ("self_s",)),
    ("setup.enumeration.all_xmod_gg", ("self_s",)),
    ("setup.xmod.validate_xmod_groups", ("calls", "self_s")),
)
RATIOS = ("enumeration.cm_accept_ratio", "verify.invalid_share",
          "verify.parse_error_share")
_UNITS = {"calls": "count", "self_s": "s"}


def per_layer_units() -> dict:
    units = {f"{layer}.{field}": _UNITS[field]
             for layer, fields in LAYERS + SETUP_LAYERS for field in fields}
    units.update({name: "ratio" for name in RATIOS})
    return units


class HarnessError(Exception):
    """A set-up or pass could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes


def _child(step: str, workload: str, directory: str, deadline: float,
           args: list) -> dict:
    out = directory + f".{step}.json"
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), step,
           "--workload", workload, "--dir", directory, "--out", out] + args
    env = dict(os.environ, **THREAD_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError(f"out of time before {step} of {workload}")
    try:
        proc = subprocess.run(cmd, env=env, timeout=remaining,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{step} of {workload} ran out of time") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise HarnessError(f"{step} of {workload} exited with "
                           f"{proc.returncode}:\n{tail}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _check_tree() -> None:
    for rel in ("src/ggx/__init__.py", "tests/fixtures/manifest.json",
                "tests/fixtures/enumeration-counts.json"):
        if not os.path.isfile(os.path.join(REPO_ROOT, rel)):
            raise HarnessError(f"{rel} is missing; run from a full checkout")


# ---------------------------------------------------------------------------
# One run of one workload


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    tag = f"{workload}-s{seed}-t{int(trace)}"
    work = os.path.join(WORK_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    spans = []

    def trace_args(step):
        if not trace:
            return []
        os.makedirs(RESULTS_DIR, exist_ok=True)
        # One span file per workload and step; a later run replaces it.
        spans.append(os.path.join(RESULTS_DIR, f"{workload}-spans-{step}.json"))
        return ["--trace", "--spans", spans[-1]]

    min_items = MIN_ITEMS if workload in ITEM_WORKLOADS else 0
    setups, passes = [], []
    measured = items = 0

    def run_pass(in_dir, budget, need):
        nonlocal measured, items
        if passes and measured >= budget and items >= need:
            return
        res = _child("pass", workload, in_dir, deadline,
                     ["--budget", repr(max(0.0, budget - measured)),
                      "--min-items", str(max(0, need - items)),
                      "--start", str(items)] + trace_args("pass"))
        if res["items"] == 0:
            raise HarnessError(f"a pass of {workload} ran no items")
        passes.append(res)
        measured += res["measured_s"]
        items += res["items"]

    try:
        repeats = 1 if trace else \
            SETUP_REPEATS if min_items else CHEAP_SETUP_REPEATS
        for r in range(repeats):
            in_dir = os.path.join(work, str(r))
            setups.append(_child("setup", workload, in_dir, deadline,
                                 ["--seed", str(seed)] + trace_args("setup")))
            # Measuring after every set-up spreads an item workload's
            # measurement over the whole run, so that a minute-scale swing
            # in the speed of a shared host moves fewer of its slices.
            if min_items and not trace:
                share = (r + 1) / repeats
                run_pass(in_dir, seconds * share, math.ceil(min_items * share))
        if trace:
            run_pass(in_dir, 0.0, TRACE_ITEMS if min_items else 0)
        while not trace and (measured < seconds or items < min_items):
            run_pass(in_dir, seconds, min_items)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, trace, setups, passes, spans)


def summarize(workload, seed, trace, setups, passes, spans) -> dict:
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for s in setups for msg in s["problems"]]
    if problems:
        failed = attempted
    errors = problems + [e for p in passes for e in p["errors"]]
    cpu = [x for p in passes for x in p["cpu"]]
    if workload in ITEM_WORKLOADS:
        p50, p99 = percentile(cpu, 50) * 1e3, percentile(cpu, 99) * 1e3
    else:
        # No latency distribution: both read the mean CPU time per item.
        p50 = p99 = sum(p["cpu_s"] for p in passes) / attempted * 1e3
    e2e = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "items_per_s": median(slice_rates(workload, passes, cpu)),
        "item_p50_ms": p50,
        "item_p99_ms": p99,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "errors": errors[:10], "end_to_end": e2e,
        "samples": len(cpu), "tail_percentile": tail_percentile(len(cpu)),
        "passes": len(passes), "setups": len(setups),
        "extra": [p["extra"] for p in passes],
        "environment": passes[0]["environment"], "spans": spans,
    }
    if trace:
        result["layers"], result["per_layer"] = _layers(setups, passes)
    return result


def slice_rates(workload, passes, cpu) -> list[float]:
    """Items per CPU second of each slice of a run: ten equal runs of
    consecutive items for an item workload, each pass otherwise."""
    if workload not in ITEM_WORKLOADS:
        return [p["items"] / p["cpu_s"] for p in passes]
    size = len(cpu) // SLICES
    return [size / sum(cpu[i * size:(i + 1) * size]) for i in range(SLICES)]


def _merge(steps, prefix: str, table: dict) -> None:
    for step in steps:
        for name, row in step["trace"]["layers"].items():
            acc = table.setdefault(prefix + name, {"calls": 0, "self_s": 0.0,
                                                   "wall_s": 0.0})
            for field in acc:
                acc[field] += row[field]


def _layers(setups, passes) -> tuple[dict, dict]:
    """Merge the traces of a run into a table of every traced function,
    the set-up's rows prefixed with ``setup.``, and the per-layer metrics.
    Only the ``setup.`` metrics come from the set-up; the others, and the
    ratios, come from the pass alone."""
    table: dict = {}
    _merge(setups, "setup.", table)
    _merge(passes, "", table)
    metrics = {}
    for layer, fields in LAYERS + SETUP_LAYERS:
        for field in fields:
            metrics[f"{layer}.{field}"] = table.get(layer, {}).get(field, 0)
    yielded = sum(p["trace"]["yielded"] for p in passes)
    cm_calls = sum(p["trace"]["cm_screen_calls"] for p in passes)
    metrics["enumeration.cm_accept_ratio"] = \
        yielded / cm_calls if cm_calls else 0.0
    codes: dict = {}
    for p in passes:
        for code, n in p["extra"].get("exit_codes", {}).items():
            codes[code] = codes.get(code, 0) + n
    docs = sum(codes.values())
    metrics["verify.invalid_share"] = codes.get("1", 0) / docs if docs else 0.0
    metrics["verify.parse_error_share"] = \
        codes.get("2", 0) / docs if docs else 0.0
    return table, metrics


# ---------------------------------------------------------------------------
# Reporting


def provenance(seed: int, results) -> dict:
    commit = None
    if os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        proc = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    src = os.path.join(REPO_ROOT, "src", "ggx")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    env = results[0]["environment"]
    return {
        "commit": commit, "source_sha256": h.hexdigest(),
        "python": env["python"], "numpy": env["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV, "seed": seed,
        "runs": [{"workload": r["workload"], "trace": r["trace"],
                  "setups": r["setups"], "passes": r["passes"]}
                 for r in results],
    }


def describe(result: dict) -> list[str]:
    e2e = result["end_to_end"]
    n = result["samples"]
    tail = result["tail_percentile"]
    if result["workload"] not in ITEM_WORKLOADS:
        p50_note = p99_note = ("mean CPU time per item; this workload has "
                               "no latency distribution")
    else:
        p50_note = f"n={n}"
        p99_note = f"n={n}; " + (
            f"p{tail:g} is the highest percentile with ten samples beyond it"
            if tail else "too few samples for a tail percentile")
    lines = [f"{result['workload']} seed {result['seed']} trace "
             f"{result['trace']}: {result['attempted']} items in "
             f"{result['passes']} pass(es), {result['setups']} set-up(s)"]
    if not result["trace"]:
        lines.append(f"  setup_s      {e2e['setup_s']:10.4f} s    "
                     f"median of {result['setups']} set-ups")
    lines += [
        f"  items_per_s  {e2e['items_per_s']:10.4f} 1/s  per CPU second",
        f"  item_p50_ms  {e2e['item_p50_ms']:10.4f} ms   {p50_note}",
        f"  item_p99_ms  {e2e['item_p99_ms']:10.4f} ms   {p99_note}",
        f"  peak_rss_mb  {e2e['peak_rss_mb']:10.4f} MB",
        f"  failed_ratio {result['failed'] / result['attempted']:10.4f}"
        f"      {result['failed']}/{result['attempted']}",
    ]
    if result["trace"]:
        lines.append(f"  {'layer':44s} {'calls':>8s} {'self_s':>10s} "
                     f"{'wall_s':>10s}")
        for name, row in sorted(result["layers"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:44s} {row['calls']:8d} "
                         f"{row['self_s']:10.4f} {row['wall_s']:10.4f}")
        for name in RATIOS:
            lines.append(f"  {name:44s} {result['per_layer'][name]:.4f}")
    lines += [f"  error: {e}" for e in result["errors"]]
    return lines


def metrics_of(result: dict) -> dict:
    if result["trace"]:
        units = per_layer_units()
        return {name: {"value": value, "unit": units[name]}
                for name, value in result["per_layer"].items()}
    units = dict(END_TO_END)
    return {name: {"value": value, "unit": units[name]}
            for name, value in result["end_to_end"].items()}


def _save(name: str, value: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=1)


def run_all(seed: int, seconds: float) -> tuple[dict, list]:
    results = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed, seconds, trace)
            results.append(result)
            print("\n".join(describe(result)), flush=True)
    print("tracing overhead (traced vs untraced items_per_s):")
    for plain, traced in zip(results[::2], results[1::2]):
        a = plain["end_to_end"]["items_per_s"]
        b = traced["end_to_end"]["items_per_s"]
        print(f"  {plain['workload']:13s} {a:10.4f} {b:10.4f} 1/s  "
              f"overhead {1 - b / a:6.1%}")
    metrics = {f"{r['workload']}.{k}": v for r in results
               for k, v in metrics_of(r).items()}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run one benchmark workload, or all of them")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_tree()
        if args.workload == "all":
            line, results = run_all(args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            print("\n".join(describe(result)))
            results = [result]
            line = {"correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": metrics_of(result)}
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    prov = provenance(args.seed, results)
    _save(f"{args.workload}-s{args.seed}-t{args.trace}.json",
          {"provenance": prov, "results": results, "line": line})
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
