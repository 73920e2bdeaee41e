"""Set-up and measured passes of the benchmark's workloads.

``run.py`` starts this file in a fresh interpreter for every set-up and
every pass, so that no cache filled in one pass can serve another:

    python3 perfbench/workloads.py setup --workload W --seed N --dir D --out R
    python3 perfbench/workloads.py pass --workload W --dir D --out R \
        --budget S --min-items K --start I

A set-up imports ``ggx``, builds the workload's inputs and writes them
under ``D``; its time is ``setup_s``.  A pass reads them back and, from
item ``I`` on, runs items until it has measured ``S`` seconds and at least
``K`` items (or has run out of inputs).  It checks every output against
the golden record and writes a JSON summary to ``R``.  With ``--trace`` either step records spans around
the library's public functions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import gen
from tracer import Tracer

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
LARGE_NAMES = ("pair-xmod-z4", "pair-xmod-v4", "pair-xmod-s3")
ENUM_BOUND = 6
_MAX_ERRORS = 5

# The public functions the tracer wraps, relative to the ggx package.
TRACED = (
    "groups.validate_group",
    "groupoids.validate_group_groupoid",
    "xmod.validate_xmod_groups",
    "xmod.validate_xmod_gg",
    "xmod.validate_xmod_gg_morphism",
    "dgg.validate_dgg",
    "dgg.validate_dgg_morphism",
    "xsq.validate_xsq",
    "xsq.validate_xsq_morphism",
    "equiv.theta",
    "equiv.gamma",
    "equiv.delta",
    "equiv.eta",
    "equiv.roundtrip_theta_gamma",
    "equiv.roundtrip_gamma_theta",
    "equiv.roundtrip_eta_delta",
    "equiv.roundtrip_delta_eta",
    "enumeration.all_homs",
    "enumeration.all_actions",
    "enumeration.all_gg_structures",
    "enumeration.all_xmod_gg",
    "serialize.load_path",
    "cli.main",
)


def load_golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# The work of one item


def pipeline(text: str):
    """Parse a crossed module over group-groupoids and run it through the
    full pipeline: validate, theta, validate the double group-groupoid,
    gamma, delta, validate the crossed square, eta, and the four round
    trips.  Returns every verdict and the four functor images."""
    from ggx import dgg, equiv, serialize, xmod, xsq
    xm = serialize.loads(text)
    verdicts = [xmod.validate_xmod_gg(xm).ok]
    d = equiv.theta(xm)
    verdicts.append(dgg.validate_dgg(d).ok)
    g = equiv.gamma(d)
    xs = equiv.delta(xm)
    verdicts.append(xsq.validate_xsq(xs).ok)
    e = equiv.eta(xs)
    verdicts += [equiv.roundtrip_theta_gamma(d).ok,
                 equiv.roundtrip_gamma_theta(xm).ok,
                 equiv.roundtrip_eta_delta(xm).ok,
                 equiv.roundtrip_delta_eta(xs).ok]
    return verdicts, (d, g, xs, e)


def functor_digest(images) -> str:
    """The digest of the canonical documents of the four functor images."""
    from ggx import serialize
    return gen.digest("".join(serialize.dumps(x) for x in images))[:16]


def verify_document(path: str):
    """``ggx verify PATH --json`` in process: the exit code and the printed
    report."""
    from ggx import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", path, "--json"])
    return code, out.getvalue()


def verify_record(code: int, printed: str) -> list:
    """The golden-record fields of a verify outcome: the exit code, axiom,
    where and witness (the message text is left out)."""
    if not printed:
        return [code, None, None, None]
    report = json.loads(printed)
    return [code, report["axiom"], report["where"], report["witness"]]


def enumerate_digest(instances) -> str:
    from ggx import serialize
    return gen.digest("".join(sorted(serialize.dumps(x) for x in instances)))


# ---------------------------------------------------------------------------
# Set-up: build the inputs of a workload


def _setup_corpus_order(seed: int, out_dir: str) -> dict:
    n_enumerated, instances = gen.build_corpus()
    order = gen.seeded_order(instances, seed)
    _write_json(os.path.join(out_dir, "inputs.json"),
                [{"key": i.key, "text": i.text} for i in order])
    return {"n_enumerated": n_enumerated,
            "keys": sorted(i.key for i in instances)}


def _setup_large(seed: int, out_dir: str) -> dict:
    """The three large structures in a fixed order; the seed is ignored,
    because the order alone moves the pass's peak memory by 20 MB."""
    from ggx.catalog import catalog_build
    insts = [gen.instance_of(catalog_build(name)) for name in LARGE_NAMES]
    _write_json(os.path.join(out_dir, "inputs.json"),
                [{"key": i.key, "text": i.text} for i in insts])
    return {"keys": sorted(i.key for i in insts)}


def _setup_enumerate(seed: int, out_dir: str) -> dict:
    """Nothing to build: the set-up is the import alone."""
    return {}


def _setup_verify(seed: int, out_dir: str) -> dict:
    _n, instances = gen.build_corpus()
    docs = gen.write_verify_docs(instances, seed, out_dir)
    return {"n_docs": len(docs)}


def _check_setup(workload: str, facts: dict) -> list[str]:
    """Problems with a set-up's output, checked after its clock stops."""
    problems = []
    if "n_enumerated" in facts:
        frozen = gen.frozen_count(gen.CORPUS_BOUND)
        if facts["n_enumerated"] != frozen:
            problems.append(f"all_xmod_gg({gen.CORPUS_BOUND}) gave "
                            f"{facts['n_enumerated']} instances, frozen "
                            f"count is {frozen}")
    if "keys" in facts:
        golden = load_golden("functors.json")
        missing = [k for k in facts["keys"] if k not in golden]
        if missing:
            problems.append(f"{len(missing)} {workload} instances have no "
                            f"golden record, e.g. {missing[0]}")
    return problems


SETUPS = {
    "sweep-b4": _setup_corpus_order,
    "large-dgg": _setup_large,
    "enumerate-b6": _setup_enumerate,
    "verify-docs": _setup_verify,
}


# ---------------------------------------------------------------------------
# Passes: run and check items


class Pass:
    """Counts, times and failures of one measured pass.  The pass runs
    for ``measured_s`` wall-clock seconds; its timing metrics use the CPU
    time of this process (``cpu_s``, and ``cpu`` per item), which leaves
    out the time the host's hypervisor takes the CPU away, which on a
    shared machine otherwise doubles the time of a few items in a pass."""

    def __init__(self):
        self.items = 0
        self.failed = 0
        self.measured_s = 0.0
        self.cpu_s = 0.0
        self.cpu: list[float] = []
        self.errors: list[str] = []
        self.extra: dict = {}

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(message)

    def run_items(self, units, budget_s: float, min_items: int, start: int,
                  work, check, tracer=None) -> None:
        """Run ``work(unit)`` on the units from ``start`` on until
        ``budget_s`` seconds are measured and ``min_items`` items are done;
        ``check(unit, result)`` returns a problem or None and runs outside
        the clock."""
        wall, cpu = time.perf_counter, time.process_time
        for unit in units[start % len(units):]:
            if self.measured_s >= budget_s and self.items >= min_items:
                break
            span = tracer.span("bench.item") if tracer else \
                contextlib.nullcontext()
            c0 = cpu()
            t0 = wall()
            try:
                with span:
                    result = work(unit)
            except (Exception, SystemExit) as exc:
                result, problem = None, f"{unit['key']}: raised {exc!r}"
            else:
                problem = None
            dt = wall() - t0
            self.cpu.append(cpu() - c0)
            self.cpu_s += self.cpu[-1]
            self.measured_s += dt
            self.items += 1
            if problem is None:
                problem = check(unit, result)
            if problem is not None:
                self.fail(1, problem)


def _pass_functors(in_dir, budget_s, min_items, start, tracer):
    golden = load_golden("functors.json")
    units = _read_json(os.path.join(in_dir, "inputs.json"))

    def check(unit, result):
        verdicts, images = result
        if not all(verdicts):
            return f"{unit['key']}: verdicts {verdicts}"
        got = functor_digest(images)
        if got != golden.get(unit["key"]):
            return f"{unit['key']}: functor digest {got}"
        return None

    p = Pass()
    p.run_items(units, budget_s, min_items, start,
                lambda unit: pipeline(unit["text"]), check, tracer)
    return p


def _pass_large(in_dir, budget_s, min_items, start, tracer):
    """A pass over the large structures always runs all of them."""
    return _pass_functors(in_dir, 0.0, len(LARGE_NAMES), 0, tracer)


def _pass_enumerate(in_dir, budget_s, min_items, start, tracer):
    """One whole ``all_xmod_gg(6)``; an item is an enumerated instance."""
    from ggx import enumeration
    golden = load_golden("enumerate-b6.json")
    p = Pass()
    instances = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for xm in enumeration.all_xmod_gg(ENUM_BOUND):
            instances.append(xm)
    except Exception as exc:
        error = exc
    else:
        error = None
    p.measured_s = time.perf_counter() - t0
    p.cpu_s = time.process_time() - c0
    if error is not None:
        p.items = max(len(instances), golden["count"])
        p.fail(p.items, f"all_xmod_gg({ENUM_BOUND}) raised {error!r}")
        return p
    p.items = len(instances)
    if p.items != golden["count"]:
        p.items = max(p.items, golden["count"])
        p.fail(p.items, f"count {len(instances)} != {golden['count']}")
    elif enumerate_digest(instances) != golden["digest"]:
        p.fail(p.items, "digest of the sorted instances differs")
    return p


def _pass_verify(in_dir, budget_s, min_items, start, tracer):
    golden = load_golden("verify.json")
    units = _read_json(os.path.join(in_dir, "docs.json"))
    codes = {0: 0, 1: 0, 2: 0}

    def expected(key):
        if key.startswith("fixture/"):
            return golden["fixtures"].get(key[len("fixture/"):])
        if key.endswith("-m"):
            return golden["mutations"].get(key)
        return [0, None, "", []]

    def check(unit, result):
        code, printed = result
        codes[code] = codes.get(code, 0) + 1
        got = verify_record(code, printed)
        want = expected(unit["key"])
        return None if got == want else f"{unit['key']}: {got} != {want}"

    p = Pass()
    p.run_items(units, budget_s, min_items, start,
                lambda unit: verify_document(os.path.join(in_dir,
                                                          unit["path"])),
                check, tracer)
    p.extra["exit_codes"] = {str(k): v for k, v in sorted(codes.items())}
    return p


PASSES = {
    "sweep-b4": _pass_functors,
    "large-dgg": _pass_large,
    "enumerate-b6": _pass_enumerate,
    "verify-docs": _pass_verify,
}


# ---------------------------------------------------------------------------
# Entry point of one child process


def _trace_summary(tracer: Tracer) -> dict:
    return {
        "layers": tracer.aggregate(),
        "yielded": tracer.counters.get("enumeration.all_xmod_gg.yielded", 0),
        "cm_screen_calls": tracer.count_under("xmod.validate_xmod_groups",
                                              "enumeration.all_xmod_gg"),
    }


def _environment() -> dict:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one set-up or pass")
    parser.add_argument("step", choices=["setup", "pass"])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-items", type=int, default=0)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    tracer = None
    t0 = time.perf_counter()
    gen.import_ggx()
    if args.trace:
        tracer = Tracer(TRACED)
        tracer.install()
    try:
        if args.step == "setup":
            os.makedirs(args.dir, exist_ok=True)
            facts = SETUPS[args.workload](args.seed, args.dir)
            setup_s = time.perf_counter() - t0
            result = {"setup_s": setup_s,
                      "problems": _check_setup(args.workload, facts)}
        else:
            p = PASSES[args.workload](args.dir, args.budget, args.min_items,
                                      args.start, tracer)
            result = {"items": p.items, "failed": p.failed,
                      "measured_s": p.measured_s, "cpu_s": p.cpu_s,
                      "cpu": p.cpu,
                      "errors": p.errors, "extra": p.extra,
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["trace"] = _trace_summary(tracer)
        if args.spans:
            tracer.dump(args.spans)
    result["environment"] = _environment()
    _write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
