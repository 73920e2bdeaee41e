"""Record the golden outputs the benchmark checks every pass against.

    python3 perfbench/record_golden.py

* ``golden/functors.json``: for every sweep-corpus instance and the three
  large crossed modules, the digest of the canonical documents of its
  theta, gamma, delta and eta images.  Every verdict of the pipeline must
  be valid and every round trip an isomorphism, or recording stops.
* ``golden/enumerate-b6.json``: the number of ``all_xmod_gg(6)`` instances
  and the digest of their sorted canonical documents.
* ``golden/verify.json``: the exit code, axiom, where and witness of
  ``ggx verify --json`` on every manifest fixture and on every mutation
  :mod:`gen` can draw; the verdict mix of the mutations goes with it.

Re-record only when a change to ``ggx`` is meant to change these outputs,
and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import Counter

import gen
import workloads

WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work",
                    "record")


def _write(name: str, value: dict) -> None:
    """One top-level entry per line, so that re-recording diffs well."""
    lines = []
    for key in sorted(value):
        inner = value[key]
        if isinstance(inner, dict) and len(inner) > 8:
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(inner[k])}"
                              for k in sorted(inner))
            lines.append(f"{json.dumps(key)}: {{\n{body}\n}}")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(inner)}")
    with open(os.path.join(workloads.GOLDEN_DIR, name), "w",
              encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def record_functors(instances) -> None:
    from ggx.catalog import catalog_build
    large = [gen.instance_of(catalog_build(n)) for n in workloads.LARGE_NAMES]
    digests = {}
    for inst in list(instances) + large:
        verdicts, images = workloads.pipeline(inst.text)
        if not all(verdicts):
            raise SystemExit(f"{inst.key}: pipeline verdicts {verdicts}")
        digests[inst.key] = workloads.functor_digest(images)
    _write("functors.json", digests)
    print(f"functors: {len(digests)} instances")


def record_enumerate() -> None:
    from ggx import enumeration
    instances = list(enumeration.all_xmod_gg(workloads.ENUM_BOUND))
    _write("enumerate-b6.json",
           {"bound": workloads.ENUM_BOUND, "count": len(instances),
            "digest": workloads.enumerate_digest(instances)})
    print(f"enumerate-b6: {len(instances)} instances")


def record_verify(instances) -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        fixtures = {}
        for name in sorted(os.listdir(gen.FIXTURES)):
            if name.endswith(".json"):
                shutil.copyfile(os.path.join(gen.FIXTURES, name),
                                os.path.join(WORK, name))
        for name in gen.fixture_names():
            fixtures[name] = workloads.verify_record(
                *workloads.verify_document(os.path.join(WORK, name)))
        mutations = {}
        path = os.path.join(WORK, "doc.json")
        for inst in instances:
            for suffix, text in gen.derived_documents(inst).items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                record = workloads.verify_record(
                    *workloads.verify_document(path))
                if suffix.endswith("-m"):
                    mutations[f"{inst.key}-{suffix}"] = record
                elif record != [0, None, "", []]:
                    raise SystemExit(f"{inst.key}-{suffix}: {record}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    mix = Counter({0: "valid", 1: "invalid", 2: "parse_error"}[r[0]]
                  for r in mutations.values())
    _write("verify.json", {"fixtures": fixtures, "mutations": mutations,
                           "mutation_mix": dict(sorted(mix.items()))})
    print(f"verify: {len(fixtures)} fixtures, {len(mutations)} mutations, "
          f"mix {dict(mix)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    gen.import_ggx()
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    _n, instances = gen.build_corpus()
    record_functors(instances)
    record_enumerate()
    record_verify(instances)
    return 0


if __name__ == "__main__":
    sys.exit(main())
