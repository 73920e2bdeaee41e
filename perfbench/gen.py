"""Seeded inputs of the benchmark.

The sweep corpus is the tests' ``corpus`` fixture: every
``all_xmod_gg(4)`` instance plus the catalog crossed modules whose square
group has order at most 64.  Instances are keyed by the SHA-256 of their
canonical document, so a seeded order depends on the set of instances and
not on the order the enumeration yields them in.

The ``verify-docs`` inputs are the manifest fixtures plus, for a seeded
sample of corpus instances, the instance's ``xmod-gg`` document, its
``theta`` (``dgg``) and ``delta`` (``xsq``) documents, and one single-entry
integer mutation of each.  A mutation depends only on the instance and the
document kind, so every one of them has a golden verdict recorded once;
the seed picks the sample and the order.

Run ``python3 perfbench/gen.py --seed N`` to write the ``verify-docs``
inputs of seed ``N`` into ``perfbench/.work/verify-docs-N`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass

from stats import stratified_order

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures")
CORPUS_BOUND = 4
CORPUS_MAX_SQUARE = 64
VERIFY_INSTANCES = 250
# Fields whose integers are not entries of a table or map.
_FIXED_FIELDS = {"format_version"}


def import_ggx():
    """Import ``ggx`` from the source tree of this checkout."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import ggx
    return ggx


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(doc: dict) -> str:
    """The printing rule of ``ggx.serialize.dumps``, for raw documents."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True, order=True)
class Instance:
    key: str        # first 16 hex digits of the document's SHA-256
    size: int       # order of the square group, |G_arrows| * |H_arrows|
    text: str       # canonical xmod-gg document


def frozen_count(bound: int) -> int:
    """The frozen ``all_xmod_gg`` count at ``bound`` from the test suite."""
    with open(os.path.join(FIXTURES, "enumeration-counts.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["counts"]["all_xmod_gg"][str(bound)]


def instance_of(xm) -> Instance:
    from ggx import serialize
    text = serialize.dumps(xm)
    return Instance(digest(text)[:16],
                    xm.g.arrows.order * xm.h.arrows.order, text)


def build_corpus() -> tuple[int, list[Instance]]:
    """The number of ``all_xmod_gg(4)`` instances, and every corpus
    instance sorted by key."""
    from ggx import enumeration
    from ggx.catalog import catalog_build, catalog_names
    from ggx.xmod import XModGG
    items = list(enumeration.all_xmod_gg(CORPUS_BOUND))
    n_enumerated = len(items)
    for name in catalog_names():
        obj = catalog_build(name)
        if isinstance(obj, XModGG) and \
                obj.g.arrows.order * obj.h.arrows.order <= CORPUS_MAX_SQUARE:
            items.append(obj)
    return n_enumerated, sorted(instance_of(xm) for xm in items)


def seeded_order(instances, seed: int) -> list:
    """``instances`` shuffled by ``seed``, stratified by square order so
    that every prefix has close to the corpus's mix of sizes."""
    strata: dict = {}
    for inst in instances:
        strata.setdefault(inst.size, []).append(inst)
    return stratified_order(strata, random.Random(seed))


def seeded_sample(instances, seed: int, n: int) -> list:
    """About ``n`` instances in seeded order, with a fixed number from
    every square order: ``ceil(n * share)`` of each, and all of the
    largest, which set the peak memory of a pass."""
    counts: dict = {}
    for inst in instances:
        counts[inst.size] = counts.get(inst.size, 0) + 1
    quota = {size: math.ceil(c * n / len(instances))
             for size, c in counts.items()}
    quota[max(counts)] = counts[max(counts)]
    out = []
    for inst in seeded_order(instances, seed):
        if quota[inst.size]:
            quota[inst.size] -= 1
            out.append(inst)
    return out


def mutate(doc: dict, rng: random.Random) -> dict:
    """Change one integer entry of a table, map or permutation in ``doc``
    (in place) to another value between 0 and one past the largest entry
    of its row; the out-of-range value makes a parse error."""
    rows = []

    def walk(value):
        if isinstance(value, dict):
            for key in sorted(value):
                if key not in _FIXED_FIELDS:
                    walk(value[key])
        elif isinstance(value, list) and value:
            if all(type(v) is int for v in value):
                rows.append(value)
            else:
                for v in value:
                    walk(v)

    walk(doc)
    cells = [(row, i) for row in rows for i in range(len(row))]
    row, i = rng.choice(cells)
    row[i] = rng.choice([v for v in range(max(row) + 2) if v != row[i]])
    return doc


def derived_documents(inst: Instance) -> dict:
    """Document name suffix -> text: the instance, its theta and delta
    images, and one mutation of each."""
    from ggx import equiv, serialize
    xm = serialize.loads(inst.text)
    clean = {"x": inst.text,
             "t": serialize.dumps(equiv.theta(xm)),
             "d": serialize.dumps(equiv.delta(xm))}
    out = dict(clean)
    for kind, text in clean.items():
        rng = random.Random(f"{inst.key}/{kind}")
        out[f"{kind}-m"] = canonical(mutate(json.loads(text), rng))
    return out


def fixture_names() -> list[str]:
    with open(os.path.join(FIXTURES, "manifest.json"), encoding="utf-8") as fh:
        return [entry["file"] for entry in json.load(fh)["fixtures"]]


def write_verify_docs(instances, seed: int, out_dir: str,
                      n_instances: int = VERIFY_INSTANCES) -> list[dict]:
    """Write the ``verify-docs`` inputs of ``seed`` under ``out_dir`` and
    return them in pass order, each as ``{"path", "key"}`` with ``path``
    relative to ``out_dir``.  The manifest fixtures are copied with every
    file they may reference."""
    os.makedirs(os.path.join(out_dir, "fixtures"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "docs"), exist_ok=True)
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".json"):
            shutil.copyfile(os.path.join(FIXTURES, name),
                            os.path.join(out_dir, "fixtures", name))
    strata: dict = {("fixture", 0): [
        {"path": f"fixtures/{name}", "key": f"fixture/{name}"}
        for name in fixture_names()]}
    for inst in seeded_sample(instances, seed, n_instances):
        for suffix, text in derived_documents(inst).items():
            key = f"{inst.key}-{suffix}"
            rel = f"docs/{key}.json"
            with open(os.path.join(out_dir, rel), "w", encoding="utf-8") as fh:
                fh.write(text)
            strata.setdefault((suffix, inst.size), []).append(
                {"path": rel, "key": key})
    docs = stratified_order(strata, random.Random(seed))
    with open(os.path.join(out_dir, "docs.json"), "w", encoding="utf-8") as fh:
        json.dump(docs, fh, indent=1)
    return docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    out = args.out or os.path.join(REPO_ROOT, "perfbench", ".work",
                                   f"verify-docs-{args.seed}")
    import_ggx()
    _n, instances = build_corpus()
    docs = write_verify_docs(instances, args.seed, out)
    print(f"wrote {len(docs)} documents to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
