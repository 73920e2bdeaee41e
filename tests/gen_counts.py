"""Regenerate the frozen enumeration counts fixture.

Run from the repository root:  python tests/gen_counts.py

The values are a regression contract: once verified they must never change
for fixed bounds, because the oracles are exhaustive and deterministic.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ggx.enumeration import (all_actions, all_gg_structures, all_homs,
                             all_xmod_gg, all_xmod_groups)
from ggx.groups import (cyclic, klein_four, symmetric_3, trivial_group)

OUT = os.path.join(os.path.dirname(__file__), "fixtures",
                   "enumeration-counts.json")


def main() -> None:
    names = {"z2": cyclic(2), "z3": cyclic(3), "z4": cyclic(4),
             "v4": klein_four(), "s3": symmetric_3(), "1": trivial_group()}
    counts = {"all_homs": {}, "all_actions": {}, "all_xmod_groups": {},
              "all_gg_structures": {}, "all_xmod_gg": {}}
    for a, b in [("z2", "z2"), ("z3", "z2"), ("z2", "z4"), ("z4", "z2"),
                 ("z4", "z4"), ("s3", "s3"), ("v4", "v4"), ("s3", "z2")]:
        counts["all_homs"][f"{a}->{b}"] = len(all_homs(names[a], names[b]))
    for b, a in [("z2", "z3"), ("z3", "z2"), ("z2", "z4"), ("z2", "v4"),
                 ("s3", "z3"), ("v4", "v4")]:
        counts["all_actions"][f"{b} on {a}"] = \
            len(all_actions(names[b], names[a]))
    for a, b in [("z2", "z2"), ("z3", "z2"), ("s3", "1"), ("z4", "z2"),
                 ("v4", "z2"), ("z3", "z3"), ("s3", "z2"), ("s3", "s3")]:
        counts["all_xmod_groups"][f"{a}/{b}"] = \
            len(all_xmod_groups(names[a], names[b]))
    for g, g0 in [("z2", "z2"), ("z4", "z2"), ("z2", "z4"), ("v4", "z2"),
                  ("z4", "z4"), ("v4", "v4"), ("s3", "z2"), ("s3", "z3"),
                  ("s3", "s3")]:
        counts["all_gg_structures"][f"{g}/{g0}"] = \
            len(all_gg_structures(names[g], names[g0]))
    for bound in (2, 3, 4, 6):
        counts["all_xmod_gg"][str(bound)] = sum(1 for _ in all_xmod_gg(bound))

    doc = {
        "_generated_by": "python tests/gen_counts.py  (exhaustive oracle "
                         "run; regression contract: these values never "
                         "change for fixed bounds)",
        "counts": counts,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
