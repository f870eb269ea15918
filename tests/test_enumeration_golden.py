"""Golden digests: enumerated ring lists must not change.

tests/data/enumeration_digests.json holds, for each type below, the SHA-256
of the ring list enumerate_by_type returns: every ring's name, involution and
tensor entries, in order.  A change to the search or to the canonical form
that claims the same output must leave every digest unchanged.  To record the
digests again after a deliberate behaviour change, run
`PYTHONPATH=src python tests/test_enumeration_golden.py` and say in CHANGES.md
why they moved.
"""

import hashlib
import json
import os

from hypergroups.builders import enumerate_by_type

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "enumeration_digests.json")

# the seven types of the benchmark's enumerate workload, [1^7], [1^6, 2^3]
# and [1^4, 2^4], the widest search tree in reach (99,779 nodes)
TYPES = [
    [1] * 6,
    [1] * 6 + [3],
    [1] + [2] * 6,
    [1] * 6 + [2] * 2,
    [1] * 4 + [2] * 2,
    [1] * 4 + [2] * 3,
    [1] * 2 + [2] * 4,
    [1] * 7,
    [1] * 6 + [2] * 3,
    [1] * 4 + [2] * 4,
]


def ring_list_digest(dims) -> str:
    h = hashlib.sha256()
    for ring in enumerate_by_type(dims):
        entries = ",".join(repr(x) for x in ring.tensor.ravel())
        h.update(f"{ring.name}|{list(ring.involution)}|{entries}\n".encode())
    return h.hexdigest()


def label(dims) -> str:
    return "-".join(str(d) for d in dims)


def test_enumerated_ring_lists_match_golden_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    assert sorted(want) == sorted(label(t) for t in TYPES)
    changed = [label(t) for t in TYPES if ring_list_digest(t) != want[label(t)]]
    assert not changed, f"ring lists changed: {changed}"


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({label(t): ring_list_digest(t) for t in TYPES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
