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
import subprocess
import sys

from hypergroups.builders import enumerate_by_type

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "enumeration_digests.json")

# the seven types of the benchmark's enumerate workload, [1^7], [1^6, 2^3],
# [1^4, 2^4] (99,779 nodes), and [1^8] and [1^8, 2^2], the types with the most
# relabelings in reach (R = 5,040 and 10,080)
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
    [1] * 8,
    [1] * 8 + [2] * 2,
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


def test_golden_digests_do_not_depend_on_hash_randomization():
    # the class index keys its entries by Python's bytes hash, which
    # PYTHONHASHSEED changes; a hit counts only once the tensors compare equal,
    # so the ring lists must not change with it
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "..", "src")
    script = (
        "import json, test_enumeration_golden as g; "
        "print(json.dumps({g.label(t): g.ring_list_digest(t) for t in g.TYPES}, sort_keys=True))"
    )
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")]))
        runs.append(subprocess.Popen([sys.executable, "-c", script], env=env, cwd=here,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outs = [run.communicate(timeout=300) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outs]
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    assert [json.loads(out) for out, _ in outs] == [want, want]


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({label(t): ring_list_digest(t) for t in TYPES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
