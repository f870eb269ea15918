"""Golden digests: structured reports on the corpus must not change.

tests/data/corpus_report_digests.json holds the SHA-256 of
render_structured(analyze(ring, modular_candidate=mc)) for every corpus()
ring, with mc False and True.  tests/data/corpus_variant_digests.json holds
the same digest (mc True) for three more variants of each ring: solver seed 7,
Tolerance(1e-8, 1e-8), and a copy of the ring with a float tensor; where a
variant raises, it holds the error class instead.
tests/data/near_group_report_digests.json holds the digest of
render_structured(analyze(ring)) for the 96 near-group rings K(G, m), G an
abelian group of order <= 12 other than C11 and 0 <= m <= 5, or the digest of
"Class: message" where the analysis raises.  A refactor that claims "the same
behaviour" must leave every digest unchanged.  To record the digests
again after a deliberate behaviour change, run
`PYTHONPATH=src python tests/test_golden.py`, which prints the keys whose
digest changed, and say in CHANGES.md why they moved.
"""

import hashlib
import json
import os

from hypergroups.builders import corpus, near_group
from hypergroups.core import FusionData
from hypergroups.errors import HypergroupError
from hypergroups.report import analyze, render_structured
from hypergroups.tolerance import Tolerance

DATA = os.path.join(os.path.dirname(__file__), "data")
DIGESTS = os.path.join(DATA, "corpus_report_digests.json")
VARIANT_DIGESTS = os.path.join(DATA, "corpus_variant_digests.json")
NEAR_GROUP_DIGESTS = os.path.join(DATA, "near_group_report_digests.json")

# the abelian groups of order <= 12 except C11, as cyclic orders
NEAR_GROUPS = [[], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2],
               [9], [3, 3], [10], [12], [2, 6]]

VARIANTS = {
    "seed=7": lambda ring: (ring, {"seed": 7}),
    "tol=1e-8": lambda ring: (ring, {"tol": Tolerance(abs=1e-8, rel=1e-8)}),
    "float": lambda ring: (
        FusionData(ring.name + "/float", ring.involution, ring.float_tensor()),
        {},
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(ring, **kwargs) -> str:
    return _sha(render_structured(analyze(ring, **kwargs)))


def report_digests() -> dict:
    out = {}
    for ring in corpus():
        for mc in (False, True):
            out[f"{ring.name} modular_candidate={mc}"] = _digest(
                ring, modular_candidate=mc
            )
    return out


def variant_digests() -> dict:
    out = {}
    for ring in corpus():
        for label, make in VARIANTS.items():
            variant, kwargs = make(ring)
            try:
                out[f"{ring.name} {label}"] = _digest(
                    variant, modular_candidate=True, **kwargs
                )
            except HypergroupError as exc:
                out[f"{ring.name} {label}"] = f"error: {type(exc).__name__}"
    return out


def near_group_digests() -> dict:
    out = {}
    for orders in NEAR_GROUPS:
        for m in range(6):
            ring = near_group(orders, m)
            try:
                out[ring.name] = _digest(ring)
            except HypergroupError as exc:
                out[ring.name] = _sha(f"{type(exc).__name__}: {exc}")
    return out


def _compare(path: str, got: dict):
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, f"reports changed: {changed}"


def test_corpus_reports_match_golden_digests():
    _compare(DIGESTS, report_digests())


def test_variant_reports_match_golden_digests():
    _compare(VARIANT_DIGESTS, variant_digests())


def test_near_group_reports_match_golden_digests():
    _compare(NEAR_GROUP_DIGESTS, near_group_digests())


if __name__ == "__main__":
    for path, digests in (
        (DIGESTS, report_digests),
        (VARIANT_DIGESTS, variant_digests),
        (NEAR_GROUP_DIGESTS, near_group_digests),
    ):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        new = digests()
        for key in sorted(new):
            if old.get(key) != new[key]:
                print(f"{os.path.basename(path)}: {key}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(new, fh, indent=1, sort_keys=True)
            fh.write("\n")
