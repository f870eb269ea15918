"""Golden digests: structured reports on the corpus must not change.

tests/data/corpus_report_digests.json holds the SHA-256 of
render_structured(analyze(ring, modular_candidate=mc)) for every corpus()
ring, with mc False and True.  A refactor that claims "the same behaviour"
must leave every digest unchanged.  To record the digests again after a
deliberate behaviour change, run `PYTHONPATH=src python tests/test_golden.py`
and say in CHANGES.md why they moved.
"""

import hashlib
import json
import os

from hypergroups.builders import corpus
from hypergroups.report import analyze, render_structured

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "corpus_report_digests.json")


def report_digests() -> dict:
    out = {}
    for ring in corpus():
        for mc in (False, True):
            text = render_structured(analyze(ring, modular_candidate=mc))
            out[f"{ring.name} modular_candidate={mc}"] = hashlib.sha256(
                text.encode()
            ).hexdigest()
    return out


def test_corpus_reports_match_golden_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    got = report_digests()
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, f"reports changed: {changed}"


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(report_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
