"""Self-test of the benchmark's checks: each must pass on a real output and
fail on a corrupted copy of it.

Run from the repository root:

    python3 perfbench/selftest.py

Prints one line per case and exits 1 if a corruption goes unnoticed or a
correct output is rejected.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

import numpy as np

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from hypergroups import cli  # noqa: E402
from hypergroups.builders import (CATALOG_GENERATORS, class_hypergroup, dump,  # noqa: E402
                                  enumerate_by_type, group_from_generators, near_group,
                                  rep_ring)
from hypergroups.report import analyze, render_structured  # noqa: E402

import oracles as o  # noqa: E402
from run import check_passes  # noqa: E402
from workloads import PassResult, Workload  # noqa: E402

failures = []


def expect(name, errs, want_errors):
    ok = bool(errs) == want_errors
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {len(errs)} error(s)")
    if not ok:
        failures.append(name)


def view_of(ring):
    return o.report_view(json.loads(render_structured(analyze(ring))))


def corrupt(view, **changes):
    v = copy.deepcopy(view)
    v.update(changes)
    return v


def main() -> int:
    s3 = o.PermGroup(CATALOG_GENERATORS["S3"])
    g3 = group_from_generators(CATALOG_GENERATORS["S3"], "S3")
    rep, cl = view_of(rep_ring(g3)), view_of(class_hypergroup(g3))
    rf, cf = o.rep_ring_facts(s3), o.class_hypergroup_facts(s3)
    expect("K(Rep(S3)) as computed", o.check_facts(rep, rf), False)
    expect("Cl(S3) as computed", o.check_facts(cl, cf), False)
    expect("Cl/K(Rep) duality as computed", o.check_class_vs_rep(cl, rep), False)
    codeg = sorted(rep["codegrees"])
    expect("codegree off by one", o.check_facts(
        corrupt(rep, codegrees=codeg[:-1] + [codeg[-1] + 1]), rf), True)
    expect("FPdim wrong", o.check_facts(corrupt(rep, order=rep["order"] + 1), rf), True)
    expect("FP dims wrong", o.check_facts(
        corrupt(rep, fp_dims=[1.0] * len(rep["fp_dims"])), rf), True)
    expect("Burnside verdict flipped", o.check_facts(corrupt(rep, is_burnside=False), rf), True)
    expect("grading order wrong", o.check_facts(corrupt(rep, grading_order=2), rf), True)
    expect("nilpotent S3", o.check_facts(corrupt(rep, nilpotency_class=2), rf), True)
    expect("Cl grading order wrong", o.check_facts(corrupt(cl, grading_order=1), cf), True)
    expect("Cl/K(Rep) duality broken", o.check_class_vs_rep(
        corrupt(cl, is_burnside=not cl["is_burnside"]), rep), True)

    d4 = o.PermGroup(CATALOG_GENERATORS["D4"])
    gd4 = group_from_generators(CATALOG_GENERATORS["D4"], "D4")
    rep_d4, d4f = view_of(rep_ring(gd4)), o.rep_ring_facts(d4)
    expect("K(Rep(D4)) as computed", o.check_facts(rep_d4, d4f), False)
    expect("D4 class wrong", o.check_facts(corrupt(rep_d4, nilpotency_class=1), d4f), True)
    expect("D4 dual-Burnside flipped", o.check_facts(
        corrupt(rep_d4, is_dual_burnside=False), d4f), True)

    a4 = CATALOG_GENERATORS["C2xC2"]
    za, zf = view_of(rep_ring(group_from_generators(a4, "C2xC2"))), o.rep_ring_facts(o.PermGroup(a4))
    expect("K(Rep(C2xC2)) as computed", o.check_facts(za, zf), False)
    expect("Z[A] invariant factors", o.check_facts(
        corrupt(za, invariant_factors=[4]), zf), True)
    expect("Z[A] FP dim", o.check_facts(corrupt(za, fp_dims=[1.0, 1.0, 1.0, 2.0]), zf), True)
    expect("Z[A] nilpotency", o.check_facts(corrupt(za, nilpotency_class=None), zf), True)

    ising, nf = view_of(near_group([2], 0)), o.near_group_facts(2, 0)
    expect("K(C2,0) as computed", o.check_facts(ising, nf), False)
    expect("near-group d wrong", o.check_facts(
        corrupt(ising, fp_dims=[1.0, 1.0, 1.5]), nf), True)

    out = os.path.join(ROOT, ".perfbench-out", f"selftest-{os.getpid()}")
    os.makedirs(out)
    try:
        for m in (0, 1):
            dump(near_group([3], m), os.path.join(out, f"K(C3,{m}).json"))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["batch", out])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in buf.getvalue().splitlines():
        _, view = o.parse_batch_line(line)
        if isinstance(view, str):
            continue
        m = 0 if "K(C3,0)" in line else 1
        facts = {k: v for k, v in o.near_group_facts(3, m).items() if k in view}
        expect(f"batch line m={m} as computed", o.check_facts(view, facts), False)
        for key, bad in (("rank", view["rank"] + 1), ("is_burnside", not view["is_burnside"]),
                         ("is_dual_burnside", not view["is_dual_burnside"]),
                         ("nilpotency_class", 2 if view["nilpotency_class"] is None else None)):
            expect(f"batch line m={m} {key}", o.check_facts(
                corrupt(view, **{key: bad}), facts), True)

    dims = [1, 1, 1, 1, 2, 2]
    tensors = [np.array(r.tensor, dtype=np.int64) for r in enumerate_by_type(dims)]
    expect("[1^4,2^2] as computed", o.check_enumeration(dims, tensors, 4), False)
    bad = [t.copy() for t in tensors]
    bad[0][4, 4, 5] += 1
    bad[0][4, 5, 4] += 1
    expect("non-associative ring", o.check_enumeration(dims, bad, 4), True)
    p = [0, 2, 1, 3, 4, 5]
    twin = tensors[:3] + [tensors[1][np.ix_(p, p, p)]]
    expect("relabeled duplicate", o.check_enumeration(dims, twin, 4), True)
    expect("wrong FP dims", o.check_enumeration([1, 1, 1, 1, 2, 3], tensors, 4), True)
    expect("wrong ring count", o.check_enumeration(dims, tensors[:3], 4), True)
    expect("[1^6] count is groups of order 6", [] if o.type_count([1] * 6) == 2 else ["x"], False)
    expect("[1^6,3] count is groups of order 6", [] if o.type_count([1] * 6 + [3]) == 2 else ["x"], False)

    class Stub(Workload):
        name = "stub"
        known_failures = frozenset({"InvalidRescale"})

        def check(self, state, outputs):
            return []

    same = [PassResult(outputs={"a": "x"}), PassResult(outputs={"a": "x"})]
    expect("identical passes", check_passes(Stub(), None, same)[1], False)
    differ = [PassResult(outputs={"a": "x"}), PassResult(outputs={"a": "y"})]
    expect("pass output differs", check_passes(Stub(), None, differ)[1], True)
    known = [PassResult(failures=[("f", "InvalidRescale: alpha_0 must be 1")])]
    expect("known failure class", [] if check_passes(Stub(), None, known)[0] else ["x"], False)
    other = [PassResult(failures=[("f", "AxiomViolation: associativity")])]
    expect("unknown failure class", [] if check_passes(Stub(), None, other)[0] else ["x"], True)

    print(f"{len(failures)} check(s) misbehaved" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
