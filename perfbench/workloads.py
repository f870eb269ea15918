"""The three workloads: their inputs, one timed pass, and the output checks.

Each workload is driven by one caller in one process (a closed loop).  Only
the standard library is imported at module level, so that the time to import
`hypergroups` and numpy falls inside the measured set-up.  The seed only
permutes the order in which a pass visits its inputs; the inputs themselves
are fixed, so every pass does the same work and fails the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

# near-group batch: the abelian groups of order <= 12 except C11, as cyclic orders
BATCH_GROUPS = [[], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2],
                [9], [3, 3], [10], [12], [2, 6]]
BATCH_M = range(6)
# error classes of the three known faults that fail batch files (F1, F2, F3)
BATCH_KNOWN_FAILURES = {"InvalidRescale", "NoValidPartition", "ConjugationViolation"}

ENUM_TYPES = [[1] * 6, [1] * 6 + [3], [1] + [2] * 6, [1] * 6 + [2] * 2,
              [1] * 4 + [2] * 2, [1] * 4 + [2] * 3, [1] * 2 + [2] * 4]
# counts recorded from enumerate_by_type for the types no group-count fact covers;
# README.md gives the command that recomputes them
ENUM_RECORDED_COUNTS = {"1-2-2-2-2-2-2": 0, "1-1-1-1-1-1-2-2": 0, "1-1-1-1-2-2": 4,
                        "1-1-1-1-2-2-2": 8, "1-1-2-2-2-2": 2}


def type_label(dims) -> str:
    return "-".join(map(str, dims))


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    rings_ok: int = 0  # rings analysed (or, on enumerate, found) without error
    failures: list = field(default_factory=list)  # (input name, "Class: message")
    samples_ms: list = field(default_factory=list)  # per-operation times
    outputs: dict = field(default_factory=dict)  # input name -> output text
    errors: list = field(default_factory=list)  # wrong outputs seen during the pass


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _seeded(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


class Workload:
    name = ""
    setup_repeats = 5
    # wall time of one pass on the reference machine (README.md); a run makes
    # round(seconds / nominal_pass_s) whole passes, at least one
    nominal_pass_s = 1.0
    # True: one latency sample per operation; False: one per pass (mean op time),
    # because a pass mixes inputs of very different cost
    per_op_samples = False
    known_failures: frozenset = frozenset()

    def make_inputs(self, seed: int, workdir: str):
        raise NotImplementedError

    def run_pass(self, state, on_op) -> PassResult:
        """One pass over every input; `on_op(label)` is called before each operation."""
        raise NotImplementedError

    def check(self, state, outputs: dict) -> list[str]:
        raise NotImplementedError

    def cleanup(self, state):
        pass


def _analyze_rings(rings, on_op) -> PassResult:
    from hypergroups.report import analyze, render_structured

    res = PassResult()
    for ring in rings:
        on_op(ring.name)
        t0 = time.perf_counter()
        try:
            text = render_structured(analyze(ring))
        except Exception as exc:  # any failure is reported with its input name
            dt = time.perf_counter() - t0
            res.failures.append((ring.name, _error_text(exc)))
        else:
            dt = time.perf_counter() - t0
            res.outputs[ring.name] = text
            res.rings_ok += 1
        res.wall_s += dt
        res.samples_ms.append(dt * 1e3)
        res.attempted += 1
    return res


def _check_reports(outputs: dict, facts_by_name: dict, pairs) -> list[str]:
    from oracles import check_class_vs_rep, check_facts, report_view

    errs = []
    views = {name: report_view(json.loads(text)) for name, text in outputs.items()}
    for name, view in views.items():
        facts = facts_by_name.get(name)
        if facts is None:
            errs.append(f"{name}: no oracle for this ring")
            continue
        errs += [f"{name}: {e}" for e in check_facts(view, facts)]
    for cl, rep in pairs:
        if cl in views and rep in views:
            errs += [f"{cl}: {e}" for e in check_class_vs_rep(views[cl], views[rep])]
    return errs


class Corpus(Workload):
    """analyze + render_structured on each of the 39 corpus() rings."""

    name = "corpus"
    per_op_samples = True
    nominal_pass_s = 1.5

    def make_inputs(self, seed, workdir):
        from hypergroups.builders import corpus

        return _seeded(corpus(), seed)

    def run_pass(self, rings, on_op):
        return _analyze_rings(rings, on_op)

    def check(self, rings, outputs):
        from hypergroups.builders import CATALOG_GENERATORS
        from oracles import (PermGroup, class_hypergroup_facts, family_facts,
                             near_group_facts, rep_ring_facts)

        facts, pairs = {}, []
        for gname, gens in CATALOG_GENERATORS.items():
            g = PermGroup(gens)
            facts[f"K(Rep({gname}))"] = rep_ring_facts(g)
            facts[f"Cl({gname})"] = class_hypergroup_facts(g)
            pairs.append((f"Cl({gname})", f"K(Rep({gname}))"))
        facts["Ising"] = near_group_facts(2, 0)
        facts["Fibonacci"] = near_group_facts(1, 1)
        facts["K(C3,3)"] = near_group_facts(3, 3)
        facts["Fam(n=2,C2xC2,C3)"] = family_facts(2, 4, 3)
        facts["Fam(n=2,C4,C3)"] = family_facts(2, 4, 3)
        errs = _check_reports(outputs, facts, pairs)
        if len(outputs) != 39:
            errs.append(f"{len(outputs)} corpus reports, want 39")
        return errs


class Enumerate(Workload):
    """enumerate_by_type over a fixed list of types; no analysis."""

    name = "enumerate"
    nominal_pass_s = 4.0

    def make_inputs(self, seed, workdir):
        return _seeded(ENUM_TYPES, seed)

    def run_pass(self, types, on_op):
        from hypergroups.builders import enumerate_by_type

        res = PassResult()
        for dims in types:
            label = type_label(dims)
            on_op(label)
            t0 = time.perf_counter()
            try:
                rings = enumerate_by_type(dims)
            except Exception as exc:
                res.failures.append((label, _error_text(exc)))
            else:
                res.rings_ok += len(rings)
                res.outputs[label] = json.dumps(
                    [[list(r.involution), [int(x) for x in r.tensor.ravel()]] for r in rings]
                )
            res.wall_s += time.perf_counter() - t0
            res.attempted += 1
        return res

    def check(self, types, outputs):
        import numpy as np
        from oracles import check_enumeration, type_count

        errs = []
        for dims in ENUM_TYPES:
            label = type_label(dims)
            if label not in outputs:
                continue
            m = len(dims)
            rings = json.loads(outputs[label])
            tensors = [np.array(t, dtype=np.int64).reshape(m, m, m) for _, t in rings]
            for t, (inv, _) in enumerate(rings):
                ten = tensors[t]
                if [int(np.flatnonzero(ten[i, :, 0])[0]) for i in range(m)] != inv:
                    errs.append(f"{label}: ring {t} involution {inv} disagrees with N_ij^0")
            want = type_count(dims)
            if want is None:
                want = ENUM_RECORDED_COUNTS[label]
            errs += [f"{label}: {e}" for e in check_enumeration(dims, tensors, want)]
        return errs


class Batch(Workload):
    """`hypergroups batch DIR` in-process over near-group rings K(G, m)."""

    name = "batch"
    nominal_pass_s = 12.0
    known_failures = frozenset(BATCH_KNOWN_FAILURES)

    def make_inputs(self, seed, workdir):
        import hypergroups.cli  # noqa: F401  (the batch entry point)
        from hypergroups.builders import dump, near_group

        ring_dir = os.path.join(workdir, "batch-rings")
        os.makedirs(ring_dir)
        params = {}
        cases = [(o, m) for o in BATCH_GROUPS for m in BATCH_M]
        for i, (orders, m) in enumerate(_seeded(cases, seed)):
            ring = near_group(orders, m)
            fname = f"{i:03d}_{ring.name}.json"
            dump(ring, os.path.join(ring_dir, fname))
            params[fname] = (orders, m)
        return ring_dir, params

    def run_pass(self, state, on_op):
        from hypergroups import cli
        from oracles import parse_batch_line

        ring_dir, params = state
        buf = io.StringIO()
        on_op("batch")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["batch", ring_dir])
        res = PassResult(wall_s=time.perf_counter() - t0, attempted=len(params))
        for line in buf.getvalue().splitlines():
            path, out = parse_batch_line(line)
            name = os.path.basename(path)
            if isinstance(out, str):
                res.failures.append((name, out))
            res.outputs[name] = line[len(path):]
        res.rings_ok = res.attempted - len(res.failures)
        if rc != (1 if res.failures else 0):
            res.errors.append(f"batch exit code {rc} with {len(res.failures)} ERROR lines")
        return res

    def check(self, state, outputs):
        from oracles import check_facts, near_group_facts, parse_batch_line

        _, params = state
        errs = []
        if sorted(outputs) != sorted(params):
            errs.append(f"batch printed {len(outputs)} lines for {len(params)} files")
        for name, rest in outputs.items():
            _, view = parse_batch_line(name + rest)
            if isinstance(view, str):
                continue
            orders, m = params[name]
            facts = near_group_facts(math.prod(orders), m)
            facts = {k: facts[k] for k in view}
            errs += [f"{name}: {e}" for e in check_facts(view, facts)]
        return errs

    def cleanup(self, state):
        import shutil

        shutil.rmtree(state[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Corpus(), Enumerate(), Batch())}
