"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

With --trace 0 the last line holds the end-to-end metrics of an untraced
run; with --trace 1 it holds the per-layer metrics of a traced run.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
CHILD_TIMEOUT_S = 120

CALL_COUNTS = ["core.validate", "dual.dual_hypergroup", "spectra.character_table",
               "_exact.exact_det", "burnside.vanishing_elements"]
SELF_MS = ["core.validate", "core.rescale", "core.normalize", "_exact.exact_det",
           "spectra.character_table", "dual.dual_hypergroup", "dual.double_dual_check",
           "dual.dual_codegrees", "burnside.burnside_report", "structure.adjoint",
           "structure.universal_grading", "structure.central_series",
           "structure.kernel_of_character", "report.analyze", "report.render_structured",
           "galois.galois_orbits", "builders.formats.load"]
RAISED = ["galois.galois_orbits", "galois.check_codegree_conjugation", "core.rescale"]
SETUP_SELF_MS = ["builders.rings.rep_ring", "builders.rings.class_hypergroup",
                 "builders.groups.group_from_generators"]


def _metric(span_name, kind):
    """Metric name of a span name; metric names start with a letter, so
    `_exact.exact_det` reports as `exact.exact_det`."""
    return f"{span_name.lstrip('_')}.{kind}"


def _args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this process, print it and exit")
    return p.parse_args()


def timed_setup(workload, seed, workdir, after_import=None):
    """Import the library and build the workload's inputs; return (seconds, state)."""
    t0 = time.perf_counter()
    import hypergroups  # noqa: F401

    if after_import is not None:
        after_import()
    state = workload.make_inputs(seed, workdir)
    return time.perf_counter() - t0, state


def setup_in_child(workload, seed) -> float:
    """One set-up in a fresh interpreter, so that the import is timed each time."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def measure(workload, state, seconds, on_op=lambda label: None):
    """Whole passes filling about `seconds` on the reference machine.  The count
    does not depend on the speed of the run, so every run does the same work."""
    passes = []
    for _ in range(max(1, round(seconds / workload.nominal_pass_s))):
        gc.collect()
        passes.append(workload.run_pass(state, on_op))
    return passes


def tail(samples):
    """The highest percentile with at least ten samples beyond it; the largest
    sample when there are too few samples for one."""
    s = sorted(samples)
    return s[-11] if len(s) > 10 else s[-1]


def check_passes(workload, state, passes) -> tuple[bool, list[str]]:
    errors = [e for r in passes for e in r.errors]
    first = passes[0].outputs
    for k, r in enumerate(passes[1:], 2):
        for name in sorted(set(first) | set(r.outputs)):
            if first.get(name) != r.outputs.get(name):
                errors.append(f"{name}: output of pass {k} differs from pass 1")
    errors += workload.check(state, first)
    unexpected = [(name, err) for r in passes for name, err in r.failures
                  if err.split(":")[0] not in workload.known_failures]
    for name, err in dict.fromkeys(unexpected):
        print(f"perfbench: {workload.name}: {name} failed: {err}", file=sys.stderr)
    for e in errors:
        print(f"perfbench: {workload.name}: wrong output: {e}", file=sys.stderr)
    return not errors and not unexpected, errors


def run_untraced(workload, args, workdir):
    samples = [setup_in_child(workload, args.seed) for _ in range(workload.setup_repeats - 1)]
    t, state = timed_setup(workload, args.seed, workdir)
    samples.append(t)
    try:
        passes = measure(workload, state, args.seconds)
        correct, _ = check_passes(workload, state, passes)
    finally:
        workload.cleanup(state)
    attempted = sum(r.attempted for r in passes)
    failed = sum(len(r.failures) for r in passes)
    if workload.per_op_samples:
        op_ms = [x for r in passes for x in r.samples_ms]
    else:
        op_ms = [r.wall_s * 1e3 / r.attempted for r in passes]
    # every pass does the same work, so throughput is taken over the median pass
    pass_s = statistics.median(r.wall_s for r in passes)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "rings_per_s": (passes[0].rings_ok / pass_s, "1/s"),
        "types_per_s": (passes[0].attempted / pass_s, "1/s"),
        "ring_ms_p50": (statistics.median(op_ms), "ms"),
        "ring_ms_tail": (tail(op_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"perfbench: {workload.name}: {len(passes)} passes, {len(op_ms)} latency "
          f"samples, setup samples {[round(x, 3) for x in samples]}", file=sys.stderr)
    return correct, attempted, failed, metrics


def run_traced(workload, args, workdir):
    from tracer import Tracer
    from workloads import ENUM_TYPES, type_label

    tracer = Tracer()
    _, state = timed_setup(workload, args.seed, workdir, after_import=tracer.install)
    try:
        tracer.uninstall()
        plain = measure(workload, state, args.seconds / 2)
        tracer.phase = "run"
        tracer.install()
        traced = measure(workload, state, args.seconds / 2, on_op=tracer.set_ring)
        tracer.uninstall()
        correct, _ = check_passes(workload, state, plain + traced)
    finally:
        workload.cleanup(state)
    passes = plain + traced
    ops = sum(r.attempted for r in traced)
    run, setup = tracer.stats("run"), tracer.stats("setup")
    metrics = {}
    for name in CALL_COUNTS:
        metrics[_metric(name, "calls")] = (run[name][0] / ops, "count")
    for name in SELF_MS:
        metrics[_metric(name, "self_ms")] = (run[name][1] * 1e3 / ops, "ms")
    metrics["criteria.self_ms"] = (
        sum(v[1] for k, v in run.items() if k.startswith("criteria.")) * 1e3 / ops, "ms")
    for name in RAISED:
        metrics[_metric(name, "raised")] = (run[name][2] / ops, "count")
    batch_calls = max(run["cli.main"][0], 1)
    metrics["cli.batch.self_s"] = (
        tracer.uncovered("cli.main", {"builders.formats.load", "report.analyze"}, "run")
        / batch_calls, "s")
    for name in SETUP_SELF_MS:
        metrics[_metric(name, "self_ms")] = (setup[name][1] * 1e3, "ms")
    per_type = {}
    for s in tracer.spans:
        if s[7] == "run" and s[2] == "builders.enumeration.enumerate_by_type":
            per_type.setdefault(s[6], []).append(s[4] - s[3])
    found = {}
    if workload.name == "enumerate":
        found = {label: len(json.loads(text)) for label, text in traced[0].outputs.items()}
    for dims in ENUM_TYPES:
        label = type_label(dims)
        times = per_type.get(label)
        metrics[f"builders.enumeration.enumerate_by_type.ms.{label}"] = (
            statistics.mean(times) * 1e3 if times else 0.0, "ms")
        metrics[f"builders.enumeration.rings.{label}"] = (found.get(label, 0), "count")
    plain_op = sum(r.wall_s for r in plain) / sum(r.attempted for r in plain)
    traced_op = sum(r.wall_s for r in traced) / ops
    metrics["trace.overhead"] = (traced_op / plain_op, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))
    attempted = sum(r.attempted for r in passes)
    failed = sum(len(r.failures) for r in passes)
    return correct, attempted, failed, metrics


def main() -> int:
    args = _args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hypergroups", "__init__.py")):
        print("perfbench: src/hypergroups not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            t, state = timed_setup(workload, args.seed, workdir)
            workload.cleanup(state)
            print(json.dumps({"setup_s": t}))
            return 0
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
