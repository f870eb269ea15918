"""Command-line front door.

Exit codes: 0 success, 1 batch-level or I/O errors, 2 axiom/domain violations,
3 numeric failures (exact/float cross-checks or verification residuals).
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import os
import sys

from .builders import (
    abelian_group,
    dump,
    enumerate_by_type,
    family_ring,
    fibonacci,
    group_ring,
    ising,
    load,
    near_group,
    parse_group,
    rep_ring,
    serialize,
    class_hypergroup,
)
from .analysis import RingAnalysis
from .core import FusionData
from .criteria import modular_prime_support, squarefree_factor_test
from .errors import HypergroupError, InvalidOrders, InvalidType, NumericFailure
from .report import analyze, render_structured, render_text
from .structure import SubHypergroup, quotient
from .tolerance import DEFAULT_TOL, Tolerance

__all__ = ["main"]


def _seed(text: str) -> int:
    """A solver seed: a non-negative int, which numpy's default_rng requires."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed {seed} is negative")
    return seed


def _solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--tol-abs", type=float, default=DEFAULT_TOL.abs, help="absolute tolerance")
    p.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.rel, help="relative tolerance")
    p.add_argument("--seed", type=_seed, default=0, help="seed for the spectral solver (>= 0)")


def _analysis_flags(p: argparse.ArgumentParser):
    _solver_flags(p)
    p.add_argument(
        "--exact-only",
        action="store_true",
        help="fail instead of analyzing floating tensors",
    )
    p.add_argument(
        "--modular-candidate",
        action="store_true",
        help="assert modular candidacy: run the modular-only exclusion tests",
    )


def _tol(args) -> Tolerance:
    return Tolerance(abs=args.tol_abs, rel=args.tol_rel)


def _write_ring(ring: FusionData, out: str | None):
    if out:
        dump(ring, out)
        print(out)
    else:
        sys.stdout.write(serialize(ring))


def _cmd_analyze(args) -> int:
    tol = _tol(args)
    report = analyze(
        load(args.path, tol),
        tol=tol,
        seed=args.seed,
        exact_only=args.exact_only,
        modular_candidate=args.modular_candidate,
    )
    if args.format == "structured":
        sys.stdout.write(render_structured(report))
    else:
        sys.stdout.write(render_text(report))
    return 0


def _cmd_group(args) -> int:
    g = parse_group(args.generators, name=args.name)
    print(f"group {g.name}: order {g.order}, classes {len(g.conjugacy_classes())}", file=sys.stderr)
    if args.kind == "rep":
        ring = rep_ring(g, tol=_tol(args), seed=args.seed)
    elif args.kind == "class":
        ring = class_hypergroup(g)
    else:
        ring = group_ring(g)
    _write_ring(ring, args.out)
    return 0


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidOrders(f"{what} {text!r} is not an integer") from None


def _parse_orders(text: str) -> list[int]:
    text = text.strip()
    if not text or text in ("1", "C1", "c1"):
        return []
    return [_parse_int(t, "cyclic order") for t in text.replace("x", ",").split(",") if t]


def _cmd_generate(args) -> int:
    kind = args.family
    if kind == "near-group":
        if len(args.params) != 2:
            raise HypergroupError("near-group needs: ORDERS M")
        ring = near_group(_parse_orders(args.params[0]), _parse_int(args.params[1], "M"))
    elif kind == "family":
        if len(args.params) != 3:
            raise HypergroupError("family needs: N G_ORDERS K_ORDERS")
        n = _parse_int(args.params[0], "N")
        ring = family_ring(
            n, _parse_orders(args.params[1]), abelian_group(_parse_orders(args.params[2]))
        )
    elif kind == "group-ring":
        if len(args.params) != 1:
            raise HypergroupError("group-ring needs: ORDERS")
        ring = group_ring(abelian_group(_parse_orders(args.params[0])))
    elif kind == "ising":
        ring = ising()
    elif kind == "fibonacci":
        ring = fibonacci()
    else:
        raise HypergroupError(f"unknown family {kind!r}")
    _write_ring(ring, args.out)
    return 0


def _cmd_dual(args) -> int:
    tol = _tol(args)
    data = load(args.path, tol)
    _write_ring(RingAnalysis(data, tol, args.seed).dual.data, args.out)
    return 0


def _cmd_quotient(args) -> int:
    tol = _tol(args)
    data = load(args.path, tol)
    try:
        indices = tuple(int(t) for t in args.sub.split(","))
    except ValueError:
        raise HypergroupError(
            f"--sub {args.sub!r} is not a comma-separated list of integers"
        ) from None
    sub = SubHypergroup(indices, data)
    q, classes = quotient(RingAnalysis(data, tol, args.seed), sub)
    print(f"classes: {[list(c) for c in classes]}", file=sys.stderr)
    _write_ring(q, args.out)
    return 0


def _cmd_enumerate(args) -> int:
    try:
        dims = [int(t) for t in args.type.split(",")]
    except ValueError:
        raise InvalidType(f"type {args.type!r} is not a comma-separated list of integers") from None
    rings = enumerate_by_type(dims, budget=args.budget)
    tol = _tol(args)
    excluded = 0
    for idx, ring in enumerate(rings):
        path = None
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"type{'-'.join(map(str, dims))}_{idx}.json")
            dump(ring, path)
        loc = f" -> {path}" if path else ""
        a = RingAnalysis(ring, tol, args.seed)
        if not a.flags.abelian:
            print(f"[{idx}] {ring.name}: not screened (non-commutative){loc}")
            continue
        v1 = modular_prime_support(a)
        v2 = squarefree_factor_test(a)
        out = v1 if v1.excluded else v2
        if out.excluded:
            excluded += 1
        mark = "EXCLUDED" if out.excluded else "open"
        print(f"[{idx}] {ring.name}: modular categorification {mark} ({out.certificate}){loc}")
    word = "all excluded" if excluded == len(rings) > 0 else f"{excluded} of {len(rings)} excluded"
    print(f"{len(rings)} ring(s) up to relabeling; {word}")
    return 0


def _batch_line(path, tol, seed, exact_only, modular_candidate) -> tuple[str, bool]:
    """Load and analyze one file; return its `batch` line and whether it is an
    ERROR line.  Runs in a worker process, so it prints nothing."""
    try:
        rep = analyze(
            load(path, tol),
            tol=tol,
            seed=seed,
            exact_only=exact_only,
            modular_candidate=modular_candidate,
        )
    except (HypergroupError, OSError) as exc:  # reported per file, batch continues
        return f"{path}: ERROR {type(exc).__name__}: {exc}", True
    b = rep.burnside or {}
    return (
        f"{path}: rank {rep.rank:3d}  burnside {str(b.get('is_burnside', '-')):5s} "
        f"dual {str(b.get('is_dual_burnside', '-')):5s} "
        f"nilpotency {rep.nilpotency_class if rep.nilpotency_class is not None else '-'}",
        False,
    )


def _cmd_batch(args) -> int:
    """Analyze every `.json` and `.txt` file of a directory, one line per file.

    The files go to parallel worker processes, one per CPU this process may run
    on and never more than the files, each holding one analysis at a time; no
    flag selects this.  The lines print in sorted path order as they finish:
    the same lines and exit code as a serial run.  Workers are forked, not
    spawned, so they do not import numpy and the library again."""
    paths = sorted(
        os.path.join(args.dir, f)
        for f in os.listdir(args.dir)
        if f.endswith((".json", ".txt"))
    )
    if not paths:
        return 0
    work = functools.partial(_batch_line, tol=_tol(args), seed=args.seed,
                             exact_only=args.exact_only, modular_candidate=args.modular_candidate)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    errors = 0
    with multiprocessing.get_context("fork").Pool(min(len(paths), cpus or 1)) as pool:
        for line, failed in pool.imap(work, paths, chunksize=1):
            errors += failed
            print(line)
    return 1 if errors else 0


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; each subcommand registers only the flags its
    handler reads."""
    parser = argparse.ArgumentParser(
        prog="hypergroups",
        description="Invariants and categorification screening of fusion rings "
        "and abelian normalizable hypergroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one ring file")
    p.add_argument("path")
    _analysis_flags(p)
    p.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report rendering",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("group", help="build a ring from permutation generators")
    p.add_argument("generators", help='cycle notation, e.g. "(012),(01)"')
    p.add_argument("--name", default="G")
    p.add_argument("--kind", choices=("rep", "class", "group-ring"), default="rep")
    p.add_argument("--out")
    _solver_flags(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("generate", help="build a named family member")
    p.add_argument(
        "family", choices=("near-group", "family", "group-ring", "ising", "fibonacci")
    )
    p.add_argument("params", nargs="*")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("dual", help="write the dual hypergroup of a ring file")
    p.add_argument("path")
    p.add_argument("--out")
    _solver_flags(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("quotient", help="quotient a ring by a sub-hypergroup")
    p.add_argument("path")
    p.add_argument("--sub", required=True, help="comma-separated basis indices")
    p.add_argument("--out")
    _solver_flags(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("enumerate", help="enumerate fusion rings of a given type")
    p.add_argument("type", help="comma-separated dimension list, e.g. 1,1,1,1,2,2")
    p.add_argument("--out-dir")
    p.add_argument("--budget", type=int, default=2_000_000)
    _solver_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("batch", help="analyze every ring file in a directory")
    p.add_argument("dir")
    _analysis_flags(p)
    p.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except HypergroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
