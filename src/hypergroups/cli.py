"""Command-line front door.

Exit codes: 0 success, 1 batch-level or I/O errors, 2 axiom/domain violations,
3 numeric failures (exact/float cross-checks or verification residuals).
"""

from __future__ import annotations

import argparse
import os
import sys

from .builders import (
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
from .dual import dual_hypergroup
from .errors import HypergroupError, InvalidType, NumericFailure
from .report import analyze, render_structured, render_text
from .spectra import character_table
from .structure import SubHypergroup, quotient
from .tolerance import Tolerance

__all__ = ["main"]


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--tol-abs", type=float, default=1e-9, help="absolute tolerance")
    p.add_argument("--tol-rel", type=float, default=1e-9, help="relative tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for the spectral solver")
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
    p.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report rendering",
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
    report = analyze(
        load(args.path),
        tol=_tol(args),
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


def _parse_orders(text: str) -> list[int]:
    text = text.strip()
    if not text or text in ("1", "C1", "c1"):
        return []
    return [int(t) for t in text.replace("x", ",").split(",") if t]


def _cmd_generate(args) -> int:
    kind = args.family
    if kind == "near-group":
        if len(args.params) != 2:
            raise HypergroupError("near-group needs: ORDERS M")
        ring = near_group(_parse_orders(args.params[0]), int(args.params[1]))
    elif kind == "family":
        if len(args.params) != 3:
            raise HypergroupError("family needs: N G_ORDERS K_ORDERS")
        from .builders import abelian_group

        n = int(args.params[0])
        ring = family_ring(
            n, _parse_orders(args.params[1]), abelian_group(_parse_orders(args.params[2]))
        )
    elif kind == "group-ring":
        if len(args.params) != 1:
            raise HypergroupError("group-ring needs: ORDERS")
        from .builders import abelian_group

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
    data = load(args.path)
    tol = _tol(args)
    table = character_table(data, tol=tol, seed=args.seed)
    dd = dual_hypergroup(data, table, tol=tol)
    _write_ring(dd.base, args.out)
    return 0


def _cmd_quotient(args) -> int:
    data = load(args.path)
    tol = _tol(args)
    try:
        indices = tuple(int(t) for t in args.sub.split(","))
    except ValueError:
        raise HypergroupError(
            f"--sub {args.sub!r} is not a comma-separated list of integers"
        ) from None
    sub = SubHypergroup(indices, data)
    q, classes = quotient(data, sub, tol=tol, seed=args.seed)
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
    word = "all excluded" if excluded == len(rings) else f"{excluded} of {len(rings)} excluded"
    print(f"{len(rings)} ring(s) up to relabeling; {word}")
    return 0


def _cmd_batch(args) -> int:
    paths = sorted(
        os.path.join(args.dir, f)
        for f in os.listdir(args.dir)
        if f.endswith((".json", ".txt"))
    )
    tol = _tol(args)
    errors = 0
    for path in paths:
        try:
            rep = analyze(
                load(path),
                tol=tol,
                seed=args.seed,
                exact_only=args.exact_only,
                modular_candidate=args.modular_candidate,
            )
        except Exception as exc:  # reported per file, batch continues
            errors += 1
            print(f"{path}: ERROR {type(exc).__name__}: {exc}")
            continue
        b = rep.burnside or {}
        print(
            f"{path}: rank {rep.rank:3d}  burnside {str(b.get('is_burnside', '-')):5s} "
            f"dual {str(b.get('is_dual_burnside', '-')):5s} "
            f"nilpotency {rep.nilpotency_class if rep.nilpotency_class is not None else '-'}"
        )
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypergroups",
        description="Invariants and categorification screening of fusion rings "
        "and abelian normalizable hypergroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one ring file")
    p.add_argument("path")
    _common_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("group", help="build a ring from permutation generators")
    p.add_argument("generators", help='cycle notation, e.g. "(012),(01)"')
    p.add_argument("--name", default="G")
    p.add_argument("--kind", choices=("rep", "class", "group-ring"), default="rep")
    p.add_argument("--out")
    _common_flags(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("generate", help="build a named family member")
    p.add_argument(
        "family", choices=("near-group", "family", "group-ring", "ising", "fibonacci")
    )
    p.add_argument("params", nargs="*")
    p.add_argument("--out")
    _common_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("dual", help="write the dual hypergroup of a ring file")
    p.add_argument("path")
    p.add_argument("--out")
    _common_flags(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("quotient", help="quotient a ring by a sub-hypergroup")
    p.add_argument("path")
    p.add_argument("--sub", required=True, help="comma-separated basis indices")
    p.add_argument("--out")
    _common_flags(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("enumerate", help="enumerate fusion rings of a given type")
    p.add_argument("type", help="comma-separated dimension list, e.g. 1,1,1,1,2,2")
    p.add_argument("--out-dir")
    p.add_argument("--budget", type=int, default=2_000_000)
    _common_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("batch", help="analyze every ring file in a directory")
    p.add_argument("dir")
    _common_flags(p)
    p.set_defaults(func=_cmd_batch)

    args = parser.parse_args(argv)
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
