import argparse
import ast
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from hypergroups import builders as bd
from hypergroups.analysis import RingAnalysis
from hypergroups.core import FusionData, rescale
from hypergroups.cli import _batch_line, _build_parser, _solver_flags, _tol, main
from hypergroups.tolerance import DEFAULT_TOL


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tolerance_flags_default_to_the_default_tolerance():
    parser = argparse.ArgumentParser()
    _solver_flags(parser)
    assert _tol(parser.parse_args([])) == DEFAULT_TOL


def _unread_arguments(parser: argparse.ArgumentParser) -> list:
    """(subcommand, dest) for each argument a subcommand registers that its
    handler never reads; `args.<dest>` is a read, and `_tol(args)` reads
    tol_abs and tol_rel."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sub in subparsers.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(sub.get_default("func"))))
        read = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        if any(isinstance(node, ast.Name) and node.id == "_tol" for node in ast.walk(tree)):
            read |= {"tol_abs", "tol_rel"}
        unread += [(name, a.dest) for a in sub._actions if a.dest != "help" and a.dest not in read]
    return unread


def test_every_registered_argument_is_read_by_its_handler():
    assert _unread_arguments(_build_parser()) == []


def test_the_unread_argument_guard_sees_an_unread_flag():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparsers.choices["generate"].add_argument("--seed", type=int, default=0)
    subparsers.choices["enumerate"].add_argument("--modular-candidate", action="store_true")
    assert _unread_arguments(parser) == [("generate", "seed"), ("enumerate", "modular_candidate")]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "ising", "--format", "structured"],
        ["generate", "ising", "--modular-candidate", "--exact-only", "--seed", "5", "--tol-abs", "1e-3"],
        ["enumerate", "1,1,1,1,2,2", "--modular-candidate"],
        ["enumerate", "1,1,1,1,2,2", "--exact-only"],
        ["group", "(012),(01)", "--format", "structured"],
        ["dual", "ring.json", "--exact-only"],
        ["quotient", "ring.json", "--sub", "0", "--modular-candidate"],
        ["batch", "rings", "--format", "structured"],
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_generate_and_analyze(tmp_path, capsys):
    path = str(tmp_path / "ising.json")
    code, out, _ = run(capsys, "generate", "ising", "--out", path)
    assert code == 0 and os.path.exists(path)
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "Burnside: True" in out and "dual-Burnside: True" in out
    assert "nilpotency class: 2" in out


def test_analyze_structured_deterministic(tmp_path, capsys):
    path = str(tmp_path / "s3.json")
    bd.dump(bd.rep_ring(bd.catalog("S3")), path)
    code, out1, _ = run(capsys, "analyze", path, "--format", "structured")
    assert code == 0
    code, out2, _ = run(capsys, "analyze", path, "--format", "structured")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["burnside"]["is_dual_burnside"] is False


def test_analyze_axiom_violation_exit_2(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    doc = json.loads(bd.serialize(bd.ising()))
    doc["tensor"][2][2][1] = 5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, _, err = run(capsys, "analyze", path)
    assert code == 2


def test_analyze_loads_a_float_ring_at_the_command_tolerance(tmp_path, capsys):
    # Ising with noise of at most 3e-8 validates at 1e-7 but not at the default
    ring = bd.ising()
    noise = np.random.default_rng(0).uniform(-3e-8, 3e-8, (3, 3, 3))
    path = str(tmp_path / "noisy.json")
    bd.dump(FusionData("noisy", ring.involution, ring.float_tensor() + noise), path)
    code, _, _ = run(capsys, "analyze", path)
    assert code == 2
    code, out, _ = run(capsys, "analyze", path, "--tol-abs", "1e-7", "--tol-rel", "1e-7")
    assert code == 0
    assert "Burnside: True" in out


def test_analyze_numeric_failure_exit_3(tmp_path, capsys, monkeypatch):
    # numeric cross-check failures anywhere in the pipeline map to exit 3
    import hypergroups.cli as cli
    from hypergroups.errors import CrossCheckFailed

    path = str(tmp_path / "s3.json")
    bd.dump(bd.rep_ring(bd.catalog("S3")), path)

    def boom(*args, **kwargs):
        raise CrossCheckFailed("vanishing: x_1: exact det 1 vs numeric vanishing yes")

    monkeypatch.setattr(cli, "analyze", boom)
    code, _, err = run(capsys, "analyze", path)
    assert code == 3
    assert "numeric failure" in err


def test_analyze_failed_dual_exits_3(tmp_path, capsys):
    # the dual of a valid hypergroup satisfies the axioms, so a dual that
    # fails them is a numeric failure: here Cl(A5) with 2e-9 noise at 1e-8
    ring = bd.class_hypergroup(bd.catalog("A5"))
    m = ring.rank
    noise = np.random.default_rng(0).uniform(-2e-9, 2e-9, (m, m, m))
    path = str(tmp_path / "noisy.json")
    bd.dump(FusionData("noisy", ring.involution, ring.float_tensor() + noise), path)
    code, _, err = run(capsys, "analyze", path, "--tol-abs", "1e-8", "--tol-rel", "1e-8")
    assert code == 3
    assert err.startswith("numeric failure: dual tensor fails hypergroup axioms")


def test_a_ring_with_no_fp_character_is_a_domain_error(tmp_path, capsys):
    # sign-rescaled Z[C3] is a valid hypergroup with no positive character column
    path = str(tmp_path / "signed.json")
    bd.dump(rescale(bd.group_ring(bd.catalog("C3")), [1, -1, -1]), path)
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "note: no FP character: no strictly positive character column" in out
    code, _, err = run(capsys, "dual", path)
    assert code == 2
    assert err == "error: no strictly positive character column\n"


def test_a_negative_structure_constant_is_a_constituent(tmp_path, capsys):
    # x_1 x_1 = x_0 - x_1/2 is a valid hypergroup that is not RN
    ring = FusionData("signed", [0, 1], [[[1, 0], [0, 1]], [[0, 1], [1, Fraction(-1, 2)]]])
    floating = FusionData("signed", [0, 1], ring.float_tensor())
    for data in (ring, floating):
        assert RingAnalysis(data).support[1, 1].tolist() == [True, True]
    path = str(tmp_path / "signed.json")
    bd.dump(ring, path)
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert err == "error: universal grading needs RN data\n"


def test_analyze_exact_only_rejects_floats(tmp_path, capsys):
    import numpy as np
    from hypergroups.core import FusionData

    ring = FusionData(
        "floaty",
        [0, 1],
        np.array([1.0, 0, 0, 1, 0, 1, 1, 0.0]).reshape(2, 2, 2),
    )
    path = str(tmp_path / "floaty.json")
    bd.dump(ring, path)
    code, _, err = run(capsys, "analyze", path, "--exact-only")
    assert code == 2


def test_group_command(tmp_path, capsys):
    path = str(tmp_path / "s3rep.json")
    code, out, err = run(capsys, "group", "(012),(01)", "--kind", "rep", "--out", path)
    assert code == 0
    assert "order 6" in err
    ring = bd.load(path)
    assert ring.rank == 3
    code, out, _ = run(capsys, "analyze", path)
    assert "dual-Burnside: False" in out


def test_generate_near_group(tmp_path, capsys):
    path = str(tmp_path / "k.json")
    code, *_ = run(capsys, "generate", "near-group", "2", "0", "--out", path)
    assert code == 0
    ring = bd.load(path)
    assert ring.rank == 3  # the Ising fusion ring


def test_dual_command(tmp_path, capsys):
    src = str(tmp_path / "ising.json")
    dst = str(tmp_path / "dual.json")
    bd.dump(bd.ising(), src)
    code, *_ = run(capsys, "dual", src, "--out", dst)
    assert code == 0
    dual = bd.load(dst)
    assert dual.rank == 3 and dual.flags.normalized


def test_quotient_command(tmp_path, capsys):
    src = str(tmp_path / "z4.json")
    dst = str(tmp_path / "q.json")
    bd.dump(bd.group_ring(bd.catalog("C4")), src)
    code, out, err = run(capsys, "quotient", src, "--sub", "0,2", "--out", dst)
    assert code == 0
    q = bd.load(dst)
    assert q.rank == 2


@pytest.mark.parametrize(
    "sub, reason",
    [("0,1", "not closed"), ("0,7", "out of range"), ("0,x", "comma-separated list of integers")],
)
def test_quotient_rejects_a_non_sub_hypergroup(tmp_path, capsys, sub, reason):
    src = str(tmp_path / "z4.json")
    bd.dump(bd.group_ring(bd.catalog("C4")), src)
    code, out, err = run(capsys, "quotient", src, "--sub", sub)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err


def test_enumerate_command(tmp_path, capsys):
    outdir = str(tmp_path / "enum")
    code, out, _ = run(capsys, "enumerate", "1,1,1,1,2,2", "--out-dir", outdir)
    assert code == 0
    assert "4 ring(s) up to relabeling; all excluded" in out
    assert len(os.listdir(outdir)) == 4


def test_enumerate_a_type_with_no_ring_excludes_none(capsys):
    # no fusion ring has type 1,2: x^2 = 1 + m x has FPdim 2 only for m = 3/2
    code, out, _ = run(capsys, "enumerate", "1,2")
    assert code == 0
    assert out == "0 ring(s) up to relabeling; 0 of 0 excluded\n"


def test_batch_command(tmp_path, capsys):
    d = tmp_path / "rings"
    d.mkdir()
    bd.dump(bd.ising(), str(d / "a_ising.json"))
    bd.dump(bd.fibonacci(), str(d / "b_fib.json"))
    code, out, _ = run(capsys, "batch", str(d))
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2
    assert lines[0] < lines[1]  # path-sorted
    assert multiprocessing.active_children() == []


def test_batch_collects_errors(tmp_path, capsys):
    # more files than workers: exact rings, floating duals (irrational d), a
    # file that is not JSON, one that is not UTF-8 and a directory named x.json
    d = tmp_path / "rings"
    d.mkdir()
    bd.dump(bd.ising(), str(d / "a.json"))
    bd.dump(bd.rep_ring(bd.catalog("S3")), str(d / "c_s3.json"))
    bd.dump(bd.group_ring(bd.abelian_group([2, 2])), str(d / "d_c2xc2.json"))
    bd.dump(bd.near_group([], 1), str(d / "e_k1.json"))
    bd.dump(bd.near_group([2], 1), str(d / "f_k2.json"))
    bd.dump(bd.near_group([3], 2), str(d / "g_k3.json"))
    (d / "broken.json").write_text("{not json")
    (d / "h.txt").write_bytes(b"1 0\n0 1\n\n0 1\n1 \xe9\n")
    (d / "x.json").mkdir()
    code, out, _ = run(capsys, "batch", str(d), "--modular-candidate")
    assert code == 1
    paths = sorted(str(p) for p in d.iterdir())
    lines = [_batch_line(p, DEFAULT_TOL, 0, False, True) for p in paths]
    assert out == "".join(f"{line}\n" for line, _ in lines)
    assert [failed for _, failed in lines] == [
        os.path.basename(p) in ("broken.json", "h.txt", "x.json") for p in paths]
    assert multiprocessing.active_children() == []


def test_batch_empty_dir(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    with mock.patch("hypergroups.cli.multiprocessing.get_context") as get_context:
        code, out, _ = run(capsys, "batch", str(d))
    assert code == 0 and out == ""
    get_context.assert_not_called()


def test_batch_in_a_fresh_interpreter(tmp_path):
    # a deadlocked worker pool fails here instead of hanging the suite
    d = tmp_path / "rings"
    d.mkdir()
    bd.dump(bd.ising(), str(d / "a.json"))
    bd.dump(bd.fibonacci(), str(d / "b.json"))
    (d / "c.json").write_text("{not json")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "hypergroups.cli", "batch", str(d)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    want = [_batch_line(str(d / f), DEFAULT_TOL, 0, False, False)[0]
            for f in ("a.json", "b.json", "c.json")]
    assert proc.stdout == "".join(f"{line}\n" for line in want)


def test_enumerate_skips_non_commutative_rings(capsys):
    # type 1,1,1,1,1,1 has Z[C6] and the non-commutative Z[S3]
    code, out, _ = run(capsys, "enumerate", "1,1,1,1,1,1")
    assert code == 0
    lines = out.splitlines()
    assert sum("not screened (non-commutative)" in l for l in lines) == 1
    assert "2 ring(s) up to relabeling" in lines[-1]


def test_enumerate_a_type_with_many_relabelings(capsys):
    # [1^8] has 5,040 relabelings; its five rings are Z[C8], Z[C4 x C2],
    # Z[C2^3] and the non-commutative Z[D4] and Z[Q8]
    code, out, _ = run(capsys, "enumerate", "1,1,1,1,1,1,1,1")
    assert code == 0
    assert "5 ring(s) up to relabeling" in out.splitlines()[-1]


@pytest.mark.parametrize(
    "text, reason",
    [
        ("2,2", "type must contain the unit dimension 1"),
        ("0,1,1", "dimensions must be positive"),
        ("1,1,1,1,-1", "dimensions must be positive"),
        ("1,x", "not a comma-separated list of integers"),
    ],
)
def test_enumerate_malformed_type_is_a_domain_error(capsys, text, reason):
    code, out, err = run(capsys, "enumerate", text)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.strip().splitlines()) == 1
