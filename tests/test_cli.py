import json
import os

import pytest

from hypergroups import builders as bd
from hypergroups.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_analyze_numeric_failure_exit_3(tmp_path, capsys, monkeypatch):
    # numeric cross-check failures anywhere in the pipeline map to exit 3
    import hypergroups.cli as cli
    from hypergroups.errors import ExactNumericDisagreement

    path = str(tmp_path / "s3.json")
    bd.dump(bd.rep_ring(bd.catalog("S3")), path)

    def boom(*args, **kwargs):
        raise ExactNumericDisagreement("x_1: exact det 1 vs numeric vanishing yes")

    monkeypatch.setattr(cli, "analyze", boom)
    code, _, err = run(capsys, "analyze", path)
    assert code == 3
    assert "numeric failure" in err


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


def test_batch_collects_errors(tmp_path, capsys):
    d = tmp_path / "rings"
    d.mkdir()
    bd.dump(bd.ising(), str(d / "a.json"))
    (d / "broken.json").write_text("{not json")
    code, out, _ = run(capsys, "batch", str(d))
    assert code == 1
    assert "ERROR" in out


def test_batch_empty_dir(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, out, _ = run(capsys, "batch", str(d))
    assert code == 0 and out.strip() == ""


def test_enumerate_skips_non_commutative_rings(capsys):
    # type 1,1,1,1,1,1 has Z[C6] and the non-commutative Z[S3]
    code, out, _ = run(capsys, "enumerate", "1,1,1,1,1,1")
    assert code == 0
    lines = out.splitlines()
    assert sum("not screened (non-commutative)" in l for l in lines) == 1
    assert "2 ring(s) up to relabeling" in lines[-1]


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
