"""The CLI on outside input that names no ring: every case exits 2 with a
one-line error, and no exception escapes `main`."""

import json
import multiprocessing
from unittest import mock

import numpy as np
import pytest

from hypergroups import builders as bd
from hypergroups.cli import main
from hypergroups.core import FusionData
from hypergroups.errors import ParseError


def ising_doc(**changes) -> str:
    doc = json.loads(bd.serialize(bd.ising()))
    doc.update(changes)
    return json.dumps(doc)


def ising_with_entry(entry) -> str:
    doc = json.loads(bd.serialize(bd.ising()))
    doc["tensor"][1][1][0] = entry
    return json.dumps(doc)


def noisy_ising() -> str:
    ring = bd.ising()
    noise = np.random.default_rng(0).normal(0.0, 0.3, (3, 3, 3))
    return bd.serialize(FusionData("noisy", ring.involution, ring.float_tensor() + noise))


MALFORMED_FILES = {
    "rank 0": ising_doc(rank=0, involution=[], tensor=[]),
    "tensor 5": ising_doc(tensor=5),
    "NaN entry": ising_with_entry(float("nan")),
    "1/0 entry": ising_with_entry("1/0"),
    "involution ['a']": ising_doc(involution=["a", 1, 2]),
    "involution [0.5]": ising_doc(involution=[0.5, 1, 2]),
    "true entry": ising_with_entry(True),
    "list entry": ising_with_entry([1]),
}

# the reason `parse` gives for the bad entry that ising_with_entry places
ENTRY_REASONS = {
    "NaN entry": "non-finite entry nan at tensor[1][1][0]",
    "1/0 entry": "bad rational '1/0' at tensor[1][1][0]",
    "true entry": "boolean entry at tensor[1][1][0]",
    "list entry": "bad entry [1] at tensor[1][1][0]",
}

NOISY_TOLERANCES = [
    ["--tol-abs", "nan", "--tol-rel", "nan"],
    ["--tol-abs", "0"],
    ["--tol-abs", "-1"],
]

MALFORMED_ARGS = [
    ["group", "(0 1)(1 2)"],
    ["generate", "near-group", "0", "1"],
    ["generate", "group-ring", "a"],
    ["generate", "family", "x", "4", "3"],
    ["generate", "family", "-2", "4", "3"],
]


def run_main(capsys, argv):
    try:
        code = main(argv)
    except BaseException as exc:  # noqa: BLE001 - the point is that none escapes
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_domain_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_ring_file_is_a_domain_error(tmp_path, capsys, case):
    path = tmp_path / "ring.json"
    path.write_text(MALFORMED_FILES[case])
    assert_domain_error(*run_main(capsys, ["analyze", str(path)]))


@pytest.mark.parametrize("case", sorted(ENTRY_REASONS))
def test_parse_names_the_bad_entry(case):
    with pytest.raises(ParseError) as info:
        bd.parse(MALFORMED_FILES[case])
    assert info.value.reason == ENTRY_REASONS[case]


def test_float_ring_file_loads_its_tensor_unchanged():
    text = noisy_ising()
    # the noise fails validation at any tolerance, so only the load is run
    with mock.patch.object(FusionData, "flags_at"):
        data = bd.parse(text)
    expected = np.array(json.loads(text)["tensor"], dtype=np.float64)
    assert data.scalar_kind == "float" and data.tensor.dtype == np.float64
    assert np.array_equal(data.tensor, expected)


def test_noisy_ring_fails_validation_at_the_default_tolerance(tmp_path, capsys):
    path = tmp_path / "noisy.json"
    path.write_text(noisy_ising())
    code, out, err = run_main(capsys, ["analyze", str(path)])
    assert_domain_error(code, out, err)
    assert "unit violated" in err


@pytest.mark.parametrize("flags", NOISY_TOLERANCES, ids=" ".join)
def test_tolerance_that_is_not_finite_and_positive_is_a_domain_error(tmp_path, capsys, flags):
    path = tmp_path / "noisy.json"
    path.write_text(noisy_ising())
    code, out, err = run_main(capsys, ["analyze", str(path), *flags])
    assert_domain_error(code, out, err)
    assert "not finite and positive" in err


@pytest.mark.parametrize("argv", MALFORMED_ARGS, ids=" ".join)
def test_malformed_arguments_are_domain_errors(capsys, argv):
    assert_domain_error(*run_main(capsys, argv))


# every subcommand that takes --seed, with the ring file, directory or
# generators it needs
SEEDED = {
    "analyze": lambda d: ["analyze", str(d / "ising.json")],
    "batch": lambda d: ["batch", str(d)],
    "group": lambda d: ["group", "(0 1 2),(0 1)"],
    "dual": lambda d: ["dual", str(d / "ising.json")],
    "quotient": lambda d: ["quotient", str(d / "ising.json"), "--sub", "0,1"],
    "enumerate": lambda d: ["enumerate", "1,1"],
}


@pytest.mark.parametrize("command", sorted(SEEDED))
@pytest.mark.parametrize("seed, reason", [("-1", "seed -1 is negative"),
                                          ("abc", "invalid int value: 'abc'")])
def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(tmp_path, capsys, command, seed, reason):
    """numpy's default_rng takes no negative seed: the value is refused where
    --seed is parsed, as a malformed option, not from inside the solver."""
    bd.dump(bd.ising(), str(tmp_path / "ising.json"))
    with pytest.raises(SystemExit) as info:
        main([*SEEDED[command](tmp_path), "--seed", seed])
    out = capsys.readouterr()
    assert info.value.code == 2 and out.out == ""
    assert out.err.splitlines()[-1].endswith(f"error: argument --seed: {reason}")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("ring", [bd.group_ring(bd.catalog("C2")), bd.ising()], ids=lambda ring: ring.name)
def test_quotient_sub_implies_the_unit(tmp_path, capsys, ring):
    path = str(tmp_path / "ring.json")
    bd.dump(ring, path)
    implied = run_main(capsys, ["quotient", path, "--sub", "1"])
    explicit = run_main(capsys, ["quotient", path, "--sub", "0,1"])
    assert implied[0] == 0
    assert implied == explicit


# Z[C2] in the text format, its last entry a Latin-1 byte
NOT_UTF8 = b"1 0\n0 1\n\n0 1\n1 \xe9\n"


def test_a_file_that_is_not_utf8_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "ring.txt"
    path.write_bytes(NOT_UTF8)
    code, out, err = run_main(capsys, ["analyze", str(path)])
    assert_domain_error(code, out, err)
    assert "line 5, col 3: not UTF-8 text" in err


def test_batch_reports_a_file_that_is_not_utf8_and_goes_on(tmp_path, capsys):
    d = tmp_path / "rings"
    d.mkdir()
    (d / "a.txt").write_bytes(NOT_UTF8)
    bd.dump(bd.ising(), str(d / "b.json"))
    code, out, _ = run_main(capsys, ["batch", str(d)])
    first, second = out.splitlines()
    assert code == 1
    assert first.endswith("a.txt: ERROR ParseError: parse error at line 5, col 3: "
                          "not UTF-8 text: invalid continuation byte")
    assert "b.json: rank" in second


def test_batch_lets_a_programming_error_propagate(tmp_path):
    d = tmp_path / "rings"
    d.mkdir()
    bd.dump(bd.ising(), str(d / "a.json"))
    with mock.patch("hypergroups.cli.analyze", side_effect=RuntimeError("a bug")):
        with pytest.raises(RuntimeError, match="a bug"):
            main(["batch", str(d)])
    assert multiprocessing.active_children() == []
