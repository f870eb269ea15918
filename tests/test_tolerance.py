"""The tolerance policy of `hypergroups.tolerance`.

One boundary test per slack level drives one check to half its threshold
(it passes) and to twice its threshold (it raises), so a changed slack value
fails here.  The thresholds below are written as literal multiples of
tol.zero on purpose: they pin the values that tolerance.py names.  A scan of
src/ keeps every other module from multiplying tol.zero by a literal, every
named threshold in use, one rational reconstruction, one determinant route
and one exact form of the tensor.  Snapping is checked against the `limit_denominator` rule it replaced.
"""

import ast
import dataclasses
import pathlib
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import burnside as bn
from hypergroups import spectra
from hypergroups import structure as st
from hypergroups import tolerance
from hypergroups.errors import CrossCheckFailed

TOL = tolerance.DEFAULT_TOL
ENTRY, VALUE, IDENTITY, ROUTE = (s * TOL.zero(1.0) for s in (1e3, 1e4, 1e5, 1e6))
BOUNDARY = pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])


def _check_boundary(check, raises, error, match):
    if raises:
        with pytest.raises(error, match=match):
            check()
    else:
        check()


def _with_idempotent_shift(table, shift):
    """The table with coordinate 0 of the FP idempotent F_0 moved by `shift`."""
    F = table.idempotents.copy()
    F[0, 0] += shift
    return replace(table, idempotents=F)


@BOUNDARY
def test_entry_slack_bounds_the_sum_of_inverse_codegrees(z2_ring, factor, raises):
    table = hg.character_table(z2_ring)
    n = table.codegrees.copy()
    n[1] = 1.0 / (1.0 / n[1] + factor * ENTRY)  # sum_j 1/n_j = 1 + factor * ENTRY
    bad = replace(table, codegrees=n)
    _check_boundary(
        lambda: spectra._verify_table(z2_ring, bad),
        raises, CrossCheckFailed, "sum 1/n_j",
    )


@BOUNDARY
def test_value_slack_bounds_the_primitive_idempotent_values(z2_ring, factor, raises):
    # mu_l(F_0) moves by the shift times mu_l(x_0) = 1
    bad = _with_idempotent_shift(hg.character_table(z2_ring), factor * VALUE)
    _check_boundary(
        lambda: spectra._verify_table(z2_ring, bad),
        raises, CrossCheckFailed, "F_0 is not the 0-th primitive idempotent",
    )


@BOUNDARY
def test_identity_slack_bounds_the_integral_against_its_idempotents(z2_ring, factor, raises):
    # lambda_H = F_0, the FP idempotent, rebuilt from the shifted F_0
    a = hg.RingAnalysis(z2_ring)
    a.table = _with_idempotent_shift(a.table, factor * IDENTITY)
    _check_boundary(
        lambda: st.support(a, st.SubHypergroup((0, 1), z2_ring)),
        raises, CrossCheckFailed, "lambda_S != sum of F_j",
    )


@BOUNDARY
def test_route_slack_bounds_p_against_its_idempotent_expansion(z2_ring, factor, raises):
    # mu_0(P) = 1, so the expansion sum_j mu_j(P) F_j moves with F_0
    a = hg.RingAnalysis(z2_ring)
    a.table = _with_idempotent_shift(a.table, factor * ROUTE)
    _check_boundary(
        lambda: bn.product_P(a), raises, CrossCheckFailed, "idempotent expansion"
    )


def _settable(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


def test_a_tolerance_holds_only_abs_and_rel():
    """Every other threshold is a named constant of tolerance.py."""
    assert _settable(hg.Tolerance) == ("abs", "rel")
    widened = dataclasses.make_dataclass(
        "Widened", [("snap_denominator_bound", int, 10**4)], bases=(hg.Tolerance,), frozen=True
    )
    assert _settable(widened) != ("abs", "rel")


def test_agrees_is_the_value_slack_at_the_target_scale():
    tol = hg.Tolerance(abs=1e-8, rel=1e-7)
    target = np.array([0.0, 1.0, 40.0])
    thr = 1e4 * tol.zero(1.0 + target)
    assert tol.agrees(target + 0.5 * thr, target).all()
    assert not tol.agrees(target - 2.0 * thr, target).any()
    thr = 1e4 * tol.zero(4.0)  # complex values: the modulus of the difference
    assert tol.agrees(3.0 + 0.5j * thr, 3.0) and not tol.agrees(3.0 + 2j * thr, 3.0)


# ---------------------------------------------------------------- guard

SRC = pathlib.Path(tolerance.__file__).parent


def _is_literal(node) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _is_literal(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_literal(node.left) and _is_literal(node.right)
    return False


def _is_zero_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "zero"
    )


def literal_multipliers(source: str) -> list:
    """Lines where a numeric literal multiplies or divides a `.zero(...)` call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            sides = (node.left, node.right)
            if any(map(_is_zero_call, sides)) and any(map(_is_literal, sides)):
                lines.append(node.lineno)
    return lines


def test_guard_sees_literal_multipliers():
    assert literal_multipliers("t = 1e4 * tol.zero(1.0)") == [1]
    assert literal_multipliers("t = a.tol.zero(s) * -2e3") == [1]
    assert literal_multipliers("t = 2 * 1e4 * self.tol.zero(1.0 + d)") == [1]
    assert literal_multipliers("t = VALUE_SLACK * tol.zero(1.0)\nu = tol.zero(x)") == []


def test_no_literal_multiplies_tol_zero_outside_tolerance_py():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "tolerance.py"
        for line in literal_multipliers(path.read_text())
    ]
    assert not found, f"name these thresholds in tolerance.py: {found}"


def test_every_named_threshold_is_used():
    tree = ast.parse(pathlib.Path(tolerance.__file__).read_text())
    named = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    assert {"ENTRY_SLACK", "VALUE_SLACK", "IDENTITY_SLACK", "ROUTE_SLACK"} <= named
    used = {
        node.id
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert not named - used, f"unused thresholds: {sorted(named - used)}"


def second_routes(source: str) -> list:
    """(name, line) of each `limit_denominator` call and `_bareiss_int` reference."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            name = node.name
        else:
            name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("limit_denominator", "_bareiss_int"):
            found.append((name, node.lineno))
    return found


def test_guard_sees_second_routes():
    assert second_routes("q = Fraction(x).limit_denominator(10)") == [("limit_denominator", 1)]
    assert second_routes("from ._exact import _bareiss_int") == [("_bareiss_int", 1)]
    assert second_routes("d = _exact._bareiss_int(rows)") == [("_bareiss_int", 1)]
    assert second_routes("d = exact_det(m)\nq = snap_value(x)") == []


def test_one_rational_reconstruction_and_one_determinant_route():
    """No `limit_denominator` outside tolerance.py, and Bareiss only through
    _exact.exact_det."""
    found = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in second_routes(path.read_text())
        if path.name != {"limit_denominator": "tolerance.py", "_bareiss_int": "_exact.py"}[name]
    ]
    assert not found, f"second routes: {found}"


def exact_form_routes(source: str) -> list:
    """(name, line) of each `integer_form` call that takes a `.tensor` argument
    outside a function named `integer_tensor`, and of each `left_matrix` name."""
    found = []

    def visit(node, inside):
        inside = inside or getattr(node, "name", None) == "integer_tensor"
        func = getattr(node, "func", None)
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "integer_form" and not inside and any(
            getattr(sub, "attr", None) == "tensor" for arg in node.args for sub in ast.walk(arg)
        ):
            found.append(("integer_form", node.lineno))
        if "left_matrix" in (getattr(node, "id", None), getattr(node, "attr", None),
                             getattr(node, "name", None)):
            found.append(("left_matrix", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def test_guard_sees_exact_form_routes():
    assert exact_form_routes("_, C = integer_form(data.tensor, terms=1)") == [("integer_form", 1)]
    assert exact_form_routes("x = core.integer_form(a.data.tensor, terms=m)") == [("integer_form", 1)]
    assert exact_form_routes("x = integer_form(list(data.tensor[0]), terms=1)") == [("integer_form", 1)]
    assert exact_form_routes("d = exact_det(data.left_matrix(i))") == [("left_matrix", 1)]
    assert exact_form_routes("def left_matrix(self, i):\n    return self.tensor[i].T") == [("left_matrix", 1)]
    inside = "def integer_tensor(self):\n    return integer_form(self.tensor, terms=self.rank)"
    assert exact_form_routes(inside) == []
    assert exact_form_routes("D, w = integer_form(x)\nL, C = data.integer_tensor()") == []


def test_one_exact_form_of_the_ring():
    """The tensor is cleared only in FusionData.integer_tensor, and no
    `left_matrix` hands out a Fraction slice to clear again."""
    found = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in exact_form_routes(path.read_text())
    ]
    assert not found, f"second exact forms: {found}"


# ---------------------------------------------------------------- snapping


def test_a_bound_of_one_snaps_integers_only(monkeypatch):
    monkeypatch.setattr(tolerance, "SNAP_DENOMINATOR_BOUND", 1)
    assert tolerance.snap_value(2.0000000001) == 2
    assert isinstance(tolerance.snap_value(0.5), float)


def _old_snap(x, tol, bound):
    """The rule snap_value replaced: round, then Fraction.limit_denominator."""
    n = round(x)
    if abs(x - n) <= tol.zero(x):
        return int(n)
    q = Fraction(x).limit_denominator(bound)
    if abs(x - float(q)) <= tol.zero(x):
        return q
    return x


def _snap_inputs(tol, count, seed):
    """Rationals p/q (q <= 3e4), the same rationals moved by 0.1, 1, 3 and 100
    times tol.zero(x), and irrationals of magnitude 1e-6 to 1e4, in equal parts."""
    rng = np.random.default_rng((2024, seed))
    part = count // 6
    q = rng.integers(1, 30_000, size=part, endpoint=True)
    rationals = rng.integers(-50 * q, 50 * q, endpoint=True) / q
    signs = rng.choice([-1.0, 1.0], size=part)
    noisy = [rationals + c * signs * tol.zero(rationals) for c in (0.1, 1.0, 3.0, 100.0)]
    rest = count - 5 * part
    irrationals = rng.choice([-1.0, 1.0], size=rest) * 10.0 ** rng.uniform(-6, 4, size=rest)
    return np.concatenate([rationals, *noisy, irrationals]).tolist()


def test_snap_value_matches_limit_denominator_on_seeded_values(monkeypatch):
    """5 * 10^4 values at each of two tolerances; value v is checked at bound
    v mod 4 of (1, 10, 10^4, 10^6), so each bound sees 12,500 values per
    tolerance, spread over every kind.  Each tolerance draws its own values,
    so the 10^5 checks are on distinct inputs.  The bound is a module
    constant, patched here one bound at a time."""
    bounds = (1, 10, 10**4, 10**6)
    kinds, seen = set(), set()
    for seed, a in enumerate((1e-9, 1e-6)):
        tol = hg.Tolerance(a, a)
        inputs = _snap_inputs(tol, 50_000, seed)
        seen.update(inputs)
        for b, bound in enumerate(bounds):
            monkeypatch.setattr(tolerance, "SNAP_DENOMINATOR_BOUND", bound)
            for x in inputs[b :: len(bounds)]:
                got, want = tolerance.snap_value(x, tol), _old_snap(x, tol, bound)
                assert type(got) is type(want) and got == want, (x, tol, bound)
                kinds.add(type(got))
    assert kinds == {int, Fraction, float}
    assert len(seen) > 99_000


def test_snap_array_stops_at_its_first_non_rational_entry():
    values = np.array([[0.5, 3.0, 1 / 3], [2**0.5, 0.25, 7.0]])
    with mock.patch.object(tolerance, "snap_value", wraps=tolerance.snap_value) as spy:
        assert tolerance.snap_array(values) is None
    assert [c.args[0] for c in spy.call_args_list] == [0.5, 1 / 3, 2**0.5]
    values[1, 0] = 0.75
    assert tolerance.snap_array(values).tolist() == [
        [Fraction(1, 2), 3, Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 4), 7]
    ]
