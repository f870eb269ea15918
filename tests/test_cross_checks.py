"""Cross-checks fire on corrupted inputs, and every error class is in use.

Each test corrupts one input of one cross-check (a verdict, a dual table, a
cached invariant of the analysis, or a tensor that fails the axioms) and
asserts that the check raises CrossCheckFailed with its own message.  On
valid data these checks hold by theorem, so only a corrupted input reaches
them; where the function first validates its input (the axioms, a
sub-hypergroup), the test switches that validation off.  A scan of src/
keeps every class of errors.py raised or caught, a second keeps the
library's own error classes out of except clauses outside the CLI, and a
third keeps every message that can reach CrossCheckFailed starting with the
name of its check.
"""

import ast
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import burnside as bn
from hypergroups import errors
from hypergroups import galois as gl
from hypergroups import structure as st
from hypergroups.builders import catalog, group_ring
from hypergroups.errors import AxiomViolation, ClosureViolation, CrossCheckFailed


# ---------------------------------------------------------------- burnside


def test_identity_checks_reject_a_false_verdict_with_a_small_residual(ising_ring):
    a = hg.RingAnalysis(ising_ring)
    assert a.burnside[0]
    a.burnside = (False, 2)
    message = "phat_sq_vs_grouplikes = .* though verdict is false"
    with pytest.raises(CrossCheckFailed, match=message):
        bn.identity_checks(a)


def test_identity_checks_reject_a_true_verdict_with_a_large_residual(s3_rep):
    a = hg.RingAnalysis(s3_rep)
    assert not a.dual_burnside[0]
    a.dual_burnside = (True, None)
    message = "p_sq_vs_adjoint_integral = .* though verdict is true"
    with pytest.raises(CrossCheckFailed, match=message):
        bn.identity_checks(a)


# ---------------------------------------------------------------- dual


def _with_dual_table(a, **changes):
    """Point `a` at a copy of its dual's character table with `changes`;
    the alignment `a.dual_match` stays the one read off the true table."""
    a.dual_match
    a.dual.table = replace(a.dual.table, **changes)


def test_double_dual_check_rejects_a_dual_table_with_two_characters_exchanged(s3_rep):
    a = hg.RingAnalysis(s3_rep)
    t = a.dual.table
    # exchange the dual characters at x_1 and x_2, whose orders differ
    perm = list(range(t.rank))
    i, j = a.dual_match[1], a.dual_match[2]
    perm[i], perm[j] = j, i
    _with_dual_table(
        a,
        values=t.values[:, perm],
        codegrees=t.codegrees[perm],
        idempotents=t.idempotents[perm],
        positive_columns=tuple(sorted(perm.index(c) for c in t.positive_columns)),
    )
    with pytest.raises(CrossCheckFailed, match="double dual: mismatch, residual"):
        hg.double_dual_check(a)


def test_dual_codegrees_reject_a_perturbed_dual_codegree(s3_rep):
    a = hg.RingAnalysis(s3_rep)
    n = a.dual.table.codegrees.copy()
    n[a.dual_match[1]] += 1e-2
    _with_dual_table(a, codegrees=n)
    with pytest.raises(CrossCheckFailed, match="dual codegrees: formula vs direct mismatch"):
        hg.dual_codegrees(a)


# ---------------------------------------------------------------- structure


def test_kernel_of_element_rejects_kernels_that_disagree(ising_ring):
    a = hg.RingAnalysis(ising_ring)
    agreement = a.fp_agreement.copy()
    agreement[2] = True  # every character acts on sigma like FPdim
    a.fp_agreement = agreement
    with pytest.raises(CrossCheckFailed, match=r"kernel: kernel of sum \[0\] != intersection"):
        st.kernel_of_element(a, hg.basis_element(ising_ring, 2))


def test_kernel_of_character_rejects_a_kernel_that_is_not_closed():
    a = hg.RingAnalysis(group_ring(catalog("C4")))
    agreement = a.fp_agreement.copy()
    agreement[:, 1] = [True, True, False, False]  # x_1 without its inverse x_3
    a.fp_agreement = agreement
    with pytest.raises(CrossCheckFailed, match=r"kernel: indices \(0, 1\) are not closed"):
        st.kernel_of_character(a, 1)


def test_adjoint_rejects_a_support_other_than_the_grouplike_characters(ising_ring):
    a = hg.RingAnalysis(ising_ring)
    a.grouplike_chars = (0,)
    with pytest.raises(CrossCheckFailed, match=r"adjoint: J_ad \[.*\] != codegree test \[0\]"):
        st.adjoint(a)


def _grading_analysis(ring, **cached):
    """An analysis with its adjoint and grouplike characters computed, then
    the attributes in `cached` overwritten."""
    a = hg.RingAnalysis(ring)
    a.adjoint, a.grouplike_chars, a.normalized
    for name, value in cached.items():
        setattr(a, name, value)
    return a


def test_grading_rejects_an_identity_component_other_than_the_adjoint(ising_ring):
    a = _grading_analysis(ising_ring, adjoint=st.SubHypergroup((0, 2), ising_ring))
    message = r"grading: identity component \[0, 1, 2\] != adjoint"
    with pytest.raises(CrossCheckFailed, match=message):
        st.universal_grading(a)


def test_grading_rejects_a_component_product_that_spreads(ising_ring):
    a = _grading_analysis(ising_ring, adjoint=st.SubHypergroup((0,), ising_ring))
    with pytest.raises(CrossCheckFailed, match=r"grading: component product 2 \* 2 spreads"):
        st.universal_grading(a)


@pytest.mark.parametrize(
    "table, message",
    [
        ([[1, 0], [0, 1]], "grading: table has no unit"),
        ([[0, 1], [1, 1]], "grading: component 1 has no inverse"),
        ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "grading: table not associative"),
    ],
)
def test_grading_table_must_be_a_group(table, message):
    with pytest.raises(CrossCheckFailed, match=message):
        st._check_group_table(np.array(table))


def test_grading_rejects_a_component_count_other_than_the_grouplike_characters(ising_ring):
    a = _grading_analysis(ising_ring)
    a.grouplike_chars = (0,)
    message = r"grading: \|components\| = 2 != \|G\(H-hat\)\| = 1"
    with pytest.raises(CrossCheckFailed, match=message):
        st.universal_grading(a)


def test_grading_rejects_a_character_partition_other_than_the_components(ising_ring):
    a = _grading_analysis(ising_ring)
    other = next(j for j in range(3) if j not in a.grouplike_chars)
    a.grouplike_chars = (0, other)
    with pytest.raises(CrossCheckFailed, match="grading: character-side partition differs"):
        st.universal_grading(a)


def test_grading_rejects_a_component_dimension_off_the_share_of_fpdim(ising_ring):
    a = _grading_analysis(ising_ring)
    a.n_h += 1e-2
    message = r"grading: FPdim\(R_g\) = 2\.0.* != FPdim\(H\)/\|U\|"
    with pytest.raises(CrossCheckFailed, match=message):
        st.universal_grading(a)


def test_perp_rejects_a_set_that_is_not_its_biperp(ising_ring, monkeypatch):
    a = hg.RingAnalysis(ising_ring)
    monkeypatch.setattr(st, "_check_sub", lambda a, sub: None)
    with pytest.raises(CrossCheckFailed, match=r"\(S-perp\)-perp = \[0, 1, 2\] != S = \[0, 2\]"):
        st.perp(a, st.SubHypergroup((0, 2), ising_ring))


def _tensor(rank, entries):
    """A rank^3 integer tensor with N_ij^k = 1 at (i, j, k) in `entries`."""
    N = np.zeros((rank, rank, rank), dtype=int)
    for ijk in entries:
        N[ijk] = 1
    return N.tolist()


def _sandwich_breaker():
    # x_i x_0 = x_0 x_i = x_i, x_1 x_3 = x_2, x_2 x_2 = x_3: no x x* holds the unit
    unit = [(0, i, i) for i in range(4)] + [(i, 0, i) for i in range(4)]
    return hg.FusionData("bad", [0, 1, 2, 3], _tensor(4, unit + [(1, 3, 2), (2, 2, 3)]))


def _series_breaker():
    # x_0 x_0 = x_1 and every other product zero: no unit at all
    return hg.FusionData("bad", [0, 1], _tensor(2, [(0, 0, 1)]))


def test_commutator_rejects_a_tensor_that_breaks_the_sandwich_law(monkeypatch):
    ring = _sandwich_breaker()
    monkeypatch.setattr(ring, "flags_at", lambda tol: None)
    with pytest.raises(CrossCheckFailed, match=r"sandwich: \(S\^co\)_ad = \(0, 3\), S = \(0, 1\)"):
        st.commutator_sub(hg.RingAnalysis(ring), st.SubHypergroup((0, 1), ring))


def test_central_series_rejects_a_tensor_whose_series_disagree(monkeypatch):
    ring = _series_breaker()
    monkeypatch.setattr(ring, "flags_at", lambda tol: None)
    message = "series: upper series class None vs lower series class 1"
    with pytest.raises(CrossCheckFailed, match=message):
        st.central_series(hg.RingAnalysis(ring))


def test_perp_commutator_and_series_validate_their_input(ising_ring):
    a = hg.RingAnalysis(ising_ring)
    with pytest.raises(ClosureViolation, match=r"indices \(0, 2\) are not closed"):
        st.perp(a, st.SubHypergroup((0, 2), ising_ring))
    ring = _sandwich_breaker()
    with pytest.raises(AxiomViolation):
        st.commutator_sub(hg.RingAnalysis(ring), st.SubHypergroup((0, 1), ring))
    with pytest.raises(AxiomViolation):
        st.central_series(hg.RingAnalysis(_series_breaker()))
    with pytest.raises(AxiomViolation):
        st.central_series(hg.RingAnalysis(_sandwich_breaker()))
    # x_1 x_1 = x_1: a unit but no N_11^0, which once gave a CentralSeries back
    idempotent = hg.FusionData("bad", [0, 1], _tensor(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]))
    with pytest.raises(AxiomViolation, match="involution"):
        st.central_series(hg.RingAnalysis(idempotent))


# ---------------------------------------------------------------- galois


def test_codegree_conjugation_rejects_an_orbit_with_irrational_codegrees(fib_ring):
    a = hg.RingAnalysis(fib_ring)
    split = gl.OrbitPartition(orbits=((0,), (1,)), certificates={})
    with pytest.raises(CrossCheckFailed, match=r"conjugation: .* on orbit \(0,\) is not rational"):
        gl.check_codegree_conjugation(a, split)


def test_codegree_conjugation_rejects_an_orbit_with_distinct_dual_orders(s3_rep):
    a = hg.RingAnalysis(s3_rep)
    assert a.dual.flags.h_integral
    merged = gl.OrbitPartition(orbits=((0, 1, 2),), certificates={})
    message = r"conjugation: dual orders not constant on orbit \(0, 1, 2\)"
    with pytest.raises(CrossCheckFailed, match=message):
        gl.check_codegree_conjugation(a, merged)


# ---------------------------------------------------------------- guard

SRC = pathlib.Path(errors.__file__).parent
CHECKS = {"_match_columns": "CrossCheckFailed"}  # routine -> the class every call raises


def _names(node) -> list:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def raised_or_caught(source: str) -> set:
    """Names raised, caught, or raised by a call of a check routine."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            found.update(_names(node.exc))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            found.update(_names(node.type))
        elif isinstance(node, ast.Call):
            routine = (_names(node.func) or [None])[-1]
            if routine in CHECKS:
                found.add(CHECKS[routine])
    return found


def test_guard_sees_raises_catches_and_check_errors():
    assert raised_or_caught("raise A('x')\nraise B from exc") == {"A", "B"}
    assert raised_or_caught("try:\n    f()\nexcept (C, errors.D):\n    pass") == {"C", "D"}
    assert raised_or_caught("_match_columns(v, w, t, g)") == {"CrossCheckFailed"}
    assert raised_or_caught("x = G('m')\nh(r, S, 1.0, H, 'm')") == set()


def test_every_error_class_is_raised_or_caught_in_src():
    tree = ast.parse(pathlib.Path(errors.__file__).read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert set(errors.__all__) == defined
    sources = [path.read_text() for path in SRC.rglob("*.py") if path.name != "errors.py"]
    used = set().union(*map(raised_or_caught, sources))
    assert not defined - used, f"error classes never raised or caught: {sorted(defined - used)}"


# (module, enclosing function, class) of the excepts in src/ that may catch a
# library error: "no FP character" is a report note, and a dual that fails
# the axioms is a numeric failure
ALLOWED_CATCHES = {
    ("report.py", "analyze", "NotNormalizable"),
    ("dual.py", "dual_hypergroup", "HypergroupError"),
}


def caught_library_errors(source: str, module: str) -> set:
    """(module, enclosing function, class) for each class of errors.py that
    an except clause names."""
    library = set(errors.__all__)
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                found.update((module, function, n) for n in _names(child.type) if n in library)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_catch_guard_sees_a_library_error_and_its_function():
    snippet = (
        "def f():\n    try:\n        g()\n"
        "    except (errors.NotAbelian, ValueError):\n        pass\n"
    )
    assert caught_library_errors(snippet, "m.py") == {("m.py", "f", "NotAbelian")}
    assert caught_library_errors("try:\n    g()\nexcept KeyError:\n    pass\n", "m.py") == set()


def test_no_except_outside_the_cli_catches_a_library_error():
    found = set()
    for path in SRC.rglob("*.py"):
        module = path.relative_to(SRC).as_posix()
        if module != "cli.py":
            found |= caught_library_errors(path.read_text(), module)
    assert not found - ALLOWED_CATCHES, sorted(found - ALLOWED_CATCHES)


# A message that can reach CrossCheckFailed begins with its check's name.
# Positions of the message in the calls that raise it: every Tolerance.check,
# every CrossCheckFailed(...), the `not_unit` text of _checked_sign, and the
# message of every _match_columns call.
CHECK_NAME = re.compile(r"^[A-Za-z][A-Za-z -]*: ")
MESSAGE_AT = {"check": 3, "CrossCheckFailed": 0, "_checked_sign": 4, "_match_columns": 3}
# the message parameters of Tolerance.check, _checked_sign and _match_columns,
# checked where their texts are given
PASSED_ON = {"message", "not_unit"}
DELETED_CLASSES = ("OrthogonalityResidualExceeded", "IdempotentResidual", "SignMismatch",
                   "ClassInconsistency")


def _leading_texts(node) -> list:
    """The literal text each branch of a message expression starts with, or
    None for a branch that starts with no literal."""
    if isinstance(node, ast.Lambda):
        return _leading_texts(node.body)
    if isinstance(node, ast.IfExp):
        return _leading_texts(node.body) + _leading_texts(node.orelse)
    if isinstance(node, ast.JoinedStr):
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return [None]


def unnamed_check_messages(source: str) -> list:
    """(line, problem) for each threshold-check message without a check name,
    each Tolerance.check given an exception class, and each deleted class."""
    found = [(0, name) for name in DELETED_CLASSES if name in source]
    library = set(errors.__all__) | set(DELETED_CLASSES)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not _names(node.func):
            continue
        routine = _names(node.func)[-1]
        pos = MESSAGE_AT.get(routine)
        if pos is None or len(node.args) <= pos:
            continue
        if routine == "check":
            found += [(node.lineno, f"check given {n}")
                      for arg in node.args for n in _names(arg) if n in library]
        message = node.args[pos]
        if isinstance(message, ast.Call) and _names(message.func) == ["format"]:
            message = message.func.value
        elif isinstance(message, ast.Call) and isinstance(message.func, ast.Name):
            message = message.func  # a text built by a function it was passed
        if isinstance(message, ast.Name) and message.id in PASSED_ON:
            continue
        found += [(node.lineno, repr(text)) for text in _leading_texts(message)
                  if text is None or not CHECK_NAME.match(text)]
    return found


def test_message_guard_sees_each_unnamed_message():
    snippet = "\n".join([
        "tol.check(r, S, 1.0, 'no name {}', x)",
        "tol.check(r, S, 1.0, CrossCheckFailed, 'grading: x')",
        "raise CrossCheckFailed(f'{name} = 1')",
        "_checked_sign(v, 'x', perm, tol, 'not +-1 {}', i)",
        "_match_columns(v, w, t, lambda r, e: 'sgn: a' if e else f'mu_{r} b')",
        "tol.check(r, S, 1.0, text)",
        "# IdempotentResidual",
        "_match_columns(v, w, t, lambda r, e: 'no column')",
        "raise CrossCheckFailed(describe(r))",
    ])
    assert unnamed_check_messages(snippet) == [
        (0, "IdempotentResidual"),
        (1, "'no name {}'"),
        (2, "check given CrossCheckFailed"),
        (2, "None"),
        (3, "None"),
        (4, "'not +-1 {}'"),
        (5, "'mu_'"),
        (6, "None"),
        (8, "'no column'"),
        (9, "None"),
    ]
    named = "\n".join([
        "tol.check(r, S, 1.0, 'double dual: mismatch {}', x)",
        "raise CrossCheckFailed(message.format(*args))",
        "raise CrossCheckFailed(f'sgn: sgn({name}): {x}')",
        "_checked_sign(v, 'x', perm, tol, 'sgn: not +-1 {}', i)",
        "_checked_sign(v, 'x', perm, tol, not_unit, i)",
        "_match_columns(v, w, t, lambda r, e: 'quotient: a' f' {r}')",
        "_match_columns(v, w, t, message)",
        "raise CrossCheckFailed(message(bad[0], resid[bad[0]]))",
    ])
    assert unnamed_check_messages(named) == []


def test_every_threshold_check_message_names_its_check():
    found = [(path.relative_to(SRC).as_posix(), *fault)
             for path in SRC.rglob("*.py") for fault in unnamed_check_messages(path.read_text())]
    assert not found, found
