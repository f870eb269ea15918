"""One analysis computes each shared invariant once."""

import ast
import math
import pathlib
import sys
from unittest import mock

import pytest

import hypergroups as hg
from hypergroups import analysis, core, dual, spectra, tolerance
from hypergroups.builders import catalog, corpus, dump, ising, load, near_group, rep_ring
from hypergroups.report import analyze, render_structured


def _spy_everywhere(fn):
    """Start a mock wrapping `fn` at every module-level name in the package
    bound to it, so calls through any import count; stop with patch.stopall."""
    spy = mock.Mock(wraps=fn)
    for name, mod in list(sys.modules.items()):
        if name == "hypergroups" or name.startswith("hypergroups."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    mock.patch.object(mod, attr, spy).start()
    return spy


def test_analyze_builds_each_invariant_once():
    built = rep_ring(catalog("S3"))
    ring = hg.FusionData(built.name, built.involution, built.tensor)  # not yet validated
    spies = {
        name: mock.patch.object(mod, attr, wraps=getattr(mod, attr))
        for name, mod, attr in [
            ("validate", core, "validate"),
            ("dual", analysis, "dual_hypergroup"),
            ("table", analysis, "character_table"),
            ("vanishing", analysis, "vanishing_elements"),
        ]
    }
    mocks = {name: p.start() for name, p in spies.items()}
    try:
        analyze(ring, modular_candidate=True)
    finally:
        mock.patch.stopall()
    counts = {name: m.call_count for name, m in mocks.items()}
    # the ring, its dual and the double dual are validated once each; the
    # dual and the double dual (the dual's own dual) are built by analyses,
    # which build the ring's table and its dual's
    assert counts == {
        "validate": 3,
        "dual": 2,
        "table": 2,
        "vanishing": 1,
    }


def test_both_tables_are_built_at_the_analysis_seed():
    a = hg.RingAnalysis(ising(), seed=3)
    try:
        spy = _spy_everywhere(spectra.character_table)
        hg.dual_codegrees(a)
        hg.double_dual_check(a)
    finally:
        mock.patch.stopall()
    # a call that passes no seed builds at the default seed 0
    assert [(c.args[0].name, c.kwargs.get("seed", 0)) for c in spy.call_args_list] == [
        ("Ising", 3),
        ("dual(Ising)", 3),
    ]


def test_a_corpus_pass_checks_each_fp_column_once():
    rings = corpus()
    try:
        spies = {
            fn.__name__: _spy_everywhere(fn)
            for fn in [core.exact_character, spectra.character_table, dual.dual_hypergroup,
                       core.normalize, core.rescale]
        }
        for ring in rings:
            render_structured(analyze(ring))
    finally:
        mock.patch.stopall()
    counts = {name: spy.call_count for name, spy in spies.items()}
    # exact_d is the one character check of each FP column: the double-dual
    # check reads the float column instead of rescaling the ring.  Two tables
    # (the ring's and its dual's) and two duals (the dual and the double dual)
    # per ring
    assert counts == {
        "exact_character": 39,
        "character_table": 78,
        "dual_hypergroup": 78,
        "normalize": 0,
        "rescale": 0,
    }


def test_analyze_builds_the_support_tensor_once():
    ring = rep_ring(catalog("S4"))
    try:
        spy = _spy_everywhere(core._constituents)
        analyze(ring, modular_candidate=True)
    finally:
        mock.patch.stopall()
    assert sum(c.args[0] is ring for c in spy.call_args_list) == 1


def test_float_ring_is_validated_once_at_the_analysis_tolerance():
    ring = hg.FusionData("Z2/float", (0, 1), [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    tol = hg.Tolerance(abs=1e-8, rel=1e-8)
    with mock.patch.object(core, "validate", wraps=core.validate) as spy:
        analyze(ring, tol=tol)
    primal = [c for c in spy.call_args_list if c.args[0] is ring]
    assert len(primal) == 1 and primal[0].args[1] == tol
    # the dual and the double dual are validated at the same tolerance
    assert len(spy.call_args_list) == 3
    assert all(c.args[1] == tol for c in spy.call_args_list)


def test_analyze_reads_the_fp_column_order_and_dual_alignment_once():
    ring = rep_ring(catalog("S4"))
    try:
        spies = {
            name: _spy_everywhere(fn)
            for name, fn in [
                ("positive scan", spectra._positive_columns),
                ("fp_character", spectra.fp_character),
                ("order", spectra.order),
                ("dual", dual.dual_hypergroup),
            ]
        }
        spies["match"] = mock.patch.object(
            analysis, "_match_columns", wraps=spectra._match_columns
        ).start()
        analyze(ring, modular_candidate=True)
    finally:
        mock.patch.stopall()
    counts = {name: spy.call_count for name, spy in spies.items()}
    # the positive columns are scanned once per table (the ring's and its
    # dual's) and fp_character reads that scan: for d, and in each order
    # call; n(H) is the FP codegree of the table, which order reads once per
    # analysis (the ring's and its dual's), and each dual is built from its
    # analysis's n(H); the dual's characters are aligned with the basis once
    assert counts == {
        "positive scan": 2,
        "fp_character": 3,
        "order": 2,
        "match": 1,
        "dual": 2,
    }


def test_dual_tensor_snaps_only_its_non_integer_entries():
    a = hg.RingAnalysis(rep_ring(catalog("S3")))
    a.n_h
    with mock.patch.object(tolerance, "snap_value", wraps=tolerance.snap_value) as spy:
        dual = hg.dual_hypergroup(a)
    fractions = sum(not isinstance(x, int) for x in dual.tensor.ravel())
    assert dual.is_exact and 0 < fractions < dual.rank**3
    assert spy.call_count == fractions


def test_near_groups_that_failed_rescale_now_report():
    # the double-dual check normalizes by a float FP column that is one ulp
    # off 1 at the unit; these rings used to raise InvalidRescale
    # K(G, m): FPdim(rho) = (m + sqrt(m^2 + 4|G|)) / 2
    k30 = analyze(near_group([3], 0))
    assert abs(max(k30.fp_dims) - math.sqrt(3)) < 1e-9
    assert k30.burnside["is_burnside"] and k30.burnside["is_dual_burnside"]
    assert k30.nilpotency_class == 2
    k81 = analyze(near_group([8], 1))
    assert abs(max(k81.fp_dims) - (1 + math.sqrt(33)) / 2) < 1e-9
    assert k81.burnside["is_burnside"] and not k81.burnside["is_dual_burnside"]
    assert k81.nilpotency_class is None
    assert k30.dual is not None and k81.dual is not None


def test_dim_squares_are_exact_where_the_fp_column_is_not():
    # Ising: d = (1, 1, sqrt 2), so exact_d is None; x_s x_s = 1 + psi is
    # confirmed by its determinant, the unit multiples are read off x_0
    a = hg.RingAnalysis(ising())
    assert a.exact_d is None
    assert a.dim_squares == [1, 1, 2]
    assert all(type(x) is int for x in a.dim_squares)
    k30 = hg.RingAnalysis(near_group([3], 0))
    assert k30.dim_squares == [1, 1, 1, 3]
    assert all(type(x) is int for x in k30.dim_squares)


def test_exact_d_of_a_rational_fp_column():
    a = hg.RingAnalysis(rep_ring(catalog("S3")))
    assert sorted(a.exact_d) == [1, 1, 2]
    assert all(type(x) is int for x in a.exact_d)
    assert a.fpdim == 6 and a.dim_squares == [x * x for x in a.exact_d]


def test_corpus_needs_at_most_two_determinant_confirmations():
    # every corpus ring but Ising has a rational FP column, and its FP values
    # are read off exact_d; Ising confirms FPdim and d_s^2
    with mock.patch.object(
        analysis, "verify_fp_value", wraps=analysis.verify_fp_value
    ) as spy:
        for ring in corpus():
            analyze(ring, modular_candidate=True)
    assert spy.call_count <= 2


@pytest.mark.parametrize("group, m", [([2, 2], 3), ([2], 2)], ids=["exact dual", "float dual"])
def test_integer_ring_file_tensors_skip_the_per_entry_scalar_rule(tmp_path, group, m):
    path = str(tmp_path / "ring.json")
    dump(near_group(group, m), path)
    entries, coerce = core._entries, core._coerce_scalar
    inside, from_tensors = [], []

    def tensor_entries(tensor):
        inside.append(tensor)
        try:
            return entries(tensor)
        finally:
            inside.pop()

    def per_entry(x):
        if inside:
            from_tensors.append(x)
        return coerce(x)

    with mock.patch.object(core, "_entries", side_effect=tensor_entries) as built, \
            mock.patch.object(core, "_coerce_scalar", side_effect=per_entry):
        analyze(load(path))
    # the file, its dual and the double dual
    assert built.call_count == 3
    assert from_tensors == []


# ---------------------------------------------------------------- guard

SRC = pathlib.Path(analysis.__file__).parent


def ring_and_table_signatures(source: str) -> list:
    """The public functions and methods of `source` with one parameter
    annotated FusionData and another annotated CharacterTable."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            args = node.args
            notes = [ast.unparse(p.annotation) for p in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                     if p.annotation is not None]
            if any("FusionData" in n for n in notes) and any("CharacterTable" in n for n in notes):
                found.append(node.name)
    return found


def test_guard_sees_a_ring_and_table_signature():
    source = (
        "def pair(data: FusionData, table: CharacterTable): ...\n"
        "def quoted(data: 'FusionData', *, table: 'CharacterTable | None' = None): ...\n"
        "def one(a: RingAnalysis, table: CharacterTable): ...\n"
        "def _private(data: FusionData, table: CharacterTable): ...\n"
    )
    assert ring_and_table_signatures(source) == ["pair", "quoted"]


def test_no_public_function_takes_a_ring_and_a_table():
    """A ring and a table built apart could disagree: every function that
    reads both takes the RingAnalysis that holds them."""
    found = {path.name: ring_and_table_signatures(path.read_text()) for path in SRC.rglob("*.py")}
    assert {name: fns for name, fns in found.items() if fns} == {}


def test_every_stage_reads_the_ring_at_its_analysis_tolerance():
    """A stage that took a ring and a tolerance could read the ring at a
    tolerance other than its analysis's: the stages import no default
    tolerance, no public function of theirs takes a ring as `data`, and the
    constituent relation lives on the analysis alone."""
    stages = ["structure", "criteria", "burnside", "galois", "dual"]
    found = {}
    for stage in stages:
        tree = ast.parse((SRC / f"{stage}.py").read_text())
        imports = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.name == "DEFAULT_TOL"]
        params = [f"{node.name}({p.arg})" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  for p in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
                  if p.arg == "data"]
        if imports or params:
            found[stage] = imports + params
    assert found == {}
    assert not hasattr(hg.FusionData, "support_at")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(defining: list, reading: list) -> list:
    """The fields, as "Class.field", of the @dataclass classes in the
    `defining` sources that no `reading` source reads as an attribute.  A
    class that reads its own `__dataclass_fields__` reads every field."""
    read = {node.attr for source in reading for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for source in defining:
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
                continue
            if any(getattr(node, "attr", None) == "__dataclass_fields__" for node in ast.walk(cls)):
                continue
            unread += [f"{cls.name}.{f.target.id}" for f in cls.body
                       if isinstance(f, ast.AnnAssign) and f.target.id not in read]
    return unread


def test_guard_sees_an_unread_field():
    source = (
        "@dataclass\nclass A:\n    read: int\n    unread: int\n    written: int\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    kept: int\n    lost: int\n"
        "@dataclass\nclass C:\n    whole: int\n"
        "    def as_dict(self):\n        return list(self.__dataclass_fields__)\n"
        "class D:\n    plain: int\n"
        "def f(a, b):\n    a.written = 1\n    return a.read + b.kept + B(lost=1).kept\n"
    )
    assert unread_fields([source], [source]) == ["A.unread", "A.written", "B.lost"]


def test_every_record_field_is_read():
    """A field that nothing reads is code that buys nothing: every field of
    a library dataclass is read somewhere in the library, tests or demos."""
    tests = pathlib.Path(__file__).resolve().parent
    defining = [path.read_text() for path in SRC.rglob("*.py")]
    reading = defining + [path.read_text() for folder in (tests, tests.parent / "demos")
                          for path in folder.rglob("*.py")]
    assert unread_fields(defining, reading) == []


# (module, function) whose every write into a record must be computed: a
# literal True or False there is a field no ring can change
RECORD_WRITERS = [("report.py", "analyze"), ("burnside.py", "burnside_report"),
                  ("core.py", "validate")]


def literal_record_values(source: str, function: str) -> list:
    """The line numbers at which `function` in `source` writes a literal
    True or False into a record: as a dict value, as a keyword argument, or
    assigned to an attribute or to an item of one (`r.x = True`,
    `r.x["k"] = False`).  An item of a local array (`mask[i] = True`) is not
    a record."""
    def is_record(target):
        return isinstance(target, ast.Attribute) or (
            isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute))

    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name != function:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                values = node.values
            elif isinstance(node, ast.Call):
                values = [k.value for k in node.keywords]
            elif isinstance(node, ast.Assign) and any(map(is_record, node.targets)):
                values = [node.value]
            else:
                continue
            found += [v.lineno for v in values
                      if isinstance(v, ast.Constant) and isinstance(v.value, bool)]
    return sorted(found)


def test_guard_sees_a_literal_record_value():
    source = (
        "def build(a, mask):\n"
        "    r = R(kind='x', real=True)\n"
        "    r.dual = {'rn': a.rn, 'iso': True}\n"
        "    r.galois['ok'] = False\n"
        "    r.flag = True\n"
        "    mask[0] = True\n"
        "    done = False\n"
        "    return sorted(a, key=len)\n"
        "def other():\n"
        "    return {'x': True}\n"
    )
    assert literal_record_values(source, "build") == [2, 3, 4, 5]


def test_no_report_value_is_a_literal_bool():
    """A check that passes or raises has no False to report: its field would
    be True in every report, so the report writes only computed values."""
    found = {f"{module}:{function}": literal_record_values((SRC / module).read_text(), function)
             for module, function in RECORD_WRITERS}
    assert {k: v for k, v in found.items() if v} == {}
