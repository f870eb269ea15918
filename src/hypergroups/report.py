"""The full analysis pipeline and its report record.

analyze() drives validate -> spectra -> dual -> burnside -> structure ->
galois -> criteria and collects everything into an AnalysisReport that renders
deterministically (identical inputs, seed and tolerances give byte-identical
structured output).  Each section is read from one RingAnalysis: the
`burnside` section is `burnside_report`, the residuals are `identity_checks`,
and the categorification-obstruction note is written when the `burnside`
exclusion verdict excludes the ring.

Every field holds a value some ring can change: the checks that only pass or
raise (`double_dual_check`, `check_codegree_conjugation`) write no field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__ as _version
from .analysis import RingAnalysis
from .burnside import burnside_report, identity_checks
from .core import FusionData
from .criteria import exclusions
from .dual import dual_codegrees, double_dual_check
from .errors import InexactTensor, NotNormalizable
from .galois import check_codegree_conjugation, galois_orbits, weak_integrality
from .structure import kernel_of_character, universal_grading
from .tolerance import DEFAULT_TOL, SNAP_DENOMINATOR_BOUND, Tolerance

__all__ = ["AnalysisReport", "analyze", "render_text", "render_structured"]

REPORT_DIGITS = 10


@dataclass
class AnalysisReport:
    name: str
    rank: int
    scalar_kind: str
    flags: dict
    seed: int
    tolerances: dict
    version: str = _version
    fp_dims: list | None = None
    character_table: list | None = None
    codegrees: list | None = None
    order: float | None = None
    dual: dict | None = None
    burnside: dict | None = None
    grading: dict | None = None
    nilpotency_class: int | None = None
    galois: dict | None = None
    kernels: list | None = None
    weak_integrality: str | None = None
    exclusions: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _round(x: float) -> float:
    r = round(float(x), REPORT_DIGITS)
    return 0.0 if r == 0 else r


def _complex_pair(z) -> list:
    z = complex(z)
    return [_round(z.real), _round(z.imag)]


def analyze(
    data: FusionData,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
    exact_only: bool = False,
    modular_candidate: bool = False,
) -> AnalysisReport:
    a = RingAnalysis(data, tol, seed)
    flags = a.flags
    if exact_only and not data.is_exact:
        raise InexactTensor(f"{data.name}: --exact-only with a floating tensor")
    report = AnalysisReport(
        name=data.name,
        rank=data.rank,
        scalar_kind=data.scalar_kind,
        flags=flags.as_dict(),
        seed=seed,
        tolerances={
            "abs": tol.abs,
            "rel": tol.rel,
            "snap_denominator_bound": SNAP_DENOMINATOR_BOUND,
        },
    )
    if not flags.abelian:
        report.notes.append("non-abelian data: spectral analysis skipped")
        return report

    table = a.table
    report.character_table = [
        [_complex_pair(table.values[i, j]) for j in range(data.rank)]
        for i in range(data.rank)
    ]
    report.codegrees = [_round(x) for x in table.codegrees]

    try:
        a.d
    except NotNormalizable as exc:
        report.notes.append(f"no FP character: {exc}")
        return report

    report.fp_dims = [_round(x) for x in a.d]
    report.order = _round(a.n_h)

    dfl = a.dual.flags
    nhat = dual_codegrees(a)
    double_dual_check(a)
    report.dual = {
        "orders_hat": [_round(x) for x in a.orders_hat],
        "involution_hat": list(a.dual.data.involution),
        "rn": dfl.real_non_negative,
        "rational": dfl.rational,
        "h_integral": dfl.h_integral,
        "codegrees_hat": [_round(x) for x in nhat],
    }

    report.burnside = burnside_report(a)
    report.residuals = {k: _round(v) for k, v in identity_checks(a).items()}

    grading = universal_grading(a)
    report.grading = {
        "adjoint": list(a.adjoint.indices),
        "components": [list(c) for c in grading.components],
        "group_order": grading.group_order,
        "invariant_factors": list(grading.iso_class),
    }
    report.nilpotency_class = a.series.nilpotency_class

    report.kernels = [list(kernel_of_character(a, j).indices) for j in range(data.rank)]

    report.weak_integrality = weak_integrality(a)

    if flags.rational:
        orbits = galois_orbits(a)
        check_codegree_conjugation(a, orbits)
        report.galois = {
            "orbits": [list(o) for o in orbits.orbits],
            "rational_characters": [
                j for j in range(data.rank) if orbits.rational_mask[j]
            ],
            "max_certificate_residual": _round(
                max((v for v in orbits.certificates.values()), default=0.0)
            ),
        }

    if flags.fusion_ring:
        verdicts = exclusions(a, modular_candidate)
        report.exclusions = [
            {
                "test": v.test_name,
                "applicable": v.applicable,
                "excluded": v.excluded,
                "certificate": v.certificate,
            }
            for v in verdicts
        ]
        if any(v.test_name == "burnside" and v.excluded for v in verdicts):
            report.notes.append(
                "weakly-integral fusion ring with h-integral dual is not Burnside: "
                "no weakly-integral categorification exists"
            )
    return report


def render_structured(report: AnalysisReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"


def render_text(report: AnalysisReport) -> str:
    lines = [f"ring {report.name}  rank {report.rank}  scalars {report.scalar_kind}"]
    flags_on = [k for k, v in report.flags.items() if v]
    lines.append(f"flags: {', '.join(flags_on) if flags_on else 'none'}")
    if report.fp_dims is not None:
        lines.append(f"FP dims: {report.fp_dims}")
        lines.append(f"FPdim(H) = {report.order}  ({report.weak_integrality})")
    if report.codegrees is not None:
        lines.append(f"formal codegrees: {report.codegrees}")
    if report.dual is not None:
        d = report.dual
        lines.append(
            f"dual: RN={d['rn']} rational={d['rational']} h-integral={d['h_integral']} "
            f"orders {d['orders_hat']}"
        )
    if report.burnside is not None:
        b = report.burnside
        w1 = "" if b["burnside_witness"] is None else f" (witness {b['burnside_witness']})"
        w2 = "" if b["dual_witness"] is None else f" (witness {b['dual_witness']})"
        lines.append(
            f"Burnside: {b['is_burnside']}{w1}   dual-Burnside: {b['is_dual_burnside']}{w2}"
        )
        lines.append(
            f"grouplikes: {b['grouplike_elements']}   vanishing: {b['vanishing_elements']}"
        )
    if report.grading is not None:
        g = report.grading
        lines.append(
            f"adjoint: {g['adjoint']}   grading group order {g['group_order']} "
            f"invariants {g['invariant_factors']}"
        )
    if report.nilpotency_class is not None:
        lines.append(f"nilpotency class: {report.nilpotency_class}")
    elif report.grading is not None:
        lines.append("nilpotency class: not nilpotent")
    if report.galois is not None:
        lines.append(f"Galois orbits: {report.galois['orbits']}")
    for v in report.exclusions:
        mark = "EXCLUDED" if v["excluded"] else ("ok" if v["applicable"] else "n/a")
        lines.append(f"criterion {v['test']}: {mark} -- {v['certificate']}")
    if report.residuals:
        worst = max(report.residuals.values())
        lines.append(f"identity residuals: max {worst:.3e}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
