"""One analysis computes each shared invariant once."""

import math
from unittest import mock

import hypergroups as hg
from hypergroups import analysis, core, dual
from hypergroups.builders import catalog, near_group, rep_ring
from hypergroups.report import analyze


def test_analyze_builds_each_invariant_once():
    built = rep_ring(catalog("S3"))
    ring = hg.FusionData(built.name, built.involution, built.tensor)  # not yet validated
    spies = {
        name: mock.patch.object(mod, attr, wraps=getattr(mod, attr))
        for name, mod, attr in [
            ("validate", core, "validate"),
            ("dual", analysis, "dual_hypergroup"),
            ("double dual", dual, "dual_hypergroup"),
            ("table", analysis, "character_table"),
            ("dual table", dual, "character_table"),
            ("vanishing", analysis, "vanishing_elements"),
        ]
    }
    mocks = {name: p.start() for name, p in spies.items()}
    try:
        analyze(ring, modular_candidate=True)
    finally:
        mock.patch.stopall()
    counts = {name: m.call_count for name, m in mocks.items()}
    # the ring, its dual and the double dual are validated once each
    assert counts == {
        "validate": 3,
        "dual": 1,
        "double dual": 1,
        "table": 1,
        "dual table": 1,
        "vanishing": 1,
    }


def test_analyze_builds_the_support_tensor_once():
    ring = rep_ring(catalog("S4"))
    with mock.patch.object(core, "_constituents", wraps=core._constituents) as spy:
        analyze(ring, modular_candidate=True)
    assert sum(c.args[0] is ring for c in spy.call_args_list) == 1


def test_float_ring_is_validated_once_at_the_analysis_tolerance():
    ring = hg.FusionData("Z2/float", (0, 1), [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    tol = hg.Tolerance(abs=1e-8, rel=1e-8)
    with mock.patch.object(core, "validate", wraps=core.validate) as spy:
        analyze(ring, tol=tol)
    primal = [c for c in spy.call_args_list if c.args[0] is ring]
    assert len(primal) == 1 and primal[0].args[1] == tol


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
    assert k30.dual["double_dual_isomorphic"] and k81.dual["double_dual_isomorphic"]
