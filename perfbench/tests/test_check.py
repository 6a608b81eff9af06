"""The output check trips on a single perturbed simulated float."""

import math

import check


def _outputs():
    return {
        "fig10/Node-Aware/4": repr(1.2921493333333334e-05),
        "v-node-aware/16x8/skewed-moe": "correct=True elapsed=4.392310666666657e-05 phases=8c1d",
        "count/simmpi.events": "159744",
    }


def test_identical_outputs_pass():
    outputs = _outputs()
    expected = {k: check.pinned_form(v) for k, v in outputs.items()}
    assert check.mismatches(outputs, expected) == []


def test_one_ulp_on_one_float_is_a_mismatch():
    outputs = _outputs()
    expected = {k: check.pinned_form(v) for k, v in outputs.items()}
    nudged = math.nextafter(1.2921493333333334e-05, 1.0)
    outputs["fig10/Node-Aware/4"] = repr(nudged)
    assert check.mismatches(outputs, expected) == ["fig10/Node-Aware/4"]


def test_digest_pinned_value_detects_perturbation():
    outputs = _outputs()
    expected = {k: check.pinned_form(v) for k, v in outputs.items()}
    assert expected["v-node-aware/16x8/skewed-moe"].startswith("sha256:")
    outputs["v-node-aware/16x8/skewed-moe"] = outputs["v-node-aware/16x8/skewed-moe"].replace(
        "4.392310666666657e-05", repr(math.nextafter(4.392310666666657e-05, 0.0)))
    assert check.mismatches(outputs, expected) == ["v-node-aware/16x8/skewed-moe"]


def test_failed_verdict_and_missing_key_are_mismatches():
    outputs = _outputs()
    outputs["verify/default/1"] = "ok=False family=uniform"
    expected = {k: check.pinned_form(v) for k, v in outputs.items()}
    del outputs["count/simmpi.events"]
    assert sorted(check.mismatches(outputs, expected)) == ["count/simmpi.events",
                                                          "verify/default/1"]


def test_split_common_round_trips():
    per_variant = {0: {"a": "1", "b": "x"}, 1: {"a": "1", "b": "y"}}
    pins = {"w": {"outputs": check.split_common(per_variant)}}
    assert pins["w"]["outputs"]["common"] == {"a": "1"}
    for variant, outputs in per_variant.items():
        assert check.expected_outputs(pins, "w", variant) == outputs
