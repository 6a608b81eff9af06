"""Generated inputs are a pure function of the workload seed."""

import numpy as np
import pytest

import paths


@pytest.mark.parametrize("workload", paths.WORKLOADS)
def test_input_spec_is_pure(workload):
    assert paths.input_spec(workload, 7) == paths.input_spec(workload, 7)
    assert paths.input_spec(workload, 7) != paths.input_spec(workload, 8)
    assert paths.input_spec(workload, 7) == paths.input_spec(workload, 7 + paths.VARIANTS)


def test_built_matrices_depend_only_on_the_seed():
    first = paths.build_inputs("figure-sweep", 5)["matrices"]
    again = paths.build_inputs("figure-sweep", 5)["matrices"]
    other = paths.build_inputs("figure-sweep", 6)["matrices"]
    for name in first:
        assert np.array_equal(first[name].bytes, again[name].bytes)
    assert any(not np.array_equal(first[n].bytes, other[n].bytes) for n in first)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        paths.input_spec("no-such-workload", 0)


def test_verify_seed_lists_depend_only_on_the_seed():
    first = paths.build_inputs("verify-sweep", 3)["samplers"]
    again = paths.build_inputs("verify-sweep", 3)["samplers"]
    other = paths.build_inputs("verify-sweep", 4)["samplers"]
    seeds = [(name, seeds) for name, seeds, _options in first]
    assert seeds == [(name, s) for name, s, _options in again]
    assert seeds != [(name, s) for name, s, _options in other]
    # The largest-scenario anchor is shared by every seed; the streams are not.
    assert first[0][:2] == other[0][:2]


def test_verify_variants_draw_the_same_cost_classes():
    from repro.verify.scenario import ScenarioGenerator

    def classes(seed):
        return [[paths.cost_class(ScenarioGenerator(paths._VERIFY_MAX_RANKS, **options)
                                  .scenario(s)) for s in seeds]
                for _name, seeds, options in paths.build_inputs("verify-sweep", seed)["samplers"]]

    assert classes(3) == classes(4)
