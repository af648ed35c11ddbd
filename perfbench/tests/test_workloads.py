"""Workload inputs, output checks and metric helpers."""

import json

import numpy as np
import pytest

from mvmae.autodiff import Parameter, ops
from mvmae.config import desk_config, replace
from mvmae.data import make_dataset
import workloads


def _small(cfg):
    return replace(cfg.data, instances_per_class=2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_inputs_are_a_function_of_the_seed(name):
    a = workloads.make_workload(name, 7)
    b = workloads.make_workload(name, 7)
    other = workloads.make_workload(name, 8)
    assert a == b
    assert a.run_seed == a.cfg.data.dataset_seed == 7
    clouds_a, labels_a = make_dataset(_small(a.cfg))
    clouds_b, labels_b = make_dataset(_small(b.cfg))
    clouds_c, _ = make_dataset(_small(other.cfg))
    assert np.array_equal(labels_a, labels_b)
    assert all(np.array_equal(x.points, y.points) for x, y in zip(clouds_a, clouds_b))
    assert not np.array_equal(clouds_a[0].points, clouds_c[0].points)


def test_dense_differs_from_desk_only_in_points():
    dense = workloads.make_workload("dense_pretrain", 0).cfg
    desk = workloads.make_workload("desk_pretrain", 0).cfg
    assert dense.data.n_points == 8192
    assert replace(dense, data=replace(dense.data, n_points=desk.data.n_points)) == desk
    assert desk == replace(desk_config(), data=replace(desk_config().data, dataset_seed=0))


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.make_workload("nope", 0)


def _outputs():
    return {
        "rows": [[1e-3, 0.04, 0.09, 0.13], [9.9e-4, 0.03, 0.07, 0.10]],
        "linear_accuracy": 0.75,
        "fewshot_accuracy": 0.5,
    }


def test_reference_check_and_its_negative_control():
    outputs = _outputs()
    assert workloads.reference_mismatches(outputs, outputs) == []
    assert workloads.reference_mismatches(outputs, workloads.corrupted(outputs))
    within = json.loads(json.dumps(outputs))
    within["rows"][1][2] *= 1 + workloads.LOSS_RTOL / 2
    within["linear_accuracy"] += workloads.ACCURACY_ATOL / 2
    assert workloads.reference_mismatches(outputs, within) == []
    for field, value in (("linear_accuracy", 0.9), ("fewshot_accuracy", 0.2)):
        assert workloads.reference_mismatches(outputs, {**outputs, field: value})
    assert workloads.reference_mismatches(outputs, {**outputs, "rows": outputs["rows"][:1]})


def test_recorded_references_are_well_formed():
    recorded = json.loads(workloads.REFERENCE_PATH.read_text())["workloads"]
    assert set(recorded) == set(workloads.WORKLOADS)
    for name, seeds in recorded.items():
        rows = workloads.STEPS_PER_RUN.get(name, workloads.SETUP_STEPS)
        for outputs in seeds.values():
            assert len(outputs["rows"]) == rows
            assert all(len(row) == 4 and all(np.isfinite(row)) for row in outputs["rows"])
            assert 0.0 <= outputs["linear_accuracy"] <= 1.0
            assert 0.0 <= outputs["fewshot_accuracy"] <= 1.0


def test_row_check_rejects_non_finite_and_misnumbered_rows():
    assert workloads.row_ok("0\t0.001\t0.1\t0.2\t0.3", 0, None)
    assert not workloads.row_ok("0\t0.001\tnan\t0.2\t0.3", 0, None)
    assert not workloads.row_ok("1\t0.001\t0.1\t0.2\t0.3", 0, None)
    assert not workloads.row_ok("0\t0.001\t0.1\t0.2\t0.3", 0, [0.001, 0.1, 0.2, 0.31])


def test_tail_percentile_and_count_beyond():
    assert workloads.tail(list(range(41, 0, -1)), 75) == (31.0, 10)
    assert workloads.tail(list(range(1001)), 99) == (990.0, 10)


def test_tail_percentiles_leave_ten_operations_beyond():
    # operations per run at this commit: desk ~50 steps, dense ~22, frozen 2000
    for name, ops in (("desk_pretrain", 48), ("dense_pretrain", 20), ("frozen_eval", 1000)):
        assert ops * (1 - workloads.TAIL_PERCENTILE[name] / 100) >= 10


def test_graph_node_count_walks_nodes_that_need_gradients():
    w = Parameter(np.ones((2, 2)), "w")
    x = ops.matmul(ops.as_tensor(np.ones((1, 2))), w)  # constant input: not counted
    loss = ops.sum_(ops.mul(x, x))
    assert workloads.count_graph_nodes(loss) == 4  # w, matmul, mul, sum


def test_check_subset_takes_the_first_clouds_of_each_class():
    labels = np.repeat(np.arange(5), 30)
    subset = workloads.check_subset(labels)
    assert len(subset) == workloads.CHECK_CLASSES * workloads.CHECK_PER_CLASS
    assert set(labels[subset]) == set(range(workloads.CHECK_CLASSES))
