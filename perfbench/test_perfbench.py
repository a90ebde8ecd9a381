"""Self-tests of the benchmark: job generation, config validity, span arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from qmemristor import dynamics, linalg  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_jobs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_jobs(workload):
    first = workloads.generate(workload, 7)
    second = workloads.generate(workload, 8)
    assert all(a != b for a, b in zip(first, second))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_generated_configs_validate_and_stay_in_range(workload, seed):
    jobs = workloads.generate(workload, seed)
    workloads.validate_jobs(jobs)
    for job in jobs:
        cfg = job.config
        if cfg.mode == "single":
            assert workloads.A_RANGE[0] <= cfg.a1 <= workloads.A_RANGE[1]
            assert 0.0 <= cfg.b1 < 2 * math.pi
            assert workloads.GAMMA0_RANGE[0] <= cfg.gamma0_1 <= workloads.GAMMA0_RANGE[1]
        for d in job.deltas or (cfg.delta,):
            assert workloads.DELTA_RANGE[0] <= d <= workloads.DELTA_RANGE[1]


def test_stratified_draws_cover_every_stratum_per_block():
    import numpy as np
    u = workloads._stratified(np.random.default_rng(3), 30, 0.0, 1.0, block=10)
    for block in u.reshape(3, 10):
        assert sorted(np.floor(block * 10).astype(int)) == list(range(10))


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_span_self_time_of_nested_calls():
    # outer runs 0..10 and calls inner twice, at 2..5 and 6..7
    tracer = Tracer(clock=_fake_clock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    inner = tracer.wrap(lambda: None, "inner", "b")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer", "a")()
    assert tracer.self_times() == [6.0, 3.0, 1.0]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "work": 1, "busy_s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "work": 2, "busy_s": 4.0, "self_s": 4.0}
    assert tracer.summary(by="name")["inner"] == summary["b"]


def test_nested_spans_of_one_layer_count_once_for_busy_time():
    # outer (layer a) 0..10 > middle (layer b) 1..9 > inner (layer a) 2..4
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 4.0, 9.0, 10.0]))
    inner = tracer.wrap(lambda: None, "inner", "a")
    middle = tracer.wrap(inner, "middle", "b")
    tracer.wrap(middle, "outer", "a")()
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "work": 1, "busy_s": 10.0, "self_s": 4.0}
    assert summary["b"] == {"calls": 1, "work": 1, "busy_s": 8.0, "self_s": 6.0}
    # by name, a span still counts as outermost only with no ancestor in its layer
    by_name = tracer.summary(by="name")
    assert by_name["outer"] == {"calls": 1, "work": 1, "busy_s": 10.0, "self_s": 2.0}
    assert by_name["inner"] == {"calls": 0, "work": 0, "busy_s": 0.0, "self_s": 2.0}


def test_patching_catches_imported_names_and_restores_them():
    original = dynamics.require_density_matrix
    grid = dynamics.TimeGrid(1, 8)
    init, profile = dynamics.InitialState(0.5, 0.1), dynamics.DecayProfile(0.4, 1.0)
    tracer = Tracer()
    with tracer.patched(layers.TARGETS):
        dynamics.run_single(init, profile, grid)
        dynamics.analytic_oracle(init, profile, 0.5)
        dynamics.analytic_oracle(init, profile, 1.0)
    assert dynamics.require_density_matrix is original
    assert linalg.require_density_matrix is original
    metrics = layers.layer_metrics(tracer)
    assert metrics["validate.calls"] == grid.n_steps
    assert metrics["step.steps"] == grid.n_steps
    assert metrics["kappa.calls"] == 1
    assert metrics["kappa.steps"] == grid.n_steps
    assert metrics["kappa.interval.calls"] == 2
    assert metrics["oracle.analytic.calls"] == 2
    assert metrics["ops.calls"] == 2 * grid.n_steps


def test_reference_compare_separates_digits_from_values():
    ref = "t,x\n0,1.5\n1,-2.25\n"
    close = "t,x\n0,1.5000000000001\n1,-2.25\n"
    far = "t,x\n0,1.5001\n1,-2.25\n"
    assert reference.compare(ref, ref) == []
    assert reference.compare(ref, close) == []
    assert reference.digest(ref) != reference.digest(close)
    assert len(reference.compare(ref, far)) == 1
    assert reference.compare(ref, "t,x\n0,1.5\n") != []


def test_benchmark_json_lists_the_metrics_the_runs_report():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    traced_only = set(layers.METRICS) - set(layers.layer_metrics(Tracer()))
    assert all(name.startswith("trace.") for name in traced_only)
