"""Self-check of the benchmark: every wrapper is reached on its workload.

    python3 -m pytest perfbench -q

Runs one traced unit of each workload. A change that rebinds a name so that
the traced run no longer sees a call fails here, and in every ``--trace 1``
run, instead of reporting zeros.
"""

import contextlib
import functools
import io
import json
import math
import os
import shutil
import time
import types

import pytest

import run

run.import_package()

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wpcn_sched import lp, stm  # noqa: E402


@pytest.fixture
def workdir():
    path = run.RUN_DIR / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def traced_unit(name: str, workdir) -> dict:
    wl = workloads.make(name, seed=1, workdir=workdir)
    tracer = tracing.Tracer()
    unit = wl.run(0, tracer)
    assert unit.failures == []
    assert unit.failed == 0
    return tracer.summary()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_unit_reaches_every_assigned_wrapper(name, workdir):
    assert workloads.self_check(name, traced_unit(name, workdir)) == []


def test_heuristic_sweep_never_solves_an_lp(workdir):
    summary = traced_unit("heuristic-sweep", workdir)
    assert summary["lp.solve"]["calls"] == 0
    assert summary["cli.run_trial"]["calls"] == 140


def test_oracle_solves_every_order_of_every_trial(workdir):
    summary = traced_unit("oracle-stm", workdir)
    trials = summary["cli.run_trial"]["calls"]
    assert trials == 6
    assert summary["stm.fixed_order_stm"]["calls"] == math.factorial(6) * trials
    assert summary["lp.solve"]["calls"] == math.factorial(6) * trials


def test_a_bypassed_wrapper_fails_the_self_check(workdir, monkeypatch):
    # stm reaching the solver through another name hides lp.solve from the tracer
    monkeypatch.setattr(stm, "lp", types.SimpleNamespace(
        **{**vars(lp), "solve": functools.partial(lp.solve)}))
    problems = workloads.self_check("fixed-order-lp", traced_unit("fixed-order-lp", workdir))
    assert problems == ["lp.solve was never called"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    rate, sample = tracing.TRACED.index("model.rate"), tracing.TRACED.index("netgen.sample")
    tracer.spans = [[sample, 0.0, 10.0, -1, 0, False],
                    [rate, 1.0, 3.0, 0, 0, False],
                    [rate, 4.0, 5.0, 0, 0, True]]
    summary = tracer.summary()
    assert summary["netgen.sample"] == {"calls": 1, "failed": 0, "total_s": 10.0, "self_s": 7.0}
    assert summary["model.rate"] == {"calls": 2, "failed": 1, "total_s": 3.0, "self_s": 3.0}


def test_times_are_scaled_by_the_samples_around_them():
    host = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_S
    # samples at [0, 1], [5, 6] and [9, 10]; the host runs at half, then a quarter, speed
    host.starts, host.ends = [0.0, 5.0, 9.0], [1.0, 6.0, 10.0]
    host.kernel_s = [2 * nominal, 2 * nominal, 6 * nominal]
    assert host.scaled(2.0, 4.0) == pytest.approx((2.0, 2.0 / 2))
    assert host.scaled(6.5, 8.5) == pytest.approx((2.0, 2.0 / 4))
    # the sample inside is left out
    assert host.scaled(2.0, 8.0) == pytest.approx((5.0, 3.0 / 2 + 2.0 / 4))
    assert host.scaled(1.0, 9.0) == pytest.approx((7.0, 4.0 / 2 + 3.0 / 4))
    for outside in ((0.5, 2.0), (2.0, 9.5)):
        with pytest.raises(ValueError):
            host.scaled(*outside)


def test_the_timer_samples_inside_a_long_interval():
    with hostspeed.HostSpeed() as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * hostspeed.PERIOD_S:
            pass
        stop = time.perf_counter()
    assert len(host.starts) >= 5
    raw, scaled = host.scaled(start, stop)
    assert raw < stop - start and scaled > 0


def test_result_names_the_metrics_of_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOAD_NAMES)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "heuristic-sweep", "--seed", "3", "--seconds", "0.2"])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 140
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}

    summary = tracing.Tracer().summary()
    layer = tracing.layer_metrics([summary], [0.0])
    assert {name: m["unit"] for name, m in layer.items()} == \
        {m["name"]: m["unit"] for m in bench["per_layer"]}
