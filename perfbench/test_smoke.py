"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Run from the root of a checkout.  It runs every workload once on a tiny seed,
checks that every metric BENCHMARK.json names is printed with its unit, and
checks that the answer checks reject wrong answers.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import bredonkit           # noqa: E402
import bredonkit.cli       # noqa: E402
import checks              # noqa: E402
import tracing             # noqa: E402
import worker              # noqa: E402
import workloads           # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=200)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_printed_with_units(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "0",
                          "--seconds", "1", "--trace", "0"))
    assert result["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_printed_with_units():
    result = _result(_run(ROOT, "--workload", "euler_chain", "--seed", "0",
                          "--seconds", "1", "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    layers = tracing.load_layers()
    assert [(n, u, b) for n, u, b in tracing.per_layer_metrics(layers)] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "point_table", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _runner():
    return worker.Runner(bredonkit, bredonkit.cli.main, worker._Timer())


def test_checker_rejects_a_wrong_recorded_answer():
    job = next(j for j in workloads.universe("point_table")
               if j.argv[:3] == ["euler", "--n", "6"])
    runner = _runner()
    runner.run(job, {})
    with open(worker.ANSWERS_PATH) as handle:
        answers = json.load(handle)
    assert runner.check(answers, True) == {}
    tampered = dict(answers)
    tampered[job.key] = "0" * 32
    assert job.key in runner.check(tampered, True)


def test_independent_checks_reject_wrong_answers():
    job = next(j for j in workloads.universe("point_table")
               if j.check == "point_rows" and j.params["p"] == 3)
    runner = _runner()
    runner.run(job, {})
    (_, payload), = runner.kept
    assert checks.point_rows(job, payload, {}) is None
    doc = json.loads(payload)
    doc["rows"][0]["dim"] += 1
    assert checks.point_rows(job, json.dumps(doc), {}) is not None

    x = bredonkit.periodic_free_model(3, 5)
    unit = bredonkit.unit_class(x)
    classes = [unit]
    while not classes[-1].is_zero():
        classes.append(bredonkit.module_action(x, "a", classes[-1]))
    table = bredonkit.free_cohomology(x).dims()
    assert checks.chain(x, table, classes) is None
    assert checks.chain(x, table, classes[:-1] + [classes[-2]]) is not None


def test_failures_are_contained(monkeypatch):
    monkeypatch.setattr(worker, "QUERY_TIMEOUT_S", 0.05)
    timer = worker._Timer()

    def hog():
        raise MemoryError()

    def crash():
        raise ValueError("boom")

    assert timer.call(hog)[0] == "memory"
    assert timer.call(crash)[0].startswith("error: ValueError")
    assert timer.call(lambda: time.sleep(2))[0] == "timeout"
    assert timer.call(lambda: 7)[::2] == ("ok", 7)


def test_wrappers_see_calls_bound_by_name():
    # free_space binds fp_solve by name; the traced run must still count it
    tracer = tracing.Tracer(tracing.load_layers())
    tracer.install()
    try:
        x = bredonkit.periodic_free_model(3, 5)
        bredonkit.module_action(x, "a", bredonkit.unit_class(x))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["exact_linalg.fp_solve.calls"] > 0
    assert metrics["free_space.euler_action_free.calls"] > 0
    assert bredonkit.free_space.fp_solve is bredonkit.exact_linalg.fp_solve
    assert "free_space.unit_class" in tracing.missing_calls(
        tracer.layers, "euler_chain", {})
