"""Tests of the benchmark itself: checks, tracing and the output contract.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mnseries  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ERRORS = (workloads.Mismatch, mnseries.MNError)


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_correct_answers_pass():
    runner = run.Runner(workloads.build("dyson", 1)[:20], ERRORS)
    runner.run_for(0)
    assert runner.attempted == 20 and runner.failures == []


def test_wrong_reference_is_reported_as_failure(monkeypatch):
    real = workloads.multinomial
    monkeypatch.setattr(workloads, "multinomial", lambda a: real(a) + 1)
    runner = run.Runner(workloads.build("dyson", 1)[:20], ERRORS)
    runner.run_for(0)
    assert runner.attempted == 20
    assert len(runner.failures) == 20
    assert "Mismatch" in runner.failures[0]


def test_engine_error_is_reported_as_failure(monkeypatch):
    def refuse(*args, **kwargs):
        raise mnseries.OutOfPrecision("refused")

    monkeypatch.setattr(mnseries.residues, "lagrange_inverse", refuse)
    runner = run.Runner(workloads.build("lagrange", 1)[:5], ERRORS)
    runner.run_for(0)
    assert len(runner.failures) == 5
    assert "OutOfPrecision" in runner.failures[0]


def test_inputs_follow_the_seed():
    def data(seed):
        return [inst.check.__defaults__ for inst in workloads.build("lagrange", seed)]

    assert data(4) == data(4)
    assert data(4) != data(5)


def test_tracer_patches_every_binding():
    originals = {id(getattr(owner, attr)) for _, owner, attr, _ in tracing.SPANS}
    originals.add(id(mnseries.ordering.FieldSpec.phi))

    namespaces = [vars(module) for module in tracing._engine_modules()]
    namespaces += [vars(mnseries.series.Series), vars(mnseries.ordering.FieldSpec)]

    def bound():
        return sum(id(value) in originals
                   for namespace in namespaces for value in list(namespace.values()))

    before = bound()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bound() == 0
        assert mnseries.parser.multiply is mnseries.residues.multiply
        assert mnseries.identities.multiply is mnseries.series.multiply
    finally:
        tracer.uninstall()
    assert bound() == before


def test_traced_pass_records_nested_spans():
    tracer = tracing.Tracer()
    runner = run.Runner(workloads.build("cov_lemma", 1)[:3], ERRORS, tracer)
    tracer.install()
    try:
        runner.run_for(0)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert runner.failures == []
    assert {span[4] for span in spans} == {0, 1, 2}
    assert all(span[1] <= span[2] for span in spans)
    assert all(spans[p][1] <= s <= e <= spans[p][2]
               for _, s, e, p, _ in spans if p >= 0)
    calls, _ = tracing.self_times(spans)
    assert calls["residues.residue_verify"] == 6
    assert counts["series.multiply.pairs"] > counts["series.multiply.terms_out"] > 0
    assert counts[tracing.PHI_CALLS] > 0


def test_quantile_weights_every_value():
    assert run.quantile([2.5], 0.9) == 2.5
    assert run.quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    values = [float(v) for v in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0)
    assert 90.0 < run.quantile(values, 0.9) < 92.0
    # one value far out moves the estimate a little, not to that value
    assert run.quantile(values[:-1] + [1e4], 0.9) < 100.0


def test_speed_gauge_samples_inside_an_instance():
    def busy():
        end = time.process_time() + 3 * run.GAUGE_EVERY
        while time.process_time() < end:
            pass

    gauge = run.SpeedGauge()
    runner = run.Runner([workloads.Instance("busy", busy)], ERRORS, clock=gauge.clock)
    began = time.perf_counter()
    with gauge:
        spent, _ = runner.run_for(0)
    elapsed = time.perf_counter() - began
    # two ticks inside the instance, and one more on leaving
    assert len(gauge.samples) >= 3
    assert gauge.paused == pytest.approx(math.fsum(gauge.samples))
    # the kernel's time is left out of the instance's
    assert spent[0] <= elapsed - math.fsum(gauge.samples[:-1])
    assert gauge.scale() > 0


def test_self_time_subtracts_children():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["inner", 5.0, 7.0, 0, 0],
    ]
    calls, seconds = tracing.self_times(spans)
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert seconds["outer"] == pytest.approx(5.0)
    assert seconds["inner"] == pytest.approx(4.0)
    assert seconds["leaf"] == pytest.approx(1.0)


def test_end_to_end_output_contract():
    result = bench("--workload", "dyson", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_two_traced_runs_repeat_their_counts():
    args = ("--workload", "lagrange", "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = bench(*args), bench(*args)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "ratio", "lines")} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["series.multiply.calls"] > 0
    assert counts[0]["residues.lagrange_coefficient.calls"] == 3 * workloads.LAGRANGE_INSTANCES


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "dyson", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
