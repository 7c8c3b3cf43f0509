"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import worker  # first: it puts src/ on sys.path

import lensring
import oracle
import pytest
import tracer as tracing
import workloads
from lensring import polynomials, ring, valuation

ROOT = Path(__file__).resolve().parent.parent


def _run(jobs, tracer=None):
    return worker.run_passes(jobs, 0, tracer)


def test_wrong_pinned_hash_counts_as_failure(monkeypatch):
    argv = workloads.CLI_FIXED[1]
    good = _run([workloads._cli_job(argv)])
    assert (good["attempted"], good["failed"]) == (1, 0)
    pins = dict(workloads.PINS["cli"])
    pins[" ".join(argv)] = [0, "0" * 64]
    monkeypatch.setitem(workloads.PINS, "cli", pins)
    bad = _run([workloads._cli_job(argv)])
    assert (bad["attempted"], bad["failed"]) == (1, 1)


def test_wrong_expected_value_counts_as_failure():
    g = ring.make_element(3, [1, 2, 0, 4, 0, 0, 1])
    job = workloads._wl_job(g, 3)
    assert _run([job])["failed"] == 0
    wrong = workloads.Job(job.kind, job.layer, job.call,
                          lambda vals: [oracle.as_scaled(v) for v in vals]
                          == [0, 0, 0])
    assert _run([wrong])["failed"] == 1


def test_exceptions_fail_unless_declared():
    def boom():
        raise ValueError("zero divisor")

    undeclared = workloads.Job("x", "ring", boom, lambda out: True)
    declared = workloads.Job("x", "ring", boom,
                             lambda out: isinstance(out, ValueError),
                             raises=(ValueError,))
    budget = workloads.Job(
        "x", "polynomials", lambda: polynomials.brute_force_A(4, 1, 9, 16),
        lambda out: True)
    run = _run([undeclared, declared, budget])
    assert (run["attempted"], run["failed"]) == (3, 2)


def test_invert_job_accepts_zero_divisors():
    zero_divisor = ring.make_element(3, [1, 1])  # 1 + chi kills level 0
    unit = ring.make_element(3, [1, 0, 1])
    run = _run([workloads._invert_job(zero_divisor, 3),
                workloads._invert_job(unit, 3)])
    assert run["failed"] == 0


def test_oracle_valuations_match_w_l():
    g = ring.element_f(4) * ring.make_element(4, [3, -1, 2, 0, 5])
    want = [oracle.as_scaled(valuation.w_l(g, l)) for l in range(4)]
    assert oracle.scaled_valuations(g.coeffs, 4) == want


def test_clear_caches_empties_every_cache():
    polynomials.r_plus(3)
    workloads.clear_caches()
    assert polynomials._r_minus_table == {}
    for fn in (polynomials.r_plus, polynomials.p_k, polynomials.q_n,
               valuation.x_polynomial, valuation._one_minus_chi_valuations):
        assert fn.cache_info().currsize == 0


def test_tracer_wraps_each_namespace_and_restores():
    original = ring.project
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert valuation.project is not original
        assert lensring.project is valuation.project
        g = ring.make_element(3, [1, 2, 3])
        tracer.call("valuation.api", valuation.w_l, g, 2)
    finally:
        tracer.uninstall()
    assert valuation.project is original and lensring.project is original
    calls, self_s, root = tracer.self_times()
    assert calls["valuation.w_l"] == 1 and calls["ring.project"] == 1
    assert tracer.missing == []
    assert sum(self_s.values()) == pytest.approx(root)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    job = workloads._wl_job(ring.make_element(3, [1, 2, 3]), 3)
    untraced = _run([job])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run([job], tracer)
    finally:
        tracer.uninstall()
    metrics = worker.layer_metrics(tracer, traced, untraced)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
