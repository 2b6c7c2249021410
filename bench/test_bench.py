"""Tests of the benchmark itself: seeded inputs, the oracle, tracing, and a
tiny run of every workload.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads

run.require_source()

CASE1 = workloads.NAMED_2X2["case1"][0]


def _reversor_of(f):
    """A reversor of a 2x2 matrix by brute force over small entries."""
    finv = oracle.inverse(f)
    rng = range(-3, 4)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    r = ((a, b), (c, d))
                    if oracle.check_reversor(f, finv, r, False) is None:
                        return r
    raise AssertionError("no small reversor")


@pytest.mark.parametrize("build", [workloads.analyze_2x2,
                                   workloads.analyze_nxn,
                                   workloads.cli_cold])
def test_same_seed_same_inputs(build):
    assert build(7) == build(7)
    assert build(7) != build(8)


def test_conjugates_carry_their_inverse():
    for inp in workloads.analyze_2x2(3) + workloads.analyze_nxn(3):
        assert oracle.matmul(inp.rows, inp.inverse) == oracle.identity(inp.n)


def test_oracle_accepts_a_true_reversor_and_its_order():
    r = _reversor_of(CASE1)
    finv = oracle.inverse(CASE1)
    assert oracle.check_reversor(CASE1, finv, r, False) is None
    assert oracle.check_order(r, 2, False) is None
    assert oracle.check_order(r, 4, False) is not None
    assert oracle.check_order(r, None, False) is not None


def test_oracle_flags_one_flipped_sign():
    r = _reversor_of(CASE1)
    finv = oracle.inverse(CASE1)
    for i in range(2):
        for j in range(2):
            if r[i][j]:
                flipped = tuple(tuple(-v if (a, b) == (i, j) else v
                                      for b, v in enumerate(row))
                                for a, row in enumerate(r))
                assert oracle.check_reversor(CASE1, finv, flipped,
                                             False) is not None


def test_oracle_flags_wrong_case_and_wrong_irreversibility():
    inp = workloads.named_input("case1", workloads.NAMED_2X2)
    reversors = [(_reversor_of(CASE1), 2)]
    assert oracle.check_analysis(inp, "classified", "case1", reversors) is None
    assert oracle.check_analysis(inp, "classified", "case3",
                                 reversors) is not None
    conj = workloads.far_conjugate()
    assert oracle.check_analysis(conj, "irreversible-proven", None,
                                 []) is not None
    assert oracle.check_analysis(conj, "inconclusive-up-to-bound", None,
                                 []) is None


def _cli_result(*argv):
    proc = subprocess.run([sys.executable, "-m", "revsym.cli", *argv,
                           "--format", "json"], env=run.child_env(),
                          capture_output=True, text=True, timeout=60)
    return json.loads(proc.stdout)["result"]


def test_oracle_checks_other_cli_answers_on_its_own():
    c4 = _cli_result("absgroup", "c4", "--p", "3", "--window", "6")
    assert oracle.check_absgroup(("c4", 3), c4) is None
    assert oracle.check_absgroup(("c4", 3),
                                 {**c4, "order_spectrum": ["2"]}) is not None

    family = _cli_result("polyauto", "3")
    assert oracle.check_polyauto(("3",), family) is None
    flipped = family["r"].replace("-", "", 1)
    assert oracle.check_polyauto(("3",), {**family, "r": flipped}) is not None

    spec = ((0, 1), (2, 3), (0, 1))
    curve = _cli_result("elliptic", "--curve", "0", "1", "--omega", "2", "3",
                        "--s", "0", "1")
    assert oracle.check_elliptic(spec, curve) is None
    assert oracle.check_elliptic(spec, {**curve, "s": ["0", "2"]}) is not None


def test_tracing_rebinds_and_restores(tmp_path):
    from revsym import matgroup
    from tracing import Recorder, install, read_spans

    original = matgroup.mat_det
    rec = Recorder()
    restore = install(rec)
    try:
        assert matgroup.mat_det is not original
        matgroup.analyze(matgroup.IntMatrix(CASE1), matgroup.GroupContext(2))
    finally:
        restore()
    assert matgroup.mat_det is original
    assert rec.calls["matgroup.analyze"] == 1
    assert rec.counters["candidates"] > 0
    assert rec.span_count() == sum(rec.calls.values())
    rec.write(tmp_path / "spans")
    names, spans = read_spans(tmp_path / "spans")
    assert names == rec.names
    assert spans == rec.spans


def test_sampler_uses_samples_inside_an_op_or_the_nearest():
    sampler = run.Sampler()
    sampler.ends = [float(t) for t in range(20)]
    sampler.cpu = [1.0] * 10 + [3.0] * 10
    # a long op: the samples that ended inside it, and their CPU time
    assert sampler.unit_s(9.5, 19.5) == 3.0
    assert sampler.cpu_within(9.5, 19.5) == 30.0
    # a short op: the MIN_SAMPLES samples nearest in time
    assert sampler.unit_s(2.1, 2.2) == 1.0
    assert sampler.unit_s(9.4, 9.6) == (4 * 1.0 + 4 * 3.0) / 8


@pytest.mark.parametrize("workload,trace", [
    ("analyze-2x2", 0), ("analyze-2x2", 1), ("analyze-nxn", 0),
    ("scoreboard", 0), ("cli-cold", 0), ("cli-cold", 1)])
def test_each_workload_completes_tiny(workload, trace, capsys):
    result = run.run(workload, 5, 0, trace, tiny=True)
    expected = run.PER_LAYER if trace else run.E2E
    assert result["metrics"].keys() == expected.keys()
    assert result["correct"]
    assert result["attempted"] >= 1
    if workload == "analyze-nxn":
        # the 6x6 companion input is a known defect, counted as failed
        assert result["failed"] == 1


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in
            spec["end_to_end"]} == run.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in
            spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze-2x2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
