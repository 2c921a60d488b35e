"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = ("core.gp.blade_pairs", "core.gp.terms_out")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_each_workload(name, workdir):
    """The warm-up jobs (one per dimension) run and pass their checks."""
    wl = workloads.WORKLOADS[name](3, workdir)
    runner = run.Runner(wl, name)
    for i, job in enumerate(wl.warmup_jobs()):
        runner.run_job(job, 0, i)
    assert runner.attempted >= 3
    assert set(wl.DIMS) <= {job.dim for job in wl.warmup_jobs()}
    assert runner.failures == []
    assert len(runner.times) == runner.attempted


def test_same_seed_same_inputs(workdir):
    a = workloads.PairsRotated(11, workdir).round(2)
    b = workloads.PairsRotated(11, workdir).round(2)
    c = workloads.PairsRotated(12, workdir).round(2)
    assert all((x.inputs["entries"] == y.inputs["entries"]).all()
               for x, y in zip(a, b))
    assert not (a[0].inputs["entries"] == c[0].inputs["entries"]).all()


def test_printed_names_match_benchmark_json():
    spec = _spec()
    proc = _bench("--workload", "pairs-axis", "--seed", "4",
                  "--seconds", "0", "--trace", "0")
    timed = _result(proc)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in timed["metrics"].items()} == want
    # timings are the raw ones at the reference speed
    props = json.loads(proc.stdout.strip().splitlines()[-2])
    speed, raw = props["speed"], props["raw"]
    assert props["speed_samples"] >= 1 and len(props["cpu"]) == 1
    value = {k: v["value"] for k, v in timed["metrics"].items()}
    assert value["jobs_per_s"] == pytest.approx(raw["jobs_per_s"] / speed)
    for name in ("job_p50_ms", "job_tail_ms", "setup_s"):
        assert value[name] == pytest.approx(raw[name] * speed)
    traced = _result(_bench("--workload", "pairs-axis", "--seed", "4",
                            "--seconds", "0", "--trace", "1"))
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == want
    assert set(spec["workloads"][i]["name"] for i in range(
        len(spec["workloads"]))) == set(workloads.WORKLOADS)


def test_counts_repeat_for_a_seed():
    runs = [_result(_bench("--workload", "cli-golden", "--seed", "5",
                           "--seconds", "0", "--trace", "1"))
            for _ in range(2)]
    names = [m for m in runs[0]["metrics"]
             if m.endswith(".calls") or m in COUNT_METRICS]
    assert len(names) >= 9
    for m in names:
        assert runs[0]["metrics"][m] == runs[1]["metrics"][m], m
    assert runs[0]["metrics"]["core.gp.calls"]["value"] > 0


@pytest.mark.parametrize("name", ["pairs-axis", "pairs-rotated", "cw-maps"])
def test_setup_probe_times_first_use(name, workdir):
    """The probe starts its clock with the library not yet imported, and the
    first gp call at each warm-up dimension falls inside the timed region."""
    wl = workloads.WORKLOADS[name](2, workdir)
    args = argparse.Namespace(workload=name, seed=2)
    report = run.measure_setup_once(args, run.write_setup_jobs(wl), audit=True)
    assert report["cold"]
    assert len(report["dims"]) >= 3
    assert set(report["first_gp"]) == {str(n) for n in report["dims"]}
    for first in report["first_gp"].values():
        assert report["start"] < first < report["end"]


def test_calibration_speed_is_relative_to_the_reference():
    sampler = calib.Sampler()
    sampler.tick()
    sampler.tick()  # within INTERVAL_S of the first: no second sample
    assert len(sampler.samples) == 1
    sampler.samples = [calib.REFERENCE_S, 3 * calib.REFERENCE_S]
    assert sampler.speed() == pytest.approx(0.5)


def test_family_tag_gap_is_counted_not_hidden():
    stats = workloads.Counter()
    assert workloads.tag_problem("monomial", ["monomial", "linear"], stats) \
        is None
    assert workloads.tag_problem("generalized-monomial",
                                 ["pseudo-monomial-odd"], stats) is None
    assert stats["family_tag_gaps"] == 1
    assert workloads.tag_problem("generalized-monomial", ["other"], stats)
    assert stats["family_tag_gaps"] == 1


def test_wrong_expectation_is_a_failure(workdir):
    wl = workloads.PairsAxis(6, workdir)
    job = next(j for j in wl.round(0) if j.kind == "family-pair")
    runner = run.Runner(wl, wl.name)
    runner.run_job(job, 0, 0)
    assert runner.failures == []
    job.expect["B"] = job.expect["B"] + 1e-3
    runner.run_job(job, 0, 1)
    assert len(runner.failures) == 1
    assert "B off the closed form" in runner.failures[0]["error"]
    assert runner.failures[0]["job"]["c"]

    cwl = workloads.CwMaps(6, workdir)
    job = next(j for j in cwl.round(0) if j.kind == "perturbed")
    job.expect["flat"] = True
    runner = run.Runner(cwl, cwl.name)
    runner.run_job(job, 0, 0)
    assert len(runner.failures) == 1


def test_tracer_restores_the_library(workdir):
    from cwclifford import core, qpair
    gp, from_matrix = qpair.gp, qpair.SymmetricMap.__dict__["from_matrix"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qpair.gp is not gp and core.gp is not gp
        tracer.active = True
        qpair.extract_B(core.Multivector.basis_vector(3, 1),
                        core.Multivector.basis_vector(3, 1))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert qpair.gp is gp
    assert qpair.SymmetricMap.__dict__["from_matrix"] is from_matrix
    metrics = spans.layer_metrics(
        tracer, [m["name"] for m in _spec()["per_layer"]
                 if not m["name"].startswith(run.RUN_METRIC_PREFIXES)])
    assert metrics["qpair.extract_B.calls"] == 1
    assert metrics["core.gp.calls"] == 6 * 3  # q_map takes six products
    assert metrics["core.gp.blade_pairs"] > 0


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "pairs-axis", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
