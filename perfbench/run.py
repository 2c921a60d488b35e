"""cwclifford benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload pairs-axis --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Every workload is a closed loop: one caller in one process
issues the next job only after the previous one returned.  BLAS/OpenMP
threads are pinned to 1 (recorded in the properties line).

--trace 0 prints the end-to-end metrics: jobs_per_s, job_p50_ms,
job_tail_ms, setup_s and peak_rss_mb.  The timed loop runs whole rounds
until --seconds have passed and the workload's minimum round count is met.
The timings are given at a reference machine speed: a fixed kernel
(``calib.py``) is timed between jobs, and each timing is scaled by the
kernel's speed over the run.  The raw timings are in the properties line.
The process and its children are pinned to one CPU, so that the kernel and
the jobs run on the same one.

--trace 1 runs a fixed job list (so counts repeat exactly for a seed), each
job untraced and traced back to back, and prints the per-layer metrics, the
tracing overhead and the import times from ``python -X importtime``.  Spans are
saved to .perfbench-out/.

The line before the last is a properties object (thread settings, tail
percentile and sample count, jobs per dimension, verified share, hits per
target, failures).  Failed checks are listed on stderr with their inputs;
any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
IMPORTTIME_PROBES = 3
# per-layer metrics measured here rather than read off the tracer's spans
RUN_METRIC_PREFIXES = ("cli.import_", "trace.")


def _percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Runner:
    """Runs jobs of one workload, timing them and collecting check results."""

    def __init__(self, workload, name):
        self.workload = workload
        self.name = name
        self.times = []
        self.attempted = 0
        self.failures = []
        self.stats = Counter()
        self.child_rss_kb = 0

    def run_job(self, job, r, i, tracer=None):
        self.attempted += 1
        if tracer is not None:
            tracer.job_id = self.attempted
            tracer.active = True
        try:
            t0 = time.perf_counter()
            out = self.workload.run(job)
            self.times.append(time.perf_counter() - t0)
        except Exception:
            self._fail(job, r, i, traceback.format_exc(limit=3))
            return
        finally:
            if tracer is not None:
                tracer.active = False
        if isinstance(out, tuple) and len(out) == 3 and out[2] is not None:
            self.child_rss_kb = max(self.child_rss_kb, out[2].ru_maxrss)
        try:
            problems = self.workload.check(job, out, self.stats)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3)]
        if problems:
            self._fail(job, r, i, "; ".join(problems))

    def _fail(self, job, r, i, message):
        record = {"workload": self.name, "seed": self.workload.seed,
                  "round": r, "index": i, "error": message,
                  "job": job.describe()}
        self.failures.append(record)
        print(json.dumps(record), file=sys.stderr)


def _load_library():
    if not os.path.isfile(os.path.join(SRC, "cwclifford", "__init__.py")):
        print(f"error: no cwclifford sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def _setup_probe_main(args) -> None:
    """Child mode: in this fresh interpreter, import the library and run the
    warm-up jobs the parent pickled (one per dimension); print the seconds
    from the first library import to the end of the last job.

    The inputs are built in the parent, so the library is cold when the
    clock starts and any table it builds on first use at a dimension is
    built inside the timed region.  With --setup-audit the probe also
    records the time of the first ``gp`` call at each dimension."""
    cold = not {"numpy", "cwclifford"} & set(sys.modules)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import cwclifford  # noqa: F401
    from cwclifford import cli, textio  # noqa: F401
    import workloads
    first_gp = _record_first_gp() if args.setup_audit else {}
    with open(args.setup_probe, "rb") as fh:
        jobs = pickle.load(fh)
    wl = workloads.WORKLOADS[args.workload](args.seed,
                                            os.path.dirname(args.setup_probe))
    wl.in_process = True
    for job in jobs:
        wl.run(job)
    t1 = time.perf_counter()
    report = {"setup_s": t1 - t0}
    if args.setup_audit:
        report.update(cold=cold, start=t0, end=t1,
                      dims=sorted({job.dim for job in jobs}),
                      first_gp={str(n): t for n, t in first_gp.items()})
    print(json.dumps(report))


def _record_first_gp():
    """Rebind ``gp`` in every loaded cwclifford module to a wrapper that
    notes the first call at each dimension; returns dimension -> time."""
    from cwclifford import core
    original, first = core.gp, {}

    def gp(a, b):
        first.setdefault(a.dim, time.perf_counter())
        return original(a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cwclifford") and \
                getattr(mod, "gp", None) is original:
            mod.gp = gp
    return first


def write_setup_jobs(wl) -> str:
    """Pickle the warm-up jobs into the work directory for the set-up probes."""
    path = os.path.join(wl.workdir, "setup-jobs.pkl")
    with open(path, "wb") as fh:
        pickle.dump(wl.warmup_jobs(), fh)
    return path


def measure_setup_once(args, jobs_path: str, audit: bool = False):
    """Import plus warm-up jobs, timed in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           jobs_path, "--workload", args.workload, "--seed", str(args.seed)]
    if audit:
        cmd.append("--setup-audit")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report if audit else report["setup_s"]


def measure_import_times():
    """Median import time of numpy and then of the library, from
    ``python -X importtime``.  The library's time is the sum of its top-level
    entries (``cwclifford``, ``cwclifford.cli`` and whatever of ``textio``
    the command-line module did not already load), each cumulative."""
    numpy_s, lib_s = [], []
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import numpy; import cwclifford; import cwclifford.cli; "
             "import cwclifford.textio"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        found = Counter()
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or parts[2].startswith("  "):
                continue  # not an entry, or nested under another import
            name = parts[2].strip()
            if name == "numpy" or name.split(".")[0] == "cwclifford":
                found[name.split(".")[0]] += int(parts[1]) * 1e-6
        numpy_s.append(found["numpy"])
        lib_s.append(found["cwclifford"])
    return statistics.median(numpy_s), statistics.median(lib_s)


def _properties(args, wl, runner, extra=None):
    stats = runner.stats
    props = {
        "workload": args.workload, "seed": args.seed,
        "load_model": "closed loop, 1 caller, 1 process",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "tail_percentile": wl.tail_pct,
        "samples": len(runner.times),
        "jobs_per_dim": {k[1:]: stats[k] for k in sorted(
            (k for k in stats if k[0] == "n" and k[1:].isdigit()),
            key=lambda k: int(k[1:]))},
        "pairs_verified_share": stats["pairs_verified"] / stats["pairs"]
        if stats["pairs"] else None,
        "hits_per_target": stats["hits"] / stats["targets"]
        if stats["targets"] else None,
        "family_tag_gaps": stats["family_tag_gaps"],
        "rotated_distinguished_flips": stats["distinguished_flips"],
        "failed_frac": len(runner.failures) / max(runner.attempted, 1),
        "failures": runner.failures[:20],
    }
    props.update({k: v for k, v in stats.items()
                  if k in ("alpha0", "alpha-nonzero", "perturbed")})
    props.update(extra or {})
    return props


def timed_run(args, wl):
    import calib
    runner = Runner(wl, args.workload)
    jobs_path = write_setup_jobs(wl)
    warm = Runner(wl, args.workload)
    for i, job in enumerate(wl.warmup_jobs()):
        warm.run_job(job, 0, i)
    # set-up probes are spread over the timed loop, so that their median sees
    # the same stretch of machine time as the jobs do
    setup = []
    sampler = calib.Sampler()
    start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or time.perf_counter() - start < args.seconds:
        if len(setup) < SETUP_PROBES and time.perf_counter() - start >= \
                len(setup) * args.seconds / SETUP_PROBES:
            setup.append(measure_setup_once(args, jobs_path))
        for i, job in enumerate(wl.round(r)):
            runner.run_job(job, r, i)
            sampler.tick()
        r += 1
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup_once(args, jobs_path))
    if not runner.times:
        raise RuntimeError("no job completed")
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = runner.child_rss_kb
    raw = {
        "jobs_per_s": len(runner.times) / sum(runner.times),
        "job_p50_ms": 1e3 * statistics.median(runner.times),
        "job_tail_ms": 1e3 * _percentile(runner.times, wl.tail_pct),
        "setup_s": statistics.median(setup),
    }
    # at the reference speed: a rate divided by the run's speed, a time
    # multiplied by it
    speed = sampler.speed()
    metrics = {
        "jobs_per_s": raw["jobs_per_s"] / speed,
        "job_p50_ms": raw["job_p50_ms"] * speed,
        "job_tail_ms": raw["job_tail_ms"] * speed,
        "setup_s": raw["setup_s"] * speed,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    runner.failures += warm.failures
    runner.attempted += warm.attempted
    props = _properties(args, wl, runner, {
        "rounds": r, "cpu": sorted(os.sched_getaffinity(0)),
        "speed": speed, "speed_samples": len(sampler.samples), "raw": raw})
    units = _units("end_to_end")
    return runner, props, {k: (v, units[k]) for k, v in metrics.items()}


def traced_run(args, wl):
    import spans
    jobs = [(r, i, job) for r in range(wl.trace_rounds)
            for i, job in enumerate(wl.round(r))]
    wl.in_process = True
    warm = Runner(wl, args.workload)
    for i, job in enumerate(wl.warmup_jobs()):
        warm.run_job(job, 0, i)
    # each job runs untraced and traced back to back, in alternating order,
    # so that both rates see the same machine state
    plain = Runner(wl, args.workload)
    traced = Runner(wl, args.workload)
    tracer = spans.Tracer()
    for k, (r, i, job) in enumerate(jobs):
        if k % 2:
            plain.run_job(job, r, i)
        tracer.install()
        try:
            traced.run_job(job, r, i, tracer)
        finally:
            tracer.uninstall()
        if not k % 2:
            plain.run_job(job, r, i)
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir,
                             f"spans-{args.workload}-seed{args.seed}.npz"))

    units = _units("per_layer")
    metrics = spans.layer_metrics(
        tracer, [m for m in units if not m.startswith(RUN_METRIC_PREFIXES)])
    numpy_s, lib_s = measure_import_times()
    metrics["cli.import_numpy_s"] = numpy_s
    metrics["cli.import_cwclifford_s"] = lib_s
    untraced_rate = len(plain.times) / sum(plain.times)
    traced_rate = len(traced.times) / sum(traced.times)
    metrics["trace.untraced_jobs_per_s"] = untraced_rate
    metrics["trace.traced_jobs_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate

    runner = Runner(wl, args.workload)
    runner.attempted = plain.attempted + traced.attempted + warm.attempted
    runner.failures = plain.failures + traced.failures + warm.failures
    runner.times = traced.times
    runner.stats = traced.stats
    props = _properties(args, wl, runner, {"trace_rounds": wl.trace_rounds,
                                           "spans": len(tracer.start)})
    return runner, props, {k: (v, units[k]) for k, v in metrics.items()}


def _units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="JOBS",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-audit", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    _load_library()
    if args.setup_probe:
        _setup_probe_main(args)
        return 0
    # one CPU for this process and its children: the calibration kernel
    # then measures the CPU the jobs run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of "
                     f"{sorted(workloads.WORKLOADS)}")
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            runner, props, metrics = traced_run(args, wl)
        else:
            runner, props, metrics = timed_run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(props))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())
