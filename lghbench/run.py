"""Benchmark of the ``lgh`` command on generated Landau-Ginzburg models.

Run from the root of a checkout:

    python3 lghbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: one job at a time, each job a fresh
``python -m lghomology.cli ... --format machine`` process on files
generated from the seed.  Every answer is checked against an independent
oracle (``oracles.py``) and each job's output must be byte-identical
across repeats and between traced and untraced runs.

With ``--trace 0`` the job list is run in whole passes until about
``--seconds`` have gone and the end-to-end metrics are printed.  The
machine this runs on changes speed by up to 40% from minute to minute, so
a calibration process that does not touch the program is timed once a
second next to the jobs, and every end-to-end time is scaled to the
reference speed (``CALIBRATION_REF_S``); the raw times are in the
summary.  With ``--trace 1`` one untraced pass is followed by traced
passes (each job through ``tracer.py``) and the per-layer metrics are
printed.  The last line of standard output is one JSON object; a summary
goes to standard error.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SAMPLE_EVERY_S = 1.0
# A fixed process that does not touch the program: a fresh interpreter
# running an exact-fraction and dict loop, the kind of work the program's
# kernels do.  Its median time in a run measures how fast the machine is
# during that run.
CALIBRATION = """
from fractions import Fraction
acc, table = Fraction(0), {}
for i in range(1, 10000):
    acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
    table[(i % 13, i % 7)] = table.get((i % 13, i % 7), 0) + i
"""
# Its median on the reference machine (2 vCPU, Python 3.11.7) in its fast
# state.  End-to-end times are reported at this speed.
CALIBRATION_REF_S = 0.11
END_TO_END_UNITS = {"wall_s": "s", "job_s.p50": "s", "job_s.p90": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class Checkout:
    """The program under test and a scratch directory for one run."""

    def __init__(self):
        if not (SRC / "lghomology" / "cli.py").is_file():
            raise SystemExit("lghbench: no program at %s" % SRC)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        build = ROOT / ".bench_build"
        build.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="lghbench-", dir=build))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def write(self, jobs):
        for job in jobs:
            for name, text in job.files.items():
                (self.workdir / name).write_text(text)

    def run(self, argv, tag, timeout_s=120.0):
        """Run one process to completion; (wall s, exit code, max RSS MB,
        stdout bytes, stderr bytes)."""
        out_path = self.workdir / (tag + ".out")
        err_path = self.workdir / (tag + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.env)
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_bytes(), err_path.read_bytes())

    def lgh(self, job, traced=False):
        if traced:
            spans = self.workdir / (job.name + ".spans.json")
            spans.unlink(missing_ok=True)
            head = [sys.executable, str(HERE / "tracer.py"), str(spans),
                    job.name, "--"]
        else:
            head = [sys.executable, "-m", "lghomology.cli"]
        argv = head + job.argv + ["--format", "machine"]
        return self.run(argv, job.name, job.timeout_s)

    def spans(self, job):
        """The traced job's spans; none when it was killed first."""
        try:
            with open(self.workdir / (job.name + ".spans.json")) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return {"job": job.name, "spans": [], "counts": {}}

    def check_program(self):
        """Import the program once (warming the bytecode cache) and check
        that it is this checkout's."""
        probe = ("import sys, lghomology.cli as c; "
                 "sys.stdout.write(c.__file__)")
        _, code, _, out, err = self.run([sys.executable, "-c", probe],
                                        "setup")
        where = Path(out.decode()).resolve()
        if code != 0 or SRC.resolve() not in where.parents:
            raise SystemExit("lghbench: imported %r, not the checkout's "
                             "program\n%s" % (out.decode(), err.decode()))

    def setup_time(self):
        """Fresh interpreter plus ``import lghomology.cli``."""
        return self.run([sys.executable, "-c", "import lghomology.cli"],
                        "setup")[0]

    def calibration_time(self):
        return self.run([sys.executable, "-c", CALIBRATION], "setup")[0]


class MachineSampler:
    """Set-up and calibration samples spread over the whole run, one pair
    per ``every_s``, so that their medians see the same machine as the
    jobs."""

    def __init__(self, checkout, every_s=SAMPLE_EVERY_S):
        self.checkout = checkout
        self.every_s = every_s
        self.setup = []
        self.calibration = []
        self.last = None

    def __call__(self):
        now = time.perf_counter()
        if self.last is None or now - self.last >= self.every_s:
            self.setup.append(self.checkout.setup_time())
            self.calibration.append(self.checkout.calibration_time())
            self.last = time.perf_counter()

    def speed(self):
        """Reference calibration time over this run's; multiplying a
        measured time by it gives the time at the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.calibration)


def check(job, code, out, err):
    """Problems with one job's result; empty when the oracle agrees."""
    problems = []
    if b"Traceback (most recent call last)" in err:
        problems.append("traceback on stderr")
    if code != job.expect_exit:
        problems.append("exit %d, expected %d" % (code, job.expect_exit))
        return problems
    if code != 0:
        if out:
            problems.append("output on a failing exit")
        if not err.startswith(b"error: "):
            problems.append("no error message")
        return problems
    try:
        doc = json.loads(out)
    except ValueError:
        return problems + ["output is not JSON"]
    if doc.get("schema_version") != 1:
        problems.append("schema_version %r" % doc.get("schema_version"))
    for key, want in job.expect.items():
        if doc.get(key) != want:
            problems.append("%s = %s, oracle %s"
                            % (key, json.dumps(doc.get(key)),
                               json.dumps(want)))
    return problems


class Run:
    """Results of one workload run: samples, failures, outputs."""

    def __init__(self, jobs):
        self.times = {job.name: [] for job in jobs}
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures = {}          # job name -> problems
        self.outputs = {}           # job name -> first stdout bytes

    def record(self, job, result):
        wall, code, rss, out, err = result
        self.attempted += 1
        self.times[job.name].append(wall)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        problems = check(job, code, out, err)
        first = self.outputs.setdefault(job.name, out)
        if out != first:
            problems.append("output differs between repeats")
        if problems:
            self.failures.setdefault(job.name, []).extend(problems)
        return not problems

    def samples(self):
        return [t for ts in self.times.values() for t in ts]


def run_pass(checkout, jobs, run, traced=False, between=None):
    """Run every job once, calling ``between`` after each; returns the
    pass's wall time and the failed execution count."""
    total, failed = 0.0, 0
    for job in jobs:
        result = checkout.lgh(job, traced)
        total += result[0]
        failed += not run.record(job, result)
        if between is not None:
            between()
    return total, failed


def keep_going(started, last_pass, seconds):
    """Whether another pass ends no later than half a pass past the
    deadline."""
    return time.perf_counter() - started + 0.5 * last_pass < seconds


def end_to_end(checkout, jobs, seconds):
    """End-to-end metrics; times are scaled to the reference machine speed
    by the run's calibration (the raw values go to the summary)."""
    checkout.check_program()
    machine = MachineSampler(checkout)
    run = Run(jobs)
    failed = 0
    started = time.perf_counter()
    while True:
        wall, bad = run_pass(checkout, jobs, run, between=machine)
        failed += bad
        if not keep_going(started, wall, seconds):
            break
    samples = run.samples()
    raw = {
        "wall_s": sum(statistics.median(ts) for ts in run.times.values()),
        "job_s.p50": statistics.median(samples),
        "job_s.p90": statistics.quantiles(samples, n=10,
                                          method="inclusive")[8],
        "setup_s": statistics.median(machine.setup),
    }
    speed = machine.speed()
    metrics = {k: v * speed for k, v in raw.items()}
    metrics["peak_rss_mb"] = run.peak_rss_mb
    summary = {"passes": len(samples) // len(jobs), "samples": len(samples),
               "beyond_p90": sum(t > raw["job_s.p90"] for t in samples),
               "machine_samples": len(machine.setup),
               "calibration_s": statistics.median(machine.calibration),
               "speed": speed, "raw": raw}
    return metrics, run, failed, summary


def per_layer(checkout, jobs, seconds):
    checkout.check_program()
    run = Run(jobs)
    started = time.perf_counter()
    plain, failed = run_pass(checkout, jobs, run)
    passes = []
    while True:
        wall, bad = run_pass(checkout, jobs, run, traced=True)
        failed += bad
        layers, layer_self = tracer.layer_metrics(
            [checkout.spans(job) for job in jobs])
        passes.append((wall, layers, layer_self))
        if not keep_going(started, wall, seconds):
            break
    metrics = {k: statistics.median(p[1][k] for p in passes)
               for k in tracer.LAYER_METRICS}
    traced = statistics.median(p[0] for p in passes)
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead"] = traced / plain
    shares = {layer: statistics.median(p[2][layer] / p[0] for p in passes)
              for layer in tracer.LAYERS}
    shares["startup"] = 1.0 - sum(shares.values())
    summary = {"traced_passes": len(passes), "untraced_wall_s": plain,
               "shares": shares}
    return metrics, run, failed, summary


def unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "overhead")):
        return "ratio"
    return "count"


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result document, summary)."""
    jobs = workloads.build(workload, seed)
    checkout = Checkout()
    try:
        checkout.write(jobs)
        fn = per_layer if trace else end_to_end
        metrics, run, failed, summary = fn(checkout, jobs, seconds)
    finally:
        checkout.close()
    summary.update(workload=workload, seed=seed, jobs=len(jobs),
                   failing_jobs=run.failures)
    doc = {"correct": failed == 0, "attempted": run.attempted,
           "failed": failed,
           "metrics": {k: {"value": v, "unit": unit(k)}
                       for k, v in metrics.items()}}
    return doc, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS)
                        + sorted(workloads.EXTRA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a stop request into an exception, so that the running job is
    # killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    doc, summary = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
