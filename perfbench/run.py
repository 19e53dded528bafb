"""Benchmark of superflag: seeded, closed-loop verification workloads.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark imports the package
from ``src/`` (never an installed copy) and exits with code 2, printing no
result, when that source is missing.

``--trace 0`` runs the workload's rounds in one thread, one job at a time,
until ``--seconds`` have passed at the reference machine speed (below) and
the round in flight is done.  It prints the end-to-end metrics:
``jobs_per_s``, ``job_s.p50``, ``job_s.tail``, ``setup_s`` and
``peak_rss_mb``, and, on other lines, ``fail_ratio`` and
``machine.calib_s``.  The machine's speed drifts, so the four timings are
scaled to a reference speed by a calibration loop that runs after every
second of loop time; the measured figures are printed beside them.

``--trace 1`` runs the seed's first rounds once untraced, then the
workload's set-up and the same rounds traced, and prints the per-layer
metrics of the traced pass (see ``tracer.py``) with
``trace.overhead_ratio``, traced over untraced wall time of the rounds.
The job list is fixed by the seed, so its call counts repeat exactly.

``--workload all`` runs every workload in turn, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("structure", "fields", "witness-weights")
# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 7
# Loop time between two calibration loops.
CALIB_EVERY_S = 1.0
# Calibration-loop time that defines the reference machine speed (about
# its typical time on a shared 2-vCPU Xeon at 2.0 GHz): run lengths and
# the end-to-end times are as they would read at that speed.
REF_CALIB_S = 0.035
# Rounds measured by a traced run, per workload (5 to 10 s untraced).
TRACE_ROUNDS = {"structure": 1, "fields": 4, "witness-weights": 1}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_superflag():
    """Import superflag from ``src/`` afresh, dropping any earlier import."""
    for name in [n for n in sys.modules
                 if n == "superflag" or n.startswith("superflag.")]:
        del sys.modules[name]
    importlib.import_module("superflag.cli")
    mods = {n: sys.modules[f"superflag.{n}"]
            for n in ("cli", "charts", "osp", "scalars")}
    return SimpleNamespace(pkg=sys.modules["superflag"], **mods)


def calibrate():
    """A fixed pure-Python loop; its time tracks the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        return ref
    return ref


def tail_latency(samples):
    """(percentile, value): the highest percentile with ten samples beyond
    it, which is the eleventh slowest sample."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def run_job(wl, job):
    """(seconds, ok, reason, result) of one job; the clock covers the
    program's call only, not the benchmark's checks."""
    t0 = time.perf_counter()
    try:
        result = wl.call(job)
    except Exception as e:  # a job that raises is a failed job
        return time.perf_counter() - t0, False, f"raised {e!r}", None
    elapsed = time.perf_counter() - t0
    try:
        ok, reason = wl.check(job, result)
    except Exception as e:
        ok, reason = False, f"check raised {e!r}"
    return elapsed, ok, reason, result


class Tally:
    def __init__(self, wl):
        self.wl = wl
        self.latencies = []
        self.failed = 0
        self.reasons = []

    def run(self, jobs):
        for job in jobs:
            seconds, ok, reason, result = run_job(self.wl, job)
            self.latencies.append(seconds)
            if ok:
                self.wl.note(job, result)
            else:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{job}: {reason}")

    @property
    def attempted(self):
        return len(self.latencies)


def timed_set_up(name):
    """Import superflag, build the workload's inputs and warm up; returns
    the time taken, the package and the workload."""
    t0 = time.perf_counter()
    sf = import_superflag()
    wl = workloads.make(name, OUT)
    wl.setup(sf)
    return time.perf_counter() - t0, sf, wl


def untraced(name, wl, rng, seconds, tally, setup_times, calib):
    """Run whole rounds until ``seconds`` of loop time, at the reference
    speed, have passed.

    Measured at the reference speed, a run does the same work however fast
    the machine is at the moment, so the size of the sample behind each
    metric depends on the program alone.  Outside the loop's clock, it runs
    the calibration loop after every CALIB_EVERY_S of loop time, and the
    remaining set-ups spread over the run.  The extra set-ups build a
    separate copy of the package and leave the running one alone.

    Returns the index of each round's first job, and for each job its loop
    time and the index of the calibration loop run last before it.
    """
    due = [seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
    loop_s = next_calib = progress = 0.0
    starts, spans = [], []
    while progress < seconds:
        starts.append(tally.attempted)
        for job in wl.round_jobs(rng):
            t0 = time.perf_counter()
            tally.run([job])
            dt = time.perf_counter() - t0
            spans.append((dt, len(calib) - 1))
            loop_s += dt
            if loop_s >= next_calib:
                calib.append(calibrate())
                next_calib = loop_s + CALIB_EVERY_S
        progress = loop_s * REF_CALIB_S / statistics.fmean(calib)
        while due and (progress >= due[0] or progress >= seconds):
            due.pop(0)
            setup_s, _, extra = timed_set_up(name)
            extra.close()
            setup_times.append(setup_s)
    return starts, spans


def end_to_end(latencies, starts, spans, setup_times, calib):
    """The end-to-end metrics, measured and at the reference speed.

    Each job's times are scaled by the mean of the calibration loops run
    just before and just after it; the set-up times by the mean of all.
    Returns {metric: (measured, at reference speed, unit)} and the tail's
    percentile.
    """
    speed = [REF_CALIB_S * 2 / (calib[k] + calib[k + 1]) for _, k in spans]
    bounds = list(zip(starts, starts[1:] + [len(latencies)]))
    out = {}
    for scaled in (False, True):
        lat = [x * f for x, f in zip(latencies, speed)] if scaled \
            else latencies
        loop_s = sum(dt * f if scaled else dt
                     for (dt, _), f in zip(spans, speed))
        setup_s = statistics.median(setup_times)
        if scaled:
            setup_s *= REF_CALIB_S / statistics.fmean(calib)
        p, tail = tail_latency(lat)
        out[scaled] = {
            "jobs_per_s": (len(lat) / loop_s, "1/s"),
            "job_s.p50": (statistics.fmean(statistics.median(lat[a:b])
                                           for a, b in bounds), "s"),
            "job_s.tail": (tail, "s"),
            "setup_s": (setup_s, "s"),
        }
    return {m: (v, out[True][m][0], u) for m, (v, u) in out[False].items()}, p


def traced(name, sf, wl, rng, tally, seed):
    """Run the seed's first rounds untraced, then the workload's set-up
    (as job -1) and the same rounds traced."""
    jobs = [job for _ in range(TRACE_ROUNDS[name])
            for job in wl.round_jobs(rng)]
    t0 = time.perf_counter()
    tally.run(jobs)
    plain_s = time.perf_counter() - t0
    tr = tracing.Tracer()
    tr.install()
    try:
        wl.setup(sf)
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            tr.job = i
            tally.run([job])
        traced_s = time.perf_counter() - t0
    finally:
        tr.uninstall()
    values, bases = tr.layer_metrics()
    values["trace.overhead_ratio"] = traced_s / plain_s
    bases["trace.overhead_ratio"] = (f"{traced_s:.3f} s traced /"
                                     f" {plain_s:.3f} s untraced")
    tr.write_spans(OUT / f"spans-{name}.bin",
                   {"workload": name, "seed": seed, "jobs": len(jobs)})
    return values, bases, tr.missing, len(jobs)


def emit(attempted, failed, metrics):
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "superflag" / "__init__.py").is_file():
        print(f"error: no superflag source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # `verify --max-size` does not lift the cap of a single --suite run
    # (cli.cmd_verify passes it only to run_all), so the (4, 4) jobs need
    # the environment variable.
    os.environ["SUPERFLAG_MAX_SIZE"] = "4"
    OUT.mkdir(exist_ok=True)

    calib = [calibrate()]
    setup_s, sf, wl = timed_set_up(args.workload)
    setup_times = [setup_s]
    if not Path(sf.pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: superflag imported from {sf.pkg.__file__}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"python {platform.python_version()}"
          f"  backend {getattr(sf.pkg, 'BACKEND', 'n/a')}"
          f"  revision {git_revision()}")

    rng = random.Random(args.seed)
    tally = Tally(wl)
    try:
        if args.trace:
            values, bases, missing, jobs = traced(args.workload, sf, wl, rng,
                                                  tally, args.seed)
        else:
            starts, spans = untraced(args.workload, wl, rng, args.seconds,
                                     tally, setup_times, calib)
    finally:
        wl.close()
    calib.append(calibrate())
    calib_s = statistics.fmean(calib)
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_times))
    print("input properties: " + json.dumps(wl.properties()))
    for reason in tally.reasons:
        print(f"failed job {reason}")
    fail_ratio = tally.failed / tally.attempted
    print(f"fail_ratio {fail_ratio:.4f} ratio"
          f" ({tally.failed} failed / {tally.attempted} attempted)")
    print(f"machine.calib_s {calib_s:.4f} s, the mean of {len(calib)}"
          f" calibration loops; reference speed {REF_CALIB_S} s")

    if args.trace:
        units = tracing.metric_units()
        units.update({"trace.overhead_ratio": "ratio",
                      "machine.calib_s": "s"})
        values["machine.calib_s"] = calib_s
        print(f"traced {jobs} jobs; spans written under {OUT.name}/")
        if missing:
            print("not in this program (reported as 0): " + ", ".join(missing))
        for metric, base in sorted(bases.items()):
            print(f"{metric} {values[metric]:.4f} ratio ({base})")
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in units.items()}
    else:
        figures, p = end_to_end(tally.latencies, starts, spans, setup_times,
                                calib)
        metrics = {m: {"value": v, "unit": u}
                   for m, (_, v, u) in figures.items()}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}
        n = tally.attempted
        print(f"{len(starts)} rounds, {n} jobs in"
              f" {sum(dt for dt, _ in spans):.3f} s;"
              f" job_s.p50 is the mean of the rounds' medians"
              f" ({n // len(starts)} samples each),"
              f" job_s.tail is p{p:.2f} of all {n}, with 10 beyond it")
        for m, v in metrics.items():
            note = ""
            if m in figures:
                note = (f"  (measured {figures[m][0]:.6g} {v['unit']},"
                        " scaled to the reference speed)")
            print(f"{m} {v['value']:.6g} {v['unit']}{note}")
    emit(tally.attempted, tally.failed, metrics)
    return 0


def run_all(args):
    """Run each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    emit(sum(r["attempted"] for r in results.values()),
         sum(r["failed"] for r in results.values()),
         {f"{name}.{m}": v for name, r in results.items()
          for m, v in r["metrics"].items()})
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fix string hashing so that set and dict orders inside the program,
        # and so the traced call counts, repeat from run to run.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
