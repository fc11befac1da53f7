"""One fresh process that runs a workload: set-up, passes, output gate.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--probe-setup`` it only times the set-up (import robyclif, build the
inputs) and prints that time.  Otherwise it runs closed-loop passes over the
workload's job list for about ``--seconds`` and writes a result document to
``--result``.

A pass runs every job once, back to back, in an order shuffled by
``--seed``; its time is the sum of the jobs' run times, each scaled to the
reference machine speed (see Speedometer).  Each job's
output is digested and compared with the committed reference outside the
timed region; a job that raises, fails an oracle or differs from the
reference is a failure and reports no time.  The first pass is a warm-up
(the only caches are the lru_caches in robyclif.scalars): it is checked but
not timed.  With ``--trace 1`` every timed pass is paired with a traced one,
and the traced pass feeds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED_PASSES = 3
MIN_TRACED_PAIRS = 2
MICRO_REPEATS = 3

# The machine this benchmark was written on changes speed by up to 2x over
# seconds to tens of seconds (other tenants share its cores): the 30 s median
# of raw pass times spread 11-21% from run to run.  So job times are scaled by
# the machine's speed while the job ran.  A SIGALRM handler runs a tiny fixed
# loop, shaped like the kernel's inner loop, every PROBE_PERIOD_S; a job's
# time, less the probe's own time, is converted to seconds at the speed where
# that loop takes PROBE_REFERENCE_S.  The raw times are kept in the result
# document.
PROBE_PERIOD_S = 0.025
PROBE_ROUNDS = 60
PROBE_REFERENCE_S = 0.0004  # about the loop's median time on that machine
MIN_PROBES = 4  # a shorter job borrows the probes nearest to it


def probe_loop() -> None:
    acc = {}
    for i in range(PROBE_ROUNDS):
        exp = (i % 7, i % 5, i % 3)
        c = Fraction(i % 11 + 1, i % 13 + 1) * Fraction(i % 5 + 1, i % 7 + 2)
        cur = acc.get(exp)
        acc[exp] = c if cur is None else cur + c


class Speedometer:
    """Samples the machine's speed from SIGALRM while it is entered."""

    def __init__(self):
        self.starts, self.lengths = [], []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_loop()
        self.lengths.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if enabled:
            gc.enable()

    def reference_seconds(self, t0: float, t1: float) -> float:
        """t1 - t0 without the probes' own time, at the reference speed."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        busy = sum(self.lengths[lo:hi])
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            hi = lo + MIN_PROBES
        speed = statistics.mean(self.lengths[lo:hi])
        return (t1 - t0 - busy) * PROBE_REFERENCE_S / speed


def normalized(value):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def gate(name: str, summary, problems: list, refs: dict) -> list:
    """Problems with one job's output; empty means it passed."""
    out = list(problems)
    if name not in refs:
        out.append("no committed reference")
    elif summary != refs[name]:
        out.append("output differs from the committed reference")
    return out


def corrupted(value):
    """A copy of value with its first leaf changed."""
    if isinstance(value, dict) and value:
        key = sorted(value)[0]
        return {**value, key: corrupted(value[key])}
    if isinstance(value, list) and value:
        return [corrupted(value[0])] + value[1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "#"
    return ["corrupted", value]


def run_pass(jobs, order_rng, seed, index, refs, speed, tracer=None):
    """Run every job once.

    Returns (pass time, per-job times, raw pass time, summaries, failures);
    pass and job times are at the reference speed.
    """
    order = list(jobs)
    order_rng.shuffle(order)
    times, raw_times, summaries, failures = {}, {}, {}, []
    for job in order:
        t0 = time.perf_counter()
        try:
            raw = tracer.span(f"job.{job.name}", job.run) if tracer else job.run()
        except Exception as exc:  # a job that raises is a failure, not a crash
            failures.append(f"{job.name}: raised {type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        if tracer:
            tracer.installed.suspend()
        try:
            summary, problems = job.digest(raw, random.Random(f"{seed}:{index}:{job.name}"))
            summary = normalized(summary)
        except Exception as exc:
            summary, problems = None, [f"digest raised {type(exc).__name__}: {exc}"]
        finally:
            if tracer:
                tracer.installed.resume()
        del raw
        bad = gate(job.name, summary, problems, refs)
        if bad:
            failures.append(f"{job.name}: " + "; ".join(bad))
        else:
            times[job.name] = speed.reference_seconds(t0, t1)
            raw_times[job.name] = t1 - t0
            summaries[job.name] = summary
    return sum(times.values()), times, sum(raw_times.values()), summaries, failures


def run_micro(rc, refs: dict, speed: Speedometer) -> tuple:
    times, failures = {}, []
    for name, fn in workloads.micro_jobs(rc).items():
        samples = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            value = fn()
            samples.append(speed.reference_seconds(t0, time.perf_counter()))
            if workloads.micro_digest(value) != refs.get(name):
                failures.append(f"kernel.micro.{name}: output differs from the committed reference")
                break
        else:
            times[f"kernel.micro.{name}_s"] = statistics.median(samples)
    return times, failures


def environment(rc) -> dict:
    kernel = rc.kernel
    git_sha = None
    head = HERE.parent / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = HERE.parent / ".git" / ref[5:]
            packed = HERE.parent / ".git" / "packed-refs"
            if target.is_file():
                git_sha = target.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        git_sha = line.split()[0]
        else:
            git_sha = ref
    return {
        "git_sha": git_sha,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernel.mul_terms.__module__,
        "cython_imported": "robyclif.kernel._termops_cy" in sys.modules,
    }


def load_refs(path: Path, workload: str) -> dict:
    return json.loads((path / f"{workload}.json").read_text(encoding="utf-8"))["jobs"]


def timed_setup(workload: str, tmp: Path, speed: Speedometer) -> tuple:
    """(jobs, set-up time at the reference speed, raw set-up time)."""
    t0 = time.perf_counter()
    jobs = workloads.build(workload, tmp)
    t1 = time.perf_counter()
    time.sleep(PROBE_PERIOD_S * MIN_PROBES)  # probes to borrow for so short a span
    return jobs, speed.reference_seconds(t0, t1), t1 - t0


def measure(args) -> dict:
    with workloads.temp_dir(HERE / "out") as tmp, Speedometer() as speed:
        jobs, setup_s, _ = timed_setup(args.workload, Path(tmp), speed)
        return run_workload(args, jobs, setup_s, speed)


def run_workload(args, jobs, setup_s, speed) -> dict:
    rc = sys.modules["robyclif"]
    refs = load_refs(Path(args.refs), args.workload)
    order_rng = random.Random(args.seed)
    start = time.perf_counter()
    failures, attempted = [], 0
    last, raw_walls = {}, []

    def one_pass(index, tracer=None):
        nonlocal attempted
        wall, times, raw_wall, summaries, bad = run_pass(
            jobs, order_rng, args.seed, index, refs, speed, tracer
        )
        attempted += len(jobs)
        failures.extend(bad)
        last.update(summaries)
        raw_walls.append(raw_wall)
        return wall, times

    warmup_wall, _ = one_pass(0)
    walls, job_times = [], {}
    traced_walls, layer_times, layer_counts, tables, kept_spans = [], [], [], [], None
    micro = {}
    if args.trace:
        micro, bad = run_micro(rc, load_refs(Path(args.refs), "kernel_micro"), speed)
        failures.extend(bad)
    index = 1
    while True:
        elapsed = time.perf_counter() - start
        pass_s = statistics.median(walls + traced_walls or [warmup_wall])
        needed = len(walls) < (MIN_TRACED_PAIRS if args.trace else MIN_TIMED_PASSES)
        if not needed and elapsed + pass_s * (2 if args.trace else 1) > args.seconds:
            break
        sides = ["plain", "traced"] if args.trace else ["plain"]
        if args.trace and index % 2 == 0:
            sides.reverse()  # alternate which side runs first
        for side in sides:
            if side == "plain":
                wall, times = one_pass(index)
                walls.append(wall)
                for name, dt in times.items():
                    job_times.setdefault(name, []).append(dt)
            else:
                tracer = layers.Tracer()
                tracer.installed = layers.Installed(tracer)
                try:
                    wall, _ = one_pass(index, tracer)
                finally:
                    tracer.installed.remove()
                traced_walls.append(wall)
                # span times to the reference speed, as the pass time was
                times, counts = layers.pass_metrics(tracer, wall / (raw_walls[-1] or wall or 1))
                layer_times.append(times)
                layer_counts.append(counts)
                tables.append(layers.span_table(tracer))
                if kept_spans is None:
                    kept_spans = tracer.spans
            index += 1

    gate_trips = all(
        gate(name, summary, [], {name: corrupted(summary)}) for name, summary in last.items()
    )
    if not gate_trips:
        failures.append("gate self-check: a corrupted reference was not detected")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": len(jobs),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "setup_s": setup_s,
        "warmup_wall_s": warmup_wall,
        "wall_s_samples": walls,
        "raw_wall_s_samples": raw_walls,  # every pass, warm-up and traced ones too
        "job_s": {name: statistics.median(v) for name, v in sorted(job_times.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(rc),
    }
    if args.trace and not failures:
        result["traced_wall_s_samples"] = traced_walls
        result["layers"] = layer_report(
            args.workload, walls, traced_walls, layer_times, layer_counts, job_times, micro
        )
        result["counts_repeat"] = all(c == layer_counts[0] for c in layer_counts)
        result["span_table"] = tables[0] if tables else {}
        result["spans"] = [list(s) for s in kept_spans or []]
    return result


def layer_report(workload, walls, traced_walls, layer_times, layer_counts, job_times, micro):
    metrics = {name: statistics.median(t[name] for t in layer_times) for name in layer_times[0]}
    metrics.update(layer_counts[0])
    metrics.update(layers.derived_metrics(metrics, layer_counts[0]))
    metrics.update(micro)
    if workload == "pipeline_ladder":
        for n in workloads.LADDER:
            metrics[f"pipeline.rung_s.dim{4 * 2**n}"] = statistics.median(job_times[f"ladder_n{n}"])
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--probe-setup", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", default=str(HERE / "refs"))
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.probe_setup:
        with workloads.temp_dir(HERE / "out") as tmp, Speedometer() as speed:
            _, setup_s, raw_s = timed_setup(args.workload, Path(tmp), speed)
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_s}))
        return 0
    result = measure(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
