"""robyclif's benchmark: exact workloads, checked outputs, end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (see perfbench/README.md): pipeline_ladder, charpoly_fat,
cyclotomic_twist.  Each run times the set-up in several fresh processes,
then runs the workload in one more fresh process for about --seconds, and
checks every output against the committed references and closed-form
oracles before it reports a number.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones from
an outside-in traced run, and writes the full per-layer document to
perfbench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A run with a failed job
reports no metrics and exits 1; a checkout without robyclif's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("pipeline_ladder", "charpoly_fat", "cyclotomic_twist")
SETUP_PROBES = 6  # fresh set-up processes per run, after one warm-up probe
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts, so same gc counts
    env.pop("PYTHONPATH", None)  # worker.py puts this checkout's src/ first
    return env


def child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def probe_setup(workload: str) -> list:
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = child(["--workload", workload, "--probe-setup"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:  # the first probe may compile bytecode; it only warms up
            samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_one(workload: str, args, spec: dict) -> dict:
    setup_samples = probe_setup(workload)
    result_path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--refs", args.refs, "--result", str(result_path)]
    proc = child(argv)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    setup_samples.append(result["setup_s"])
    result["setup_s_samples"] = setup_samples
    correct = result["failed"] == 0
    metrics = {}
    if correct and not args.trace:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(result["wall_s_samples"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    elif correct:
        layer_path = OUT / f"layers-{workload}-seed{args.seed}.json"
        doc = {k: result[k] for k in ("workload", "seed", "environment", "counts_repeat",
                                      "layers", "span_table", "spans")}
        doc["traced_wall_s_samples"] = result["traced_wall_s_samples"]
        doc["wall_s_samples"] = result["wall_s_samples"]
        layer_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print_summary(workload, args, result, correct)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_summary(workload: str, args, result: dict, correct: bool) -> None:
    env = result["environment"]
    print(f"{workload}: seed {args.seed}, python {env['python']}, nproc {env['nproc']}, "
          f"kernel {env['kernel_backend']}, cython imported {env['cython_imported']}, "
          f"git {env['git_sha'] or 'unknown'}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  fail_frac    {fail_frac:.4f}  ({result['failed']} of {result['attempted']} jobs)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    if not correct:
        print("  no timing reported: outputs failed the gate")
        return
    setups, walls = result["setup_s_samples"], result["wall_s_samples"]
    print(f"  setup_s      {statistics.median(setups):.4f} s   (median of {len(setups)} processes)")
    print(f"  wall_s       {statistics.median(walls):.4f} s   (median of {len(walls)} passes, "
          f"min {min(walls):.4f}, max {max(walls):.4f}; at reference speed)")
    print(f"  raw wall     {statistics.median(result['raw_wall_s_samples']):.4f} s   "
          f"(median of all {len(result['raw_wall_s_samples'])} passes as timed)")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.2f} MB")
    if args.trace:
        overhead = result["layers"]["trace.overhead_frac"]
        print(f"  trace: overhead {overhead:.3f}, counts repeat {result['counts_repeat']}, "
              f"layers in perfbench/out/layers-{workload}-seed{args.seed}.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", default=str(HERE / "refs"),
                        help="reference directory (the self-test points it at corrupted copies)")
    args = parser.parse_args()

    if not (ROOT / "src" / "robyclif" / "__init__.py").is_file():
        print(f"error: no robyclif sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args, spec) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
