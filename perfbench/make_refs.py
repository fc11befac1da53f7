"""Regenerate the committed reference outputs in perfbench/refs/.

    python3 perfbench/make_refs.py

Runs every job of every workload once, plus the kernel micro-workloads, and
writes their digested outputs.  A job whose closed-form oracle fails is
reported and no file is written for its workload, so a reference never
records a wrong answer.  Only rerun this when an output is meant to change,
and say why in the change that commits the new files.
"""

from __future__ import annotations

import json
import random
import sys

import worker
import workloads


def main() -> int:
    refs_dir = worker.HERE / "refs"
    refs_dir.mkdir(exist_ok=True)
    status = 0
    with workloads.temp_dir(worker.HERE / "out") as tmp:
        for name in workloads.WORKLOADS:
            jobs = workloads.build(name, worker.Path(tmp))
            out, problems = {}, []
            for job in jobs:
                summary, bad = job.digest(job.run(), random.Random(f"refs:{job.name}"))
                out[job.name] = worker.normalized(summary)
                problems += [f"{name}/{job.name}: {p}" for p in bad]
            if problems:
                print("\n".join(problems), file=sys.stderr)
                status = 1
                continue
            write(refs_dir / f"{name}.json", out)
    rc = sys.modules["robyclif"]
    micro = {name: workloads.micro_digest(fn()) for name, fn in workloads.micro_jobs(rc).items()}
    write(refs_dir / "kernel_micro.json", micro)
    return status


def write(path, jobs: dict) -> None:
    rc = sys.modules["robyclif"]
    doc = {"generated_with": worker.environment(rc), "jobs": jobs}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}: {len(jobs)} outputs")


if __name__ == "__main__":
    raise SystemExit(main())
