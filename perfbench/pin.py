"""Rewrite perfbench/pinned.json from the current sources, at the default seed.

    python3 perfbench/pin.py

Pins are the outputs every later commit must reproduce; rewrite them only when
an output is meant to change, and say so in the change that does it.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main():
    pins = {}
    for workload in ("session", "exact", "search"):
        jobs = workloads.make_jobs(workload, run.DEFAULT_SEED,
                                   run.WORK / f"pin-{workload}")
        pins[workload] = [workloads.pin_of(job, workloads.collect(job, workloads.execute(job)))
                          for job in jobs]
    path = run.HERE / "pinned.json"
    path.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
