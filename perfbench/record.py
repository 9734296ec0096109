"""Record the answer digests that ``run.py`` checks for the default seed.

Run once per intended change of the benchmark, from the root of a checkout::

    python3 perfbench/record.py

Each job of every workload runs once through ``lorentz.cli.main``; its exit
code and its answer are checked as in a benchmark run, and the digest of the
answer fields is written to ``perfbench/expected.json``.
"""

from __future__ import annotations

import json
import os
import sys

import run
from inputs import WORKLOADS, build, write

SEED = 1


def main() -> int:
    os.chdir(run.ROOT)
    cli = run.import_cli()
    digests = {}
    for workload in WORKLOADS:
        in_dir = f"{run.OUT_DIR}/inputs/{workload}-s{SEED}"
        jobs, files = build(workload, SEED, in_dir)
        write(files, in_dir)
        digests[workload] = {}
        for job in jobs:
            code, out, error, _ = run.call_cli(job, cli)
            problem, report = run.judge(job, code, out, error)
            if problem:
                print(f"{workload}/{job.name}: {problem}", file=sys.stderr)
                return 1
            digests[workload][job.name] = run.digest(report)
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
