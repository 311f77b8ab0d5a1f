"""Record the reference digest of every job in every workload's universe.

Run this only on a commit whose outputs are known to be right; the
benchmark then counts any later output that differs as a failed job.
Jobs run one at a time, as in the benchmark.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json

import workloads
from jobrun import ROOT, cli_command, digest, job_env, job_key, run_command

REFERENCE = ROOT / "perfbench" / "reference.json"


def main() -> int:
    env = job_env()
    reference, failed = {}, []
    for workload in workloads.WORKLOADS:
        jobs = workloads.universe(workload)
        results = [run_command(cli_command(argv), argv, env) for argv in jobs]
        reference[workload] = {}
        for result in results:
            key = job_key(result.argv)
            if result.returncode != 0 or any(
                line.startswith("FAIL") for line in result.stdout.splitlines()
            ):
                failed.append(key)
                continue
            reference[workload][key] = digest(result.stdout)
        print(f"{workload}: {len(results)} jobs, {sum(r.seconds for r in results):.1f} s", flush=True)
    if failed:
        print("jobs that failed, so no reference was recorded:", *failed, sep="\n  ")
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
