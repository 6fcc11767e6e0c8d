"""Record the outputs every benchmark job is checked against.

    python3 bench/record_references.py

Runs each workload's compare job on every record any seed can pick and writes
``references.json`` beside this file.  Run it only at a commit whose
outputs are the accepted ones: the benchmark then fails any job whose
outputs move.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import WORK, import_tfbench


def main() -> int:
    import_tfbench()
    import workloads

    work = WORK / "references"
    shutil.rmtree(work, ignore_errors=True)
    references = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            pool = workload.pool()
            workloads.write_inputs(pool, work / name)
            refs = references[name] = {}
            for record in pool:
                out = work / "out"
                _, code = workloads.run_cli(workloads.job_argv(record, work / name, out))
                if code != 0:
                    sys.exit(f"error: {name} {record.key} exited with {code}")
                refs[record.key] = workloads.observe(out)
                shutil.rmtree(out)
                failed = {m: r["error"] for m, r in refs[record.key].items() if "error" in r}
                if failed:
                    sys.exit(f"error: {name} {record.key} method errors {failed}")
                print(f"{name} {record.key}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = Path(__file__).with_name("references.json")
    with open(path, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
