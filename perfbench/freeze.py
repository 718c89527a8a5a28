"""Regenerate references.json: the frozen outputs of every workload job.

Run from the root of a checkout, only when the reference outputs are meant
to change (a new job, or a deliberate change of the numerics):

    python3 perfbench/freeze.py [workload ...]

Each job runs once per seed slot; the fields named in its `checks` that are
compared against a reference are stored.  Workloads not named keep their
existing references.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main(names) -> int:
    refs = {}
    if os.path.exists(workloads.REFERENCES):
        refs = workloads.load_references()
    out_root = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_root)
    os.environ["OUTPUT_DIR"] = workdir
    try:
        for name in names or workloads.WORKLOADS:
            table = {}
            for slot in range(workloads.SLOTS):
                table[str(slot)] = {}
                for job in workloads.WORKLOADS[name]:
                    result = workloads.execute(job, slot, workdir).result
                    frozen = workloads.frozen_fields(job, result)
                    bad = workloads.problems(job, result, frozen)
                    if bad:
                        raise SystemExit("; ".join(bad))
                    table[str(slot)][job.name] = frozen
                print(f"{name} slot {slot} frozen", file=sys.stderr)
            refs[name] = table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
