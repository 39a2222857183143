"""Record reference.json: the final diagnostics row of every workload for
seeds 0..SEEDS-1, which run.py compares each run against (see checks.py for
the tolerance). Run from the root of a checkout:

    python3 perfbench/make_reference.py

It runs each workload once per seed, about ten minutes on 2 cores. Record
again only when a workload's definition changes: a program change that
moves these values changes the program's results, which a performance
change must not do.
"""

import json
import shutil

from run import REFERENCE, ROOT, run_child
from workloads import WORKLOADS, make_inputs

SEEDS = 32


def main() -> None:
    reference = {}
    work = ROOT / ".perfbench_work" / "reference"
    try:
        for name, w in WORKLOADS.items():
            reference[name] = {}
            for seed in range(SEEDS):
                config = make_inputs(name, seed, work / "in", work / "out")
                sample = run_child(w, "phases", config, work / "out",
                                   work / "report.json", None)
                if sample.problems:
                    raise SystemExit(f"{name} seed {seed}: {sample.problems}")
                reference[name][str(seed)] = sample.final_row
                print(name, seed, sample.final_row, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
