"""Regenerate references.json from the program in this checkout, at the default seed.

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are trusted: every later run is
checked against what it writes.
"""

import json
import sys

from run import ROOT, Launcher, run_unit
from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS, make_reference


def main() -> int:
    launcher = Launcher(ROOT)
    work = ROOT / ".perfbench" / "work"
    refs = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        unit = run_unit(launcher, workload, DEFAULT_SEED, False, work, None)
        bad = [o.rc for o in unit.outputs if o.rc != 0]
        if bad or not unit.complete:
            print(f"{name}: exit codes {bad}, complete={unit.complete}", file=sys.stderr)
            return 1
        refs["workloads"][name] = make_reference(workload, unit.outputs)
        print(f"{name}: {unit.elapsed_s:.1f} s", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
