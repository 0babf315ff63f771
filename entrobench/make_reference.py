"""Write reference.json: the output digest of every workload input at the
current commit, against which run.py flags changed seeded outputs.

    python3 entrobench/make_reference.py

Run it from the repository root, on the commit that should serve as the
reference.  The smb workloads are recorded for each of the
workloads.REFERENCE_SEEDS CLI seeds; exact-long-memory has no random input.
"""

import json
import subprocess
import sys

from run import HERE, ROOT, run_child
from workloads import REFERENCE_SEEDS, WORKLOADS, output_digest


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    digests, env = {}, None
    for name, workload in WORKLOADS.items():
        seeds = [0] if name == "exact-long-memory" else range(REFERENCE_SEEDS)
        for seed in seeds:
            report = run_child(workload.commands(seed), traced=False, timeout=120)
            key = "any" if name == "exact-long-memory" else str(seed)
            digests.setdefault(name, {})[key] = output_digest(report["results"])
            env = report["env"]
            print(name, key, digests[name][key], file=sys.stderr)
    reference = {"source_commit": commit, "env": env, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
