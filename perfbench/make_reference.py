"""Regenerate reference_cli.json: the digest of the payload the CLI prints
for every input the ``cli`` workload can draw, computed in process.

Run from the repository root, on a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import os

import checks
import workloads
from k3mirror import cli


def main():
    reference = {}
    for kind, argvs in workloads.cli_pool().items():
        if kind == "pf-monodromy":      # floating point: checked by its invariants
            continue
        for argv in argvs:
            result, code = cli.run(list(argv))
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            text = json.dumps({"status": result.status, "payload": result.payload})
            reference[checks.argv_key(argv)] = checks.digest(text.encode())
    path = os.path.join(workloads.HERE, "reference_cli.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} reference digests -> {path}")


if __name__ == "__main__":
    main()
