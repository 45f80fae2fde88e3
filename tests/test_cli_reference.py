"""Every exact CLI payload the benchmark's ``cli`` workload can draw must keep
the digest recorded in ``perfbench/reference_cli.json``.

The inputs come from ``perfbench/workloads.cli_pool()``; the floating-point
``pf-monodromy`` inputs are left out, as the reference leaves them out.  The
perfbench modules are loaded from their files without writing bytecode.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from k3mirror import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # workloads imports checks by this name
    spec.loader.exec_module(module)
    return module


def _perfbench():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return _load("checks"), _load("workloads")
    finally:
        sys.dont_write_bytecode = dont_write


CHECKS, WORKLOADS = _perfbench()
POOL = {kind: argvs for kind, argvs in WORKLOADS.cli_pool().items() if kind != "pf-monodromy"}
REFERENCE = json.loads((PERFBENCH / "reference_cli.json").read_text())


def test_reference_covers_the_exact_pool():
    keys = {CHECKS.argv_key(argv) for argvs in POOL.values() for argv in argvs}
    assert keys == set(REFERENCE)


@pytest.mark.parametrize("kind", sorted(POOL))
def test_payload_digests_match_reference(kind):
    mismatched = []
    for argv in POOL[kind]:
        result, code = cli.run(list(argv))
        assert code == 0, argv
        text = json.dumps({"status": result.status, "payload": result.payload})
        key = CHECKS.argv_key(argv)
        if CHECKS.digest(text.encode()) != REFERENCE[key]:
            mismatched.append(key)
    assert not mismatched
