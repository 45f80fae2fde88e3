"""Self-test of the benchmark: every checker accepts a correct output and
rejects a corrupted one, and BENCHMARK.json names the metrics run.py and
layers.json produce.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import Op, split_timing  # noqa: E402


def expect(ok: bool, what: str, failures: list):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def mirror_map_cases(failures):
    from k3mirror import picard_fuchs as pf
    from k3mirror.picard_fuchs import MirrorMap
    from k3mirror.series import RationalSeries
    n = 12
    mm = pf.mirror_map(n)
    expect(checks.check_mirror_map(pf, n, mm) is None, "mirror map: correct output passes",
           failures)
    for k in (3, n):
        coeffs = list(mm.x_of_q.coeffs)
        coeffs[k - mm.x_of_q.lead] = -coeffs[k - mm.x_of_q.lead]
        bad = MirrorMap(mm.log_shift, RationalSeries(coeffs, mm.x_of_q.lead))
        expect(checks.check_mirror_map(pf, n, bad) is not None,
               f"mirror map: flipped coefficient of q^{k} is rejected", failures)
    res = pf.numeric_monodromy(Fraction(1, 36))
    expect(checks.check_monodromy("1/36", res.matrix, res.det, res.trace) is None,
           "monodromy: correct output passes", failures)
    expect(checks.check_monodromy("1/36", res.matrix, -res.det, res.trace) is not None,
           "monodromy: wrong determinant is rejected", failures)


def glue_cases(failures):
    from k3mirror import discriminant, lattices, modular
    gd = discriminant.construct_mirror_embedding(6)
    ident = lattices.Isometry.identity(gd.right)
    gens = modular.monodromy_generators(6)
    wl = SimpleNamespace(disc=discriminant,
                         glue_pool=[(gd, gens["T"], ident), (gd, gens["S2"], ident)])
    for i, key in enumerate(("T", "S2")):
        out = discriminant.glue_extends(*wl.glue_pool[i])
        op = Op("glue", (i,))
        expect(checks.check_lattice(wl, op, out) is None,
               f"glue ({key}, id): correct verdict passes", failures)
        inverted = lattices.Isometry.identity(gd.overlattice) if out is None else None
        expect(checks.check_lattice(wl, op, inverted) is not None,
               f"glue ({key}, id): inverted verdict is rejected", failures)


def cli_cases(failures):
    from k3mirror import cli
    with open(os.path.join(run.HERE, "reference_cli.json")) as fh:
        reference = json.load(fh)
    argv = ("fm-partners", "12")
    result, code = cli.run(list(argv))
    printed = json.dumps({"status": result.status, "payload": result.payload,
                          "elapsed_ms": 0.25}).encode() + b"\n"
    payload, elapsed = split_timing(printed)
    op = Op("fm-partners", argv)
    expect(checks.check_cli(reference, op, (code, payload, elapsed)) is None,
           "cli: output equal to the reference passes", failures)
    changed = payload.replace(b"2", b"3")
    expect(checks.check_cli(reference, op, (code, changed, elapsed)) is not None,
           "cli: one changed byte is rejected", failures)


def manifest_cases(failures):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "layers.json")) as fh:
        layers = json.load(fh)["metrics"]
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py", failures)
    expect(bench["per_layer"] == layers, "BENCHMARK.json per_layer matches layers.json",
           failures)
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py", failures)


def main() -> int:
    failures = []
    for case in (mirror_map_cases, glue_cases, cli_cases, manifest_cases):
        case(failures)
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
