"""Single command-line entry point.

Every subcommand prints one JSON object {status, payload} on stdout; exact
quantities are decimal or "p/q" strings, monodromy matrices are [re, im]
pairs.  Exit codes: 0 for pass/value, 1 for a failed verification, 2 for a
usage error.  Output is byte-deterministic for fixed inputs on the exact
paths; --timing adds the elapsed-milliseconds field for humans.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from importlib import import_module

from ._frozen import Frozen

# lattices.STANDARD_NAMES, written out so that building the parser imports
# no submodule
_STANDARD_NAMES = ("U", "E8minus", "two_n", "minus_two_n", "K3", "Mukai",
                   "U_plus_Mn", "Mcheck_n")


class CommandResult(Frozen):
    __slots__ = ("status",       # "pass" | "fail" | "value"
                 "payload",
                 "elapsed_ms",
                 "pretty",       # --pretty: render for humans instead of JSON
                 "timing")       # --timing: add elapsed_ms to the JSON
    _defaults = {"pretty": False, "timing": False}


def _fail(operation: str, inputs, expected, got) -> dict:
    return {"operation": operation, "inputs": inputs,
            "expected": expected, "got": got}


def _cmd_lattice(args) -> tuple[str, object]:
    from . import lattices
    lat = lattices.make_standard(args.name, args.n)
    p, q = lattices.signature(lat)
    payload = lattices.lattice_to_obj(lat)
    payload.update(signature=[p, q], even=lat.is_even, determinant=str(lat.determinant))
    return "value", payload


def _cmd_disc(args) -> tuple[str, object]:
    from . import discriminant, lattices
    group = discriminant.discriminant_group(lattices.make_standard(args.name, args.n))
    return "value", {**discriminant.disc_group_to_obj(group), "order": str(group.order)}


def _parse_triple(text: str):
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected r,m,s with a rank-one degree-2 part")
    return parts


def _cmd_mukai(args) -> tuple[str, object]:
    from . import mukai
    if args.degree % 2 or args.degree <= 0:
        raise ValueError("degree must be a positive even integer")
    ctx = mukai.rank_one_context(args.degree // 2)
    if args.mukai_op == "pair":
        r1, m1, s1 = _parse_triple(args.v)
        r2, m2, s2 = _parse_triple(args.w)
        val = mukai.mukai_pairing(mukai.MukaiVector(ctx, r1, (m1,), s1),
                                  mukai.MukaiVector(ctx, r2, (m2,), s2))
        return "value", val
    if args.mukai_op == "normalize":
        r1, m1, s1 = _parse_triple(args.v)
        r2, m2, s2 = _parse_triple(args.u)
        word, v2, u2 = mukai.normalize_mukai_vector(
            ctx,
            mukai.MukaiVector(ctx, r1, (m1,), s1),
            mukai.MukaiVector(ctx, r2, (m2,), s2))
        return "value", {
            "word": [mukai.action_to_obj(a) for a in word],
            "v": mukai.mukai_vector_to_obj(v2),
            "u": mukai.mukai_vector_to_obj(u2),
        }
    raise ValueError(f"unknown mukai operation {args.mukai_op!r}")


def _cmd_fm_partners(args) -> tuple[str, object]:
    from . import modular
    return "value", modular.fm_partner_count(args.degree)


def _cmd_monodromy_index(args) -> tuple[str, object]:
    from . import modular
    n = args.n
    via_chain = modular.monodromy_index(n)
    via_primes = modular.fm_partner_count(2 * n)
    if via_chain != via_primes:
        return "fail", _fail("monodromy-index", {"n": n},
                             {"factorization": via_primes}, {"chain": via_chain})
    return "value", via_chain


def _cmd_verify_table1(_args) -> tuple[str, object]:
    from . import modular
    report = modular.verify_degree12(6)
    return ("pass" if report.passed else "fail"), report.to_obj()


def _cmd_verify_glue(args) -> tuple[str, object]:
    from . import discriminant, lattices, modular
    n = args.n
    gd = discriminant.construct_mirror_embedding(n)
    id_right = lattices.Isometry.identity(gd.right)
    if n == 6:
        gens = modular.monodromy_generators(6)
        expected = {"T": True, "S1": True, "S2": False}
    else:
        gens = {"T": modular.R_map(modular.translation(), n).to_isometry(),
                "S1": (-modular.R_map(modular.fricke(n), n)).to_isometry(),
                "v-reflection": lattices.Isometry(modular.u_plus_mn(n),
                                                  ((1, 0, 0), (0, -1, 0), (0, 0, 1)))}
        expected = {"T": True, "S1": True, "v-reflection": n == 1}
    results = {key: discriminant.glue_compatible(gd, g, id_right) for key, g in gens.items()}
    payload = {
        "n": n,
        "index": gd.index,
        "overlattice_determinant": str(gd.overlattice.determinant),
        "extends": results,
        "expected": expected,
    }
    if results == expected:
        return "pass", payload
    return "fail", _fail("verify-glue", {"n": n}, expected, results)


def _series_fail(args, check) -> dict:
    k, got, want = check.first_mismatch
    return _fail(f"pf {args.pf_op}", {"order": args.order, "power": k}, want, got)


def _cmd_pf(args) -> tuple[str, object]:
    from . import picard_fuchs
    if args.pf_op == "series":
        by_sum = picard_fuchs.pi_series(args.order)
        by_rec = picard_fuchs.pi_series_by_recurrence(args.order)
        check = picard_fuchs._compare(by_sum, by_rec.nums, by_rec.den, args.order)
        if not check.ok:
            return "fail", _series_fail(args, check)
        return "value", {"coefficients": [str(c) for c in by_sum.coeffs]}
    if args.pf_op in ("schwarzian", "standard-form"):
        check = (picard_fuchs.schwarzian_check if args.pf_op == "schwarzian"
                 else picard_fuchs.standard_form_check)(args.order)
        if check.ok:
            return "pass", {"order": check.order}
        return "fail", _series_fail(args, check)
    if args.pf_op == "mirror-map":
        mm = picard_fuchs.mirror_map(args.order)
        check = picard_fuchs._mirror_map_check(mm.x_of_q, args.order)
        if not check.ok:
            return "fail", _series_fail(args, check)
        coeffs = [mm.x_of_q.coeff(k) for k in range(args.order + 1)]
        return "value", {
            "x_of_q": [str(c) for c in coeffs],
            "integral": all(c.denominator == 1 for c in coeffs),
        }
    if args.pf_op == "monodromy":
        point = Fraction(args.point)
        res = picard_fuchs.numeric_monodromy(point, basepoint=Fraction(args.basepoint),
                                             tol=args.tol)
        payload = {
            "loop": res.loop,
            "matrix": [[[v.real, v.imag] for v in row] for row in res.matrix],
            "invariants": {
                "det": [res.det.real, res.det.imag],
                "trace": [res.trace.real, res.trace.imag],
                "order2_residual": res.order2_residual,
            },
            "residual": res.residual,
        }
        return "value", payload
    raise ValueError(f"unknown pf operation {args.pf_op!r}")


# Every subcommand: its help, its handler, the submodules it calls, and its
# arguments as (flag, add_argument options) pairs; a subcommand with
# operations maps each operation to its arguments instead.  run() imports the
# submodules before it starts the clock, so a call loads only what it runs
# (their own imports included) and elapsed_ms leaves the imports out.
_N = {"type": int, "default": None}
_TRIPLE = {"required": True, "help": "r,m,s"}
_COMMANDS = {
    "lattice": ("build a standard lattice", _cmd_lattice, ("lattices",),
                (("name", {"choices": _STANDARD_NAMES}), ("--n", _N))),
    "disc": ("discriminant group of a standard lattice", _cmd_disc,
             ("discriminant", "lattices"),
             (("name", {"choices": _STANDARD_NAMES}), ("--n", _N))),
    "mukai": ("Mukai vector computations (Picard rank one)", _cmd_mukai, ("mukai",), {
        "pair": (("--degree", {"type": int, "required": True}),
                 ("--v", _TRIPLE), ("--w", _TRIPLE)),
        "normalize": (("--degree", {"type": int, "required": True}),
                      ("--v", _TRIPLE),
                      ("--u", {"required": True, "help": "r,m,s companion pairing to -1"})),
    }),
    "fm-partners": ("number of Fourier-Mukai partners", _cmd_fm_partners, ("modular",),
                    (("degree", {"type": int}),)),
    "monodromy-index": ("monodromy index, cross-checked", _cmd_monodromy_index,
                        ("modular",), (("n", {"type": int}),)),
    "verify-table1": ("run the six-check degree-12 verification report",
                      _cmd_verify_table1, ("modular",), ()),
    "verify-glue": ("glue extension dichotomy", _cmd_verify_glue,
                    ("discriminant", "lattices", "modular"),
                    (("--n", {"type": int, "default": 6}),)),
    "pf": ("Picard-Fuchs computations", _cmd_pf, ("picard_fuchs",), {
        "series": (("--order", {"type": int, "default": 20}),),
        "schwarzian": (("--order", {"type": int, "default": 40}),),
        "standard-form": (("--order", {"type": int, "default": 30}),),
        "mirror-map": (("--order", {"type": int, "default": 30}),),
        "monodromy": (("--point", {"required": True, "help": "0, 1/36 or 1/4"}),
                      ("--tol", {"type": float, "default": 1e-6}),
                      ("--basepoint", {"default": "1/100"})),
    }),
}
_FLAGS = ("--pretty", "--timing")


def _subparsers(parser, dest: str, table: dict, argv):
    """Add a subparsers action over the names in table to parser.  Returns
    it with the names to build a subparser for, and the arguments after the
    chosen name: the name that argv's first positional argument gives, or
    every name for --help or a missing or unknown name."""
    names, rest = list(table), []
    for i, arg in enumerate(argv):
        if arg not in _FLAGS:
            if arg in table:
                names, rest = [arg], argv[i + 1:]
            break
    # a usage line lists every name also when one subparser is built; an
    # error about the name itself comes from a parser that has them all
    metavar = "{%s}" % ",".join(table) if len(names) < len(table) else None
    return parser.add_subparsers(dest=dest, required=True, metavar=metavar), names, rest


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv, with the subparser of the subcommand it calls."""
    # the flags are accepted at every level; SUPPRESS keeps a subcommand's
    # defaults from overwriting a flag given before it, so an absent flag
    # leaves no attribute at all
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS,
                        help="human-readable output")
    common.add_argument("--timing", action="store_true", default=argparse.SUPPRESS,
                        help="include elapsed_ms")
    parser = argparse.ArgumentParser(
        prog="k3mirror",
        parents=[common],
        description="Exact lattice, modular and Picard-Fuchs computations "
                    "for the degree-12 K3 mirror family.")
    sub, names, rest = _subparsers(parser, "command", _COMMANDS, argv)
    for name in names:
        help_, func, _, arguments = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_)
        p.set_defaults(func=func)
        if isinstance(arguments, dict):        # a subcommand with operations
            opsub, ops, _ = _subparsers(p, f"{name}_op", arguments, rest)
            targets = [(opsub.add_parser(op, parents=[common]), arguments[op]) for op in ops]
        else:
            targets = [(p, arguments)]
        for target, spec in targets:
            for flag, options in spec:
                target.add_argument(flag, **options)
    return parser


def _render_pretty(result: CommandResult) -> str:
    lines = [f"status: {result.status}"]
    payload = result.payload
    if isinstance(payload, dict) and "checks" in payload:
        for chk in payload["checks"]:
            mark = "PASS" if chk["passed"] else "FAIL"
            lines.append(f"  [{mark}] {chk['id']}: {chk['description']}")
    else:
        lines.append(json.dumps(payload, indent=2))
    return "\n".join(lines)


def run(argv) -> tuple[CommandResult | None, int]:
    """Parse and execute; returns (result, exit_code)."""
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return None, int(exc.code or 0)
    for name in _COMMANDS[args.command][2]:
        import_module(f"{__package__}.{name}")
    failures = (ValueError, ArithmeticError)
    if args.command == "pf":
        from .picard_fuchs import ToleranceNotMet
        failures += (ToleranceNotMet,)
    start = time.perf_counter()
    # a float flag that is not finite is echoed as its string, which JSON can hold
    inputs = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in vars(args).items()
              if k not in ("func", "pretty", "timing") and v is not None}
    try:
        status, payload = args.func(args)
    except failures as exc:
        status, payload = "fail", _fail(args.command, inputs, None, str(exc))
    elapsed = (time.perf_counter() - start) * 1000.0
    result = CommandResult(status, payload, elapsed,
                           pretty=getattr(args, "pretty", False),
                           timing=getattr(args, "timing", False))
    return result, (0 if status in ("pass", "value") else 1)


def main() -> None:
    result, code = run(sys.argv[1:])
    if result is not None:
        if result.pretty:
            print(_render_pretty(result))
        else:
            out = {"status": result.status, "payload": result.payload}
            if result.timing:
                out["elapsed_ms"] = result.elapsed_ms
            print(json.dumps(out, allow_nan=False))
    sys.exit(code)


if __name__ == "__main__":
    main()
