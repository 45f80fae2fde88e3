import importlib
import json
import os
import subprocess
import sys

import pytest

import k3mirror
from k3mirror.cli import _STANDARD_NAMES, main, run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3mirror.__file__)))


def invoke(*argv):
    return run(list(argv))


def test_fm_partners_value():
    result, code = invoke("fm-partners", "12")
    assert code == 0
    assert result.status == "value" and result.payload == 2


def test_fm_partners_rejects_odd_degree():
    result, code = invoke("fm-partners", "11")
    assert code == 1
    assert result.status == "fail"
    assert result.payload["operation"] == "fm-partners"


def test_monodromy_index_cross_checked():
    result, code = invoke("monodromy-index", "6")
    assert code == 0 and result.payload == 2


def test_verify_table1_passes():
    result, code = invoke("verify-table1")
    assert code == 0 and result.status == "pass"
    assert len(result.payload["checks"]) == 6
    assert all(c["passed"] for c in result.payload["checks"])


def test_verify_glue_default_and_other_n():
    result, code = invoke("verify-glue")
    assert code == 0 and result.status == "pass"
    assert result.payload["extends"] == {"T": True, "S1": True, "S2": False}
    result, code = invoke("verify-glue", "--n", "3")
    assert code == 0 and result.status == "pass"


def test_lattice_payload():
    result, code = invoke("lattice", "U_plus_Mn", "--n", "6")
    assert code == 0
    assert result.payload["gram"] == ["0", "0", "-1", "0", "12", "0", "-1", "0", "0"]
    assert result.payload["signature"] == [2, 1]
    assert result.payload["even"] is True


def test_disc_payload():
    result, code = invoke("disc", "two_n", "--n", "6")
    assert code == 0
    assert result.payload == {"invariant_factors": [12], "qvals": ["1/12"], "order": "12"}


def test_mukai_normalize():
    result, code = invoke("mukai", "normalize", "--degree", "12",
                          "--v", "0,0,1", "--u", "1,0,0")
    assert code == 0
    assert result.payload["v"] == {"r": 6, "d": [35], "s": 1225}
    assert result.payload["word"][0] == {"kind": "switch"}


def test_mukai_pair():
    result, code = invoke("mukai", "pair", "--degree", "12",
                          "--v", "1,0,0", "--w", "0,0,1")
    assert code == 0 and result.payload == -1


def test_pf_series_and_schwarzian():
    result, code = invoke("pf", "series", "--order", "5")
    assert code == 0
    assert result.payload["coefficients"][:4] == ["1", "6", "90", "1860"]
    result, code = invoke("pf", "schwarzian", "--order", "10")
    assert code == 0 and result.status == "pass"
    result, code = invoke("pf", "mirror-map", "--order", "8")
    assert code == 0 and result.payload["integral"] is True


def test_pf_mirror_map_fails_on_a_planted_coefficient(monkeypatch):
    from k3mirror import picard_fuchs
    from k3mirror.series import RationalSeries
    real = picard_fuchs.mirror_map

    def planted(order):
        mm = real(order)
        nums = list(mm.x_of_q.nums)
        nums[29] += 1                   # the coefficient of q^30
        return picard_fuchs.MirrorMap(log_shift=mm.log_shift,
                                      x_of_q=RationalSeries._from_ints(nums, 1, 1))

    monkeypatch.setattr(picard_fuchs, "mirror_map", planted)
    result, code = invoke("pf", "mirror-map", "--order", "40")
    assert code == 1 and result.status == "fail"
    assert result.payload["operation"] == "pf mirror-map"
    assert result.payload["inputs"] == {"order": 40, "power": 29}
    assert result.payload["expected"] == "0" and result.payload["got"] != "0"


def test_pf_series_fails_on_a_planted_coefficient(monkeypatch):
    from k3mirror import picard_fuchs
    from k3mirror.series import RationalSeries
    real = picard_fuchs.pi_series_by_recurrence

    def planted(order):
        s = real(order)
        nums = list(s.nums)
        nums[7] += s.den                # the coefficient of x^7, one more
        return RationalSeries._from_ints(nums, s.den)

    monkeypatch.setattr(picard_fuchs, "pi_series_by_recurrence", planted)
    result, code = run(["pf", "series", "--order=12"])
    assert code == 1 and result.status == "fail"
    assert result.payload["operation"] == "pf series"
    assert result.payload["inputs"] == {"order": 12, "power": 7}
    want = picard_fuchs.pi_series(7).coeff(7)
    assert result.payload["expected"] == str(want + 1) and result.payload["got"] == str(want)


def test_pf_monodromy_payload():
    result, code = invoke("pf", "monodromy", "--point", "0")
    assert code == 0
    inv = result.payload["invariants"]
    assert abs(inv["det"][0] - 1.0) < 1e-9
    assert result.payload["matrix"][1][0][1] != 0.0   # 2 pi i below the diagonal


def test_unknown_subcommand_exits_2(capsys):
    result, code = invoke("not-a-command")
    assert result is None and code == 2


def test_missing_subcommand_exits_2():
    result, code = invoke()
    assert result is None and code == 2


def test_help_lists_every_subcommand(capsys):
    result, code = invoke("--help")
    assert result is None and code == 0
    listed = capsys.readouterr().out
    for name in ("lattice", "disc", "mukai", "fm-partners", "monodromy-index",
                 "verify-table1", "verify-glue", "pf"):
        assert f"\n    {name} " in listed


@pytest.mark.parametrize("argv, usage", [
    (("fm-partners", "--help"), "fm-partners [-h]"),
    (("--timing", "pf", "series", "-h"), "pf series [-h]"),
])
def test_subcommand_help_exits_0(capsys, argv, usage):
    result, code = invoke(*argv)
    assert result is None and code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: k3mirror ") and usage in out


def test_usage_error_after_a_subcommand_lists_every_subcommand(capsys):
    result, code = invoke("fm-partners", "12", "extra")
    assert result is None and code == 2
    assert "{lattice,disc,mukai,fm-partners," in capsys.readouterr().err


def test_cli_output_is_deterministic():
    cmd = [sys.executable, "-m", "k3mirror.cli", "verify-glue", "--n", "2"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second
    parsed = json.loads(first)
    assert parsed["status"] == "pass"
    assert "elapsed_ms" not in parsed   # timing only with --timing


def test_cli_pretty_and_timing():
    cmd = [sys.executable, "-m", "k3mirror.cli", "verify-table1", "--pretty"]
    out = subprocess.run(cmd, capture_output=True, check=True).stdout.decode()
    assert "status: pass" in out and "[PASS] table-matrices" in out
    cmd = [sys.executable, "-m", "k3mirror.cli", "fm-partners", "12", "--timing"]
    parsed = json.loads(subprocess.run(cmd, capture_output=True, check=True).stdout)
    assert "elapsed_ms" in parsed


@pytest.mark.parametrize("argv", [
    ("--timing", "fm-partners", "12"),
    ("fm-partners", "12", "--timing"),
    ("--timing", "pf", "series", "--order", "5"),
    ("pf", "--timing", "series", "--order", "5"),
    ("pf", "series", "--order", "5", "--timing"),
])
def test_timing_flag_before_or_after_subcommand(argv):
    result, code = invoke(*argv)
    assert code == 0
    assert result.timing and not result.pretty


def test_flags_default_off():
    result, code = invoke("pf", "series", "--order", "5")
    assert code == 0
    assert not result.timing and not result.pretty


def test_main_renders_from_parsed_flags(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["k3mirror", "--timing", "fm-partners", "12"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert list(parsed) == ["status", "payload", "elapsed_ms"]
    monkeypatch.setattr(sys, "argv", ["k3mirror", "--pretty", "pf", "series", "--order", "5"])
    with pytest.raises(SystemExit):
        main()
    assert capsys.readouterr().out.startswith("status: value\n")


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_flag_fails_with_strict_json(monkeypatch, capsys, tol):
    monkeypatch.setattr(sys, "argv", ["k3mirror", "pf", "monodromy", "--point", "1/36",
                                      "--tol", tol])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    parsed = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert parsed["status"] == "fail"
    assert parsed["payload"]["inputs"]["tol"] == tol


# A fresh interpreter imports k3mirror, optionally runs one CLI call, and
# reports its exit code, which heavy third-party packages got loaded, which
# of the standard library's slow imports got loaded, which k3mirror
# submodules got loaded, and which of them were loaded when run() first read
# the clock.
_SLOW_STDLIB = ("dataclasses", "inspect", "typing")
_PROBE = """
import json, sys, time
import k3mirror

def submodules():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("k3mirror."))

code, at_clock = 0, None
if sys.argv[1:]:
    from k3mirror.cli import run
    clock = time.perf_counter
    def first_reading():
        global at_clock
        if at_clock is None:
            at_clock = submodules()
        return clock()
    time.perf_counter = first_reading
    code = run(sys.argv[1:])[1]
print(json.dumps({"code": code,
                  "loaded": [m for m in ("numpy", "scipy", "sympy") if m in sys.modules],
                  "stdlib": [m for m in %r if m in sys.modules],
                  "modules": submodules(), "at_clock": at_clock}))
""" % (_SLOW_STDLIB,)


def _probe(*argv):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path))
    return json.loads(proc.stdout)


def _bare_stdlib():
    """Which of _SLOW_STDLIB a bare interpreter already holds: a site .pth
    file may import typing before any code runs."""
    proc = subprocess.run([sys.executable, "-c", "import sys; print(sorted("
                           f"m for m in {_SLOW_STDLIB!r} if m in sys.modules))"],
                          capture_output=True, check=True, text=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("argv", [
    (),
    ("fm-partners", "12"),
    ("disc", "U_plus_Mn", "--n=6"),
    ("verify-table1",),
    ("verify-glue", "--n=6"),
    ("pf", "mirror-map", "--order=10"),
], ids=lambda argv: " ".join(argv) or "import")
def test_exact_paths_leave_numeric_stack_unloaded(argv):
    probe = _probe(*argv)
    assert (probe["code"], probe["loaded"]) == (0, [])


def test_monodromy_leaves_numeric_stack_unloaded():
    probe = _probe("pf", "monodromy", "--point=1/36")
    assert (probe["code"], probe["loaded"]) == (0, [])


PF = ["_frozen", "cli", "picard_fuchs", "series"]
MODULAR = ["_frozen", "cli", "discriminant", "lattices", "linalg", "modular"]
LOADS = [
    (("pf", "series", "--order=8"), 0, PF),
    (("pf", "schwarzian", "--order=8"), 0, PF),
    (("pf", "standard-form", "--order=8"), 0, PF),
    (("pf", "mirror-map", "--order=8"), 0, PF),
    (("pf", "monodromy", "--point=0"), 0, PF),
    (("pf", "monodromy", "--point=1/36", "--basepoint=1/45"), 1, PF),
    (("lattice", "U_plus_Mn", "--n=6"), 0, ["_frozen", "cli", "lattices", "linalg"]),
    (("disc", "two_n", "--n=6"), 0, ["_frozen", "cli", "discriminant", "lattices", "linalg"]),
    (("mukai", "pair", "--degree=12", "--v=1,0,0", "--w=0,0,1"), 0,
     ["_frozen", "cli", "lattices", "linalg", "mukai"]),
    (("fm-partners", "12"), 0, MODULAR),
    # a failing non-pf call must not load picard_fuchs for its except clause
    (("fm-partners", "11"), 1, MODULAR),
    (("monodromy-index", "6"), 0, MODULAR),
    (("verify-table1",), 0, MODULAR),
    (("verify-glue", "--n=3"), 0, MODULAR),
]


@pytest.mark.parametrize("argv, code, modules", LOADS, ids=[" ".join(a) for a, _, _ in LOADS])
def test_subcommand_loads_only_its_modules_before_the_clock(argv, code, modules):
    probe = _probe(*argv)
    assert probe["code"] == code
    assert probe["modules"] == modules
    assert probe["at_clock"] == modules   # elapsed_ms times no import
    # no value type or parser pulls in dataclasses, inspect or typing
    assert not {"dataclasses", "inspect"} & set(probe["stdlib"])
    assert str(probe["stdlib"]) == _bare_stdlib()


def test_plain_import_loads_no_submodule():
    assert _probe()["modules"] == []


# every public name of the package, by home module
PUBLIC_NAMES = {
    "discriminant": ["DiscriminantGroup", "GlueData", "construct_mirror_embedding",
                     "cyclic_disc_isometry_count", "discriminant_group", "glue_compatible",
                     "glue_extends", "in_kernel_star", "induced_disc_action"],
    "lattices": ["IntLattice", "Isometry", "bilinear", "direct_sum", "hyperbolic_extension",
                 "is_isometry", "make_standard", "orientation_sign_positive", "signature"],
    "modular": ["FracLinear", "F_map", "R_map", "SOMatrix", "fm_partner_count", "fricke",
                "gamma0_plus_generators", "monodromy_generators", "monodromy_index",
                "translation", "verify_degree12"],
    "mukai": ["Iota2", "MukaiVector", "NSContext", "ReflectCurve", "Shift", "Switch",
              "Tensor", "Twist", "apply_action", "mirror_period", "mirror_period_ambient",
              "mukai_pairing", "normalize_mukai_vector", "rank_one_context",
              "reflect_curve", "ring_mul"],
    "picard_fuchs": ["MirrorMap", "MonodromyResult", "ToleranceNotMet", "apply_operator",
                     "frobenius_basis", "mirror_map", "numeric_monodromy", "pf_operator",
                     "pi_series", "pi_series_by_recurrence", "schwarzian_check",
                     "standard_form_check"],
    "series": ["LogSeries", "RationalSeries"],
}


def test_lazy_namespace_resolves_every_public_name():
    homes = {name: module for module, names in PUBLIC_NAMES.items() for name in names}
    assert k3mirror._HOME == homes
    listed = dir(k3mirror)
    for name, module in homes.items():
        home = importlib.import_module(f"k3mirror.{module}")
        assert getattr(k3mirror, name) is getattr(home, name)
        assert name in listed
    assert "__version__" in listed
    with pytest.raises(AttributeError):
        k3mirror.not_a_public_name
    with pytest.raises(ImportError):
        from k3mirror import compose   # noqa: F401  (use g @ h)


def test_parser_names_match_the_lattice_module():
    from k3mirror import lattices
    assert _STANDARD_NAMES == lattices.STANDARD_NAMES


def test_pf_monodromy_basepoint_near_the_boundary_fails_distinctly():
    result, code = invoke("pf", "monodromy", "--point", "1/36", "--basepoint", "1/45")
    assert code == 1 and result.status == "fail"
    assert "convergence boundary" in result.payload["got"]


@pytest.mark.parametrize("argv", [("monodromy-index", "1000000000"),
                                  ("fm-partners", "200000000000062")])
def test_oversized_count_fails_fast(argv):
    result, code = invoke(*argv)
    assert code == 1 and result.status == "fail"
    assert "exceeds the maximum" in result.payload["got"]
    assert result.elapsed_ms < 1000


@pytest.mark.parametrize("op", ["series", "schwarzian", "standard-form", "mirror-map"])
def test_pf_oversized_order_fails_fast(op):
    result, code = invoke("pf", op, "--order", "3000000000")
    assert code == 1 and result.status == "fail"
    assert "exceeds the maximum" in result.payload["got"]
    assert result.elapsed_ms < 1000
