"""Seeded op streams and op runners for the three workloads.

Each workload repeats a fixed pattern of op kinds.  The seed picks only the
arguments of each op, never how many ops of each kind a pattern holds, so
runs on different seeds carry comparable work.  Every library call that
builds an input happens in the constructor or in ``warm_up``, before the
timed phase; ``run`` makes only the calls being measured.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


class Op(NamedTuple):
    kind: str
    args: tuple


class OpError(NamedTuple):
    """Stands in for the output of an op that raised."""

    message: str


def _histogram(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _shuffled_forever(rng: random.Random, items):
    """Every item once in a seeded order, then again in a fresh order."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


# -- periods ------------------------------------------------------------------

STRATA = 8
# interleave cheap and dear strata, so a run cut short still holds a balanced mix
STRATUM_ORDER = (0, 7, 2, 5, 1, 6, 3, 4)
MONODROMY_POINTS = ("0", "1/36", "1/4")
BASEPOINTS = ("1/200", "1/150", "1/120", "1/100", "1/90", "1/80", "1/70")


def _pick(rng: random.Random, lo: int, hi: int, stratum: int) -> int:
    """A value from the given one of STRATA equal slices of range(lo, hi)."""
    return rng.randrange(lo + (hi - lo) * stratum // STRATA,
                         lo + (hi - lo) * (stratum + 1) // STRATA)


class Periods:
    """Picard-Fuchs requests grouped by order, in process."""

    name = "periods"

    def __init__(self, seed: int):
        from k3mirror import picard_fuchs
        self.pf = picard_fuchs
        self.seed = seed

    def warm_up(self):
        pf = self.pf
        pf.mirror_map(8)
        pf.schwarzian_check(8)
        pf.standard_form_check(8)
        pf.pi_series(10).eq_through(pf.pi_series_by_recurrence(10), 10)
        pf.numeric_monodromy(Fraction(0))

    def ops(self):
        rng = random.Random(self.seed)
        group = 0
        while True:
            s = STRATUM_ORDER[group % STRATA]
            n, n2, m = _pick(rng, 8, 32, s), _pick(rng, 20, 61, s), _pick(rng, 50, 151, s)
            yield Op("mirror_map", (n,))
            yield Op("schwarzian", (n2,))
            yield Op("standard_form", (n2,))
            yield Op("pi_series", (m,))
            # two loops per group, taking the three points in turn, keeps the
            # integrator from outweighing the exact series work
            for p in (group % 3, (group + 1) % 3):
                yield Op("monodromy", (MONODROMY_POINTS[p], rng.choice(BASEPOINTS)))
            group += 1

    def run(self, op: Op, tracer=None):
        pf = self.pf
        if op.kind == "mirror_map":
            return pf.mirror_map(op.args[0])
        if op.kind == "schwarzian":
            return pf.schwarzian_check(op.args[0])
        if op.kind == "standard_form":
            return pf.standard_form_check(op.args[0])
        if op.kind == "pi_series":
            m = op.args[0]
            return pf.pi_series(m), pf.pi_series_by_recurrence(m)
        if op.kind == "monodromy":
            point, base = op.args
            return pf.numeric_monodromy(Fraction(point), basepoint=Fraction(base))
        raise ValueError(op.kind)

    def check(self, op: Op, out) -> str | None:
        return checks.check_periods(self.pf, op, out)

    def traffic(self, records) -> dict:
        orders = {kind: _histogram(op.args[0] for op, _, _ in records if op.kind == kind)
                  for kind in ("mirror_map", "schwarzian", "pi_series")}
        orders["basepoint"] = _histogram(op.args[1] for op, _, _ in records
                                         if op.kind == "monodromy")
        return {"orders": orders}

    def scaling_points(self, records):
        return [(op.args[0], ms) for op, _, ms in records if op.kind == "mirror_map"]



# -- lattice --------------------------------------------------------------------

# the cheap ops below the R-map ones make up just under half of a round, so
# the median latency falls inside the R-map cluster
LATTICE_PATTERN = ("glue", "rmap", "disc", "normalize", "rmap", "embed", "fm", "disc",
                   "glue", "rmap", "verify", "rmap", "disc", "normalize", "rmap",
                   "glue", "fm", "embed", "rmap", "disc")
DISC_KINDS = ("U_plus_Mn", "Mcheck_n", "two_n", "minus_two_n")
GLUE_LEVELS = 4          # distinct n in the glue pool
GLUE_PAIRS = 6           # isometry pairs per n
N_RANGE = range(1, 61)
GLUE_RANGE = range(2, 61)   # at n = 1 every pair extends
FM_RANGE = range(1, 1001)
LATTICE_ROUNDS = 200     # pattern repeats built ahead; a run cycles them if it needs more


def _word_matrix(rng: random.Random, gens, max_len=5):
    """Product of 1..max_len seeded generators, as tests/conftest.py draws them."""
    size = len(gens[0])
    m = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    for _ in range(rng.randint(1, max_len)):
        m = checks.matmul(m, rng.choice(gens))
    return m


class Lattice:
    """A seeded mix of lattice, discriminant, modular and Mukai ops, in process."""

    name = "lattice"

    def __init__(self, seed: int):
        from k3mirror import discriminant, lattices, modular, mukai
        self.disc, self.lat, self.mod, self.mukai = discriminant, lattices, modular, mukai
        rng = random.Random(seed)
        self.glue_pool = self._glue_pool(rng)
        self.schedule = self._schedule(rng)

    def _glue_pool(self, rng):
        """GLUE_PAIRS word pairs for each of GLUE_LEVELS seeded n, half of
        them extending, so the accept share does not depend on the seed."""
        Isometry, action = self.lat.Isometry, self.disc.induced_disc_action
        pool = []
        for n in rng.sample(GLUE_RANGE, GLUE_LEVELS):
            gd = self.disc.construct_mirror_embedding(n)
            left = [m.matrix for m in self._n_side(n)]
            right = [m.matrix for m in self._mirror_side(gd)]
            wanted = {True: GLUE_PAIRS // 2, False: GLUE_PAIRS - GLUE_PAIRS // 2}
            while any(wanted.values()):
                gl = Isometry(gd.left, _word_matrix(rng, left))
                gr = Isometry(gd.right, _word_matrix(rng, right))
                extends = action(gd.left, gl) == action(gd.right, gr)
                if wanted[extends]:
                    wanted[extends] -= 1
                    pool.append((gd, gl, gr))
        return pool

    def _n_side(self, n):
        """Translation and Fricke images, -id and the v-reflection on U + <2n>."""
        mod, Isometry = self.mod, self.lat.Isometry
        lat = mod.u_plus_mn(n)
        return [mod.R_map(mod.translation(), n).to_isometry(),
                (-mod.R_map(mod.fricke(n), n)).to_isometry(),
                -Isometry.identity(lat),
                Isometry(lat, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))]

    def _mirror_side(self, gd):
        """Identity, -id, the <-2n> reflection, the E8 swap and an E8 root
        reflection on the rank-21 summand."""
        lat, Isometry = gd.right, self.lat.Isometry
        rank = lat.rank
        ident = Isometry.identity(lat)
        refl_w = Isometry(lat, tuple(
            tuple((-1 if i == j == 2 else (1 if i == j else 0)) for j in range(rank))
            for i in range(rank)))
        perm = list(range(rank))
        for k in range(8):
            perm[5 + k], perm[13 + k] = perm[13 + k], perm[5 + k]
        swap = Isometry(lat, tuple(tuple(1 if perm[j] == i else 0 for j in range(rank))
                                   for i in range(rank)))
        root = tuple(1 if i == 5 else 0 for i in range(rank))
        return [ident, -ident, refl_w, swap, self.lat.root_reflection(lat, root)]

    def _schedule(self, rng):
        mod, mukai = self.mod, self.mukai
        disc_keys = _shuffled_forever(rng, [(k, n) for k in DISC_KINDS for n in N_RANGE])
        embed_ns = _shuffled_forever(rng, N_RANGE)
        glue_ids = _shuffled_forever(rng, range(len(self.glue_pool)))
        gens = {}
        ops = []
        for _ in range(LATTICE_ROUNDS):
            for kind in LATTICE_PATTERN:
                if kind == "glue":
                    ops.append(Op(kind, (next(glue_ids),)))
                elif kind == "disc":
                    ops.append(Op(kind, next(disc_keys)))
                elif kind == "embed":
                    ops.append(Op(kind, (next(embed_ns),)))
                elif kind == "verify":
                    ops.append(Op(kind, (6,)))
                elif kind == "fm":
                    ops.append(Op(kind, (rng.choice(FM_RANGE),)))
                elif kind == "rmap":
                    n = rng.choice(N_RANGE)
                    if n not in gens:
                        gens[n] = (mod.translation(), mod.FracLinear(((1, -1), (0, 1))),
                                   mod.fricke(n))
                    g = self._frac_word(rng, gens[n])
                    h = self._frac_word(rng, gens[n])
                    ops.append(Op(kind, (n, g, h, g @ h)))
                elif kind == "normalize":
                    n = rng.choice(N_RANGE)
                    ctx = mukai.rank_one_context(n)
                    v, u = checks.isotropic_pair(rng, n)
                    ops.append(Op(kind, (n, ctx, mukai.MukaiVector(ctx, v[0], (v[1],), v[2]),
                                         mukai.MukaiVector(ctx, u[0], (u[1],), u[2]))))
        return ops

    @staticmethod
    def _frac_word(rng, gens):
        g = rng.choice(gens)
        for _ in range(rng.randint(0, 3)):
            g = g @ rng.choice(gens)
        return g

    def warm_up(self):
        gd, gl, gr = self.glue_pool[0]
        self.disc.glue_extends(gd, gl, gr)
        self.mod.verify_degree12(6)
        self.disc.discriminant_group(self.lat.make_standard("U_plus_Mn", 6))
        self.mod.fm_partner_count(12)
        self.mod.monodromy_index(6)

    def ops(self):
        while True:
            yield from self.schedule

    def run(self, op: Op, tracer=None):
        disc, lat, mod = self.disc, self.lat, self.mod
        a = op.args
        if op.kind == "glue":
            gd, gl, gr = self.glue_pool[a[0]]
            return disc.glue_extends(gd, gl, gr)
        if op.kind == "disc":
            return disc.discriminant_group(lat.make_standard(a[0], a[1]))
        if op.kind == "embed":
            return disc.construct_mirror_embedding(a[0])
        if op.kind == "verify":
            return mod.verify_degree12(a[0])
        if op.kind == "fm":
            return mod.fm_partner_count(2 * a[0]), mod.monodromy_index(a[0])
        if op.kind == "rmap":
            n, g, h, gh = a
            return mod.R_map(gh, n), mod.R_map(g, n), mod.R_map(h, n)
        if op.kind == "normalize":
            return self.mukai.normalize_mukai_vector(a[1], a[2], a[3])
        raise ValueError(op.kind)

    def check(self, op: Op, out) -> str | None:
        return checks.check_lattice(self, op, out)

    @staticmethod
    def input_key(op: Op):
        """What a library cache would key on, or None for ops that use no cache."""
        if op.kind in ("disc", "embed", "verify"):
            return op
        if op.kind == "rmap":
            return op.kind, op.args[0]
        return None

    def traffic(self, records) -> dict:
        seen, repeats, keyed = set(), 0, 0
        for op, _, _ in records:
            key = self.input_key(op)
            if key is None:
                continue
            keyed += 1
            repeats += key in seen
            seen.add(key)
        verdicts = [out is not None for op, out, _ in records if op.kind == "glue"]
        return {
            "kinds": _histogram(op.kind for op, _, _ in records),
            "n_by_tens": _histogram(op.args[1] // 10 * 10 if op.kind == "disc"
                                    else op.args[0] // 10 * 10
                                    for op, _, _ in records if op.kind in ("disc", "embed")),
            "cache_repeat_share": repeats / keyed if keyed else 0.0,
            "glue_accept_share": sum(verdicts) / len(verdicts) if verdicts else 0.0,
        }

    def scaling_points(self, records):
        return []



# -- cli ------------------------------------------------------------------------

CLI_PATTERN = ("fm-partners", "lattice", "disc", "monodromy-index", "mukai-pair",
               "pf-series", "lattice", "disc", "mukai-normalize", "fm-partners",
               "verify-glue", "pf-schwarzian", "monodromy-index", "lattice", "disc",
               "pf-mirror-map", "mukai-pair", "fm-partners", "verify-table1",
               "pf-standard-form", "mukai-normalize", "disc", "lattice", "pf-monodromy")
MONODROMY_BASEPOINTS = ("1/200", "1/100", "1/75", "1/50")
_ELAPSED = re.compile(rb', "elapsed_ms": ([^,}]*)\}\n?$')


def cli_pool() -> dict[str, list[tuple[str, ...]]]:
    """Every CLI input the workload can draw, by subcommand; fixed, so the
    reference digests cover all of them."""
    rng = random.Random(0)
    named = [("lattice", name) for name in ("U", "E8minus", "K3", "Mukai")]
    with_n = [(name, f"--n={n}") for name in ("two_n", "minus_two_n", "U_plus_Mn", "Mcheck_n")
              for n in range(1, 31)]
    pairs = []
    for _ in range(40):
        n = rng.randint(1, 30)
        v, w = ([rng.randint(-5, 5) for _ in range(3)] for _ in range(2))
        pairs.append(("mukai", "pair", f"--degree={2 * n}", "--v=" + ",".join(map(str, v)),
                      "--w=" + ",".join(map(str, w))))
    normal = []
    for _ in range(40):
        n = rng.randint(1, 30)
        v, u = checks.isotropic_pair(rng, n)
        normal.append(("mukai", "normalize", f"--degree={2 * n}",
                       "--v=" + ",".join(map(str, v)), "--u=" + ",".join(map(str, u))))
    return {
        "fm-partners": [("fm-partners", str(2 * n)) for n in range(1, 121)],
        "monodromy-index": [("monodromy-index", str(n)) for n in range(1, 121)],
        "lattice": [a for a in named] + [("lattice",) + a for a in with_n],
        "disc": [("disc",) + a[1:] for a in named] + [("disc",) + a for a in with_n],
        "mukai-pair": pairs,
        "mukai-normalize": normal,
        "verify-table1": [("verify-table1",)],
        "verify-glue": [("verify-glue", f"--n={n}") for n in range(1, 31)],
        "pf-series": [("pf", "series", f"--order={k}") for k in range(4, 21)],
        "pf-schwarzian": [("pf", "schwarzian", f"--order={k}") for k in range(8, 21)],
        "pf-standard-form": [("pf", "standard-form", f"--order={k}") for k in range(8, 21)],
        "pf-mirror-map": [("pf", "mirror-map", f"--order={k}") for k in range(4, 21)],
        "pf-monodromy": [("pf", "monodromy", f"--point={p}", f"--basepoint={b}")
                         for p in MONODROMY_POINTS for b in MONODROMY_BASEPOINTS],
    }


def split_timing(stdout: bytes) -> tuple[bytes, float | None]:
    """The output without its elapsed_ms field, and that field's value."""
    m = _ELAPSED.search(stdout)
    if m is None:
        return stdout, None
    return stdout[:m.start()] + b"}", float(m.group(1))


class Cli:
    """Cold ``python -m k3mirror.cli`` invocations, one at a time."""

    name = "cli"

    def __init__(self, seed: int, root: str):
        self.root = root
        self.seed = seed
        self.pool = cli_pool()
        with open(os.path.join(HERE, "reference_cli.json")) as fh:
            self.reference = json.load(fh)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def command(self, argv, traced: bool):
        entry = [os.path.join(HERE, "traced_cli.py")] if traced else ["-m", "k3mirror.cli"]
        return [sys.executable, *entry, *argv, "--timing"]

    def _call(self, argv, traced=False):
        return subprocess.run(self.command(argv, traced), cwd=self.root, env=self.env,
                              capture_output=True, timeout=120)

    def warm_up(self):
        proc = self._call(("fm-partners", "12"))
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up call failed: {proc.stderr.decode()[-500:]}")

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            for kind in CLI_PATTERN:
                yield Op(kind, rng.choice(self.pool[kind]))

    def run(self, op: Op, tracer=None):
        proc = self._call(op.args, traced=tracer is not None)
        if tracer is not None:
            tracer.absorb_child(proc.stderr)
        payload, elapsed = split_timing(proc.stdout)
        return proc.returncode, payload, elapsed

    def check(self, op: Op, out) -> str | None:
        return checks.check_cli(self.reference, op, out)

    def traffic(self, records) -> dict:
        argvs = [op.args for op, _, _ in records]
        orders = [a[2].split("=")[1] for a in argvs if a[0] == "pf" and a[1] != "monodromy"]
        return {
            "subcommands": _histogram(op.kind for op, _, _ in records),
            "pf_orders": _histogram(int(k) for k in orders),
            "repeat_share": (len(argvs) - len(set(argvs))) / len(argvs) if argvs else 0.0,
        }

    def scaling_points(self, records):
        return [(int(op.args[2].split("=")[1]), out[2]) for op, out, _ in records
                if op.kind == "pf-mirror-map" and not isinstance(out, OpError)
                and out[2] is not None]



def make(name: str, seed: int, root: str):
    if name == "periods":
        return Periods(seed)
    if name == "lattice":
        return Lattice(seed)
    if name == "cli":
        return Cli(seed, root)
    raise ValueError(f"unknown workload {name!r}")
