"""Output checks for every op, by an independent route wherever one exists.

Each ``check_*`` returns None for a correct output and a short reason
otherwise.  The library is imported lazily, so the ``cli`` workload process,
which checks only the bytes its children print, never loads it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

TOL = 1e-6
X_OF_Q_HEAD = (0, 1, -14, 117, -884, 6630)
VERIFY_IDS = ("table-matrices", "discriminant-action", "composite-square",
              "kernel-generators", "orientation", "glue-dichotomy")


# -- small exact helpers, written apart from the library's linalg ---------------

def own_det(rows) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def preserves(gram, m) -> bool:
    """m^T gram m == gram."""
    return matmul(tuple(zip(*m)), matmul(gram, m)) == tuple(tuple(r) for r in gram)


def distinct_primes(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


# -- Mukai vectors of a Picard-rank-one K3 of degree 2n, as (r, m, s) triples ----

def pairing(n: int, v, w) -> int:
    return -v[0] * w[2] - v[2] * w[0] + 2 * n * v[1] * w[1]


def act(n: int, move, x):
    """Shift, Switch or Tensor(b h) on (r, m, s); Tensor is the cup product
    with the line-bundle vector (1, b, n b^2)."""
    r, m, s = x
    kind, b = move
    if kind == "Shift":
        return -r, -m, -s
    if kind == "Switch":
        return s, -m, r
    if kind == "Tensor":
        return r, m + r * b, s + r * n * b * b + 2 * n * b * m
    raise ValueError(kind)


MOVES = [("Shift", 0), ("Switch", 0)] + [("Tensor", k) for k in (1, -1, 2, -2, 3, -3)]


def isotropic_pair(rng: random.Random, n: int):
    """A seeded Shift/Switch/Tensor word applied to the pair v = (0,0,1),
    u = (1,0,0); the word keeps v isotropic and <u, v> = -1."""
    v, u = (0, 0, 1), (1, 0, 0)
    for _ in range(rng.randint(0, 5)):
        move = rng.choice(MOVES)
        v, u = act(n, move, v), act(n, move, u)
    return v, u


def _move_of(action):
    name = type(action).__name__
    return name, (action.b[0] if name == "Tensor" else 0)


# -- periods ---------------------------------------------------------------------

def check_mirror_map(pf, n: int, mm) -> str | None:
    from k3mirror.series import LogSeries
    x = mm.x_of_q
    if x.top < n or mm.log_shift.top < n:
        return "mirror map truncated below the requested order"
    coeffs = [x.coeff(k) for k in range(n + 1)]
    if any(c.denominator != 1 for c in coeffs):
        return "x(q) is not integral"
    head = X_OF_Q_HEAD[:n + 1]
    if tuple(coeffs[:len(head)]) != head:
        return f"x(q) starts {coeffs[:len(head)]}, want {list(head)}"
    q_of_x = mm.log_shift.exp().shift(1)          # q = x exp(g1/Pi)
    back = q_of_x.compose(x)
    if any(back.coeff(k) != (k == 1) for k in range(n + 1)):
        return "q(x(q)) is not q"
    # y1 = Pi log x + Pi * log_shift solves the period equation
    pi = pf.pi_series_by_recurrence(n)
    if not pf.apply_operator(pf.pf_operator(),
                             LogSeries([pi * mm.log_shift, pi])).is_zero_through(n):
        return "the log solution built from log_shift does not solve the operator"
    return None


def check_monodromy(point: str, matrix, det, trace, tol=TOL) -> str | None:
    m = [[complex(v) for v in row] for row in matrix]
    if point == "0":
        tpi = 2j * math.pi
        ref = [[1, 0, 0], [tpi, 1, 0], [tpi * tpi, 2 * tpi, 1]]
        defect = max(abs(m[i][j] - ref[i][j]) for i in range(3) for j in range(3))
        want_det, want_trace = 1, 3
    else:
        sq = matmul(m, m)
        defect = max(abs(sq[i][j] - (i == j)) for i in range(3) for j in range(3))
        want_det, want_trace = -1, 1
    own = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    if defect > tol:
        return f"loop {point}: matrix defect {defect:.3e} > {tol}"
    if max(abs(own - want_det), abs(det - want_det)) > tol:
        return f"loop {point}: det {det} / {own}, want {want_det}"
    if max(abs(m[0][0] + m[1][1] + m[2][2] - want_trace), abs(trace - want_trace)) > tol:
        return f"loop {point}: trace {trace}, want {want_trace}"
    return None


def check_periods(pf, op, out) -> str | None:
    if op.kind == "mirror_map":
        return check_mirror_map(pf, op.args[0], out)
    if op.kind in ("schwarzian", "standard_form"):
        if not out.ok:
            return f"{op.kind} mismatch at {out.first_mismatch}"
        return None if out.order == op.args[0] else f"{op.kind} checked order {out.order}"
    if op.kind == "pi_series":
        by_sum, by_rec = out
        m = op.args[0]
        if by_sum.top < m or by_rec.top < m:
            return "period series truncated below the requested order"
        if not by_sum.eq_through(by_rec, m):
            return "multinomial and recurrence period series disagree"
        if by_sum.coeff(1) != 6 or any(c.denominator != 1 for c in by_sum.coeffs):
            return "period series is not 1 + 6x + ... with integer coefficients"
        return None
    if op.kind == "monodromy":
        return check_monodromy(op.args[0], out.matrix, out.det, out.trace)
    return f"unknown op {op.kind}"


# -- lattice ---------------------------------------------------------------------

def check_lattice(wl, op, out) -> str | None:
    a = op.args
    if op.kind == "glue":
        gd, gl, gr = wl.glue_pool[a[0]]
        act_left = wl.disc.induced_disc_action(gd.left, gl)
        act_right = wl.disc.induced_disc_action(gd.right, gr)
        predicted = act_left == act_right
        if (out is not None) != predicted:
            return (f"glue verdict {out is not None}, but the discriminant actions "
                    f"{act_left} and {act_right} predict {predicted}")
        if out is not None and not preserves(gd.overlattice.gram, out.matrix):
            return "extended isometry does not preserve the overlattice form"
        return None
    if op.kind == "disc":
        kind, n = a
        det = abs(own_det(out.lattice.gram))
        if det != 2 * n or out.order != det:
            return f"{kind} n={n}: order {out.order}, |det| {det}, want {2 * n}"
        if out.invariant_factors != (2 * n,):
            return f"{kind} n={n}: invariant factors {out.invariant_factors}"
        return None
    if op.kind == "embed":
        n = a[0]
        gram = out.overlattice.gram
        if out.index != 2 * n or len(gram) != 24:
            return f"embedding n={n}: index {out.index}, rank {len(gram)}"
        if abs(own_det(gram)) != 1 or any(gram[i][i] % 2 for i in range(24)):
            return f"embedding n={n}: overlattice is not even unimodular"
        return None
    if op.kind == "verify":
        ids = tuple(c.check_id for c in out.checks)
        if ids != VERIFY_IDS or not all(c.passed for c in out.checks):
            return f"verification report {[(c.check_id, c.passed) for c in out.checks]}"
        return None
    if op.kind == "fm":
        n = a[0]
        want = 1 if n == 1 else 2 ** (distinct_primes(n) - 1)
        return None if out == (want, want) else f"n={n}: (fm, index) = {out}, want {want}"
    if op.kind == "rmap":
        n = a[0]
        rgh, rg, rh = out
        gram = ((0, 0, -1), (0, 2 * n, 0), (-1, 0, 0))
        if rgh.matrix != matmul(rh.matrix, rg.matrix):
            return f"n={n}: R(gh) != R(h) R(g)"
        if not all(preserves(gram, r.matrix) for r in out):
            return f"n={n}: an R-image does not preserve U + <2n>"
        return None
    if op.kind == "normalize":
        n, _, v, u = a
        word, v2, u2 = out
        x, y = (v.r, v.d[0], v.s), (u.r, u.d[0], u.s)
        for action in word:
            x, y = act(n, _move_of(action), x), act(n, _move_of(action), y)
        got = (v2.r, v2.d[0], v2.s), (u2.r, u2.d[0], u2.s)
        if (x, y) != got:
            return f"n={n}: replaying the word gives {(x, y)}, not {got}"
        r, m, s = x
        if not (r > 1 and math.gcd(r, s) == 1 and m > 0):
            return f"n={n}: {x} is not normalized"
        if pairing(n, x, x) != 0 or pairing(n, y, x) != -1:
            return f"n={n}: pairings of {(x, y)} changed"
        return None
    return f"unknown op {op.kind}"


# -- cli -----------------------------------------------------------------------

def argv_key(argv) -> str:
    return " ".join(argv)


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:32]


def check_cli(reference: dict, op, out) -> str | None:
    code, payload, elapsed = out
    key = argv_key(op.args)
    if code != 0:
        return f"{key}: exit code {code}"
    if elapsed is None:
        return f"{key}: no elapsed_ms in the output"
    if op.kind == "pf-monodromy":
        try:
            body = json.loads(payload)["payload"]
            inv = body["invariants"]
            matrix = [[complex(re, im) for re, im in row] for row in body["matrix"]]
            det, trace = complex(*inv["det"]), complex(*inv["trace"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"{key}: unreadable monodromy payload ({exc})"
        return check_monodromy(op.args[2].split("=")[1], matrix, det, trace)
    want = reference.get(key)
    if want is None:
        return f"{key}: no reference output"
    return None if digest(payload) == want else f"{key}: payload differs from the reference"
