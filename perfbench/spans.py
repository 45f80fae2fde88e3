"""Spans recorded from outside the library.

``Tracer.install`` wraps the public functions and methods in ``TARGETS``,
under every module-level name that binds them (``det`` is bound separately
in ``linalg``, ``lattices`` and ``modular``), and
``uninstall`` puts the originals back.  No library file is edited.

Every call of a wrapped name is counted.  A span is opened only at a layer
boundary, when the caller is not already inside the same layer, so a
layer's self time (span time minus the time its child spans cover) is the
time spent in that layer's own code.  ``lru_cache`` functions are wrapped
outside the cache, and their hit ratio comes from ``cache_info()`` of the
original.  Spans stay in memory, each with its op id and parent, and are
written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

# (metric name, module, attribute); "Class.method" names a method
TARGETS = (
    ("series.add", "series", "RationalSeries.__add__"),
    ("series.mul", "series", "RationalSeries.__mul__"),
    ("series.div", "series", "RationalSeries.__truediv__"),
    ("series.deriv", "series", "RationalSeries.deriv"),
    ("series.compose", "series", "RationalSeries.compose"),
    ("series.exp", "series", "RationalSeries.exp"),
    ("series.revert", "series", "RationalSeries.revert"),
    ("series.poly", "series", "poly"),
    ("series.LogSeries.theta", "series", "LogSeries.theta"),
    ("series.LogSeries.add", "series", "LogSeries.__add__"),
    ("picard_fuchs.pi_series", "picard_fuchs", "pi_series"),
    ("picard_fuchs.pi_series_by_recurrence", "picard_fuchs", "pi_series_by_recurrence"),
    ("picard_fuchs.frobenius_basis", "picard_fuchs", "frobenius_basis"),
    ("picard_fuchs.mirror_map", "picard_fuchs", "mirror_map"),
    ("picard_fuchs.schwarzian_check", "picard_fuchs", "schwarzian_check"),
    ("picard_fuchs.standard_form_check", "picard_fuchs", "standard_form_check"),
    ("picard_fuchs.apply_operator", "picard_fuchs", "apply_operator"),
    ("picard_fuchs.numeric_monodromy", "picard_fuchs", "numeric_monodromy"),
    ("picard_fuchs.solve_ivp", "picard_fuchs", "solve_ivp"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("linalg.mat_vec", "linalg", "mat_vec"),
    ("linalg.congruent", "linalg", "congruent"),
    ("linalg.det", "linalg", "det"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.inverse", "linalg", "inverse"),
    ("linalg.block_diag", "linalg", "block_diag"),
    ("linalg.is_integral", "linalg", "is_integral"),
    ("lattices.IntLattice.validate", "lattices", "IntLattice.__post_init__"),
    ("lattices.Isometry.validate", "lattices", "Isometry.__post_init__"),
    ("lattices.signature_of_gram", "lattices", "signature_of_gram"),
    ("lattices.bilinear", "lattices", "bilinear"),
    ("lattices.direct_sum", "lattices", "direct_sum"),
    ("lattices.hyperbolic_extension", "lattices", "hyperbolic_extension"),
    ("lattices.make_standard", "lattices", "make_standard"),
    ("lattices.is_isometry", "lattices", "is_isometry"),
    ("lattices.orientation_sign_positive", "lattices", "orientation_sign_positive"),
    ("discriminant.discriminant_group", "discriminant", "discriminant_group"),
    ("discriminant.induced_disc_action", "discriminant", "induced_disc_action"),
    ("discriminant.in_kernel_star", "discriminant", "in_kernel_star"),
    ("discriminant.cyclic_disc_isometry_count", "discriminant", "cyclic_disc_isometry_count"),
    ("discriminant.construct_mirror_embedding", "discriminant", "construct_mirror_embedding"),
    ("discriminant.glue_extends", "discriminant", "glue_extends"),
    ("modular.u_plus_mn", "modular", "u_plus_mn"),
    ("modular.FracLinear.validate", "modular", "FracLinear.__post_init__"),
    ("modular.SOMatrix.validate", "modular", "SOMatrix.__post_init__"),
    ("modular.R_map", "modular", "R_map"),
    ("modular.monodromy_generators", "modular", "monodromy_generators"),
    ("modular.fm_partner_count", "modular", "fm_partner_count"),
    ("modular.monodromy_index", "modular", "monodromy_index"),
    ("modular.verify_degree12", "modular", "verify_degree12"),
    ("mukai.NSContext.validate", "mukai", "NSContext.__post_init__"),
    ("mukai.mukai_pairing", "mukai", "mukai_pairing"),
    ("mukai.ring_mul", "mukai", "ring_mul"),
    ("mukai.apply_action", "mukai", "apply_action"),
    ("mukai.normalize_mukai_vector", "mukai", "normalize_mukai_vector"),
)
LAYERS = ("series", "picard_fuchs", "linalg", "lattices", "discriminant", "modular", "mukai")
# the integrator is scipy's, so its time is kept out of picard_fuchs' own
LAYER_OF = {"picard_fuchs.solve_ivp": "scipy"}
CACHED = ("lattices.signature_of_gram", "discriminant.discriminant_group", "modular.u_plus_mn")
OP_LAYER = "op"
CHILD_MARK = "perfbench-trace "


def layer_of(name: str) -> str:
    return LAYER_OF.get(name) or name.split(".")[0]


class Tracer:
    def __init__(self):
        # span: [op_id, span_id, parent_id, name, t0, t1]
        self.spans: list[list] = []
        self.stack: list[tuple[int, str]] = []
        self.op_id = -1
        self.calls: dict[str, list[int]] = {name: [0] for name, _, _ in TARGETS}
        self.nfev = 0
        self.cache_hits: dict[str, list[int]] = {}
        self._cached: dict[str, tuple] = {}
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, orig):
        layer = layer_of(name)
        counter = self.calls[name]
        spans, stack = self.spans, self.stack
        on_result = self._count_nfev if name == "picard_fuchs.solve_ivp" else None

        def wrapper(*args, **kwargs):
            counter[0] += 1
            if stack and stack[-1][1] == layer:
                return orig(*args, **kwargs)
            sid = len(spans)
            rec = [self.op_id, sid, stack[-1][0] if stack else None, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append((sid, layer))
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def _count_nfev(self, sol):
        self.nfev += int(sol.nfev)

    def install(self):
        import k3mirror
        modules = [k3mirror] + [importlib.import_module(f"k3mirror.{m.name}")
                                for m in pkgutil.iter_modules(k3mirror.__path__)]
        for name, mod_name, attr in TARGETS:
            home = importlib.import_module(f"k3mirror.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(home, attr)
            if hasattr(orig, "cache_info"):
                self._cached[name] = (orig, orig.cache_info())
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        for name, (orig, before) in self._cached.items():
            after = orig.cache_info()
            hits = self.cache_hits.setdefault(name, [0, 0])
            hits[0] += after.hits - before.hits
            hits[1] += after.misses - before.misses
        self._cached.clear()

    # -- ops ----------------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str):
        self.op_id = op_id
        sid = len(self.spans)
        self.spans.append([op_id, sid, None, f"{OP_LAYER}.{kind}", perf_counter(), 0.0])
        self.stack.append((sid, OP_LAYER))

    def end_op(self):
        sid, _ = self.stack.pop()
        self.spans[sid][5] = perf_counter()

    def child_report(self) -> str:
        """What a traced child process hands back on its last stderr line."""
        return CHILD_MARK + json.dumps({
            "spans": self.spans,
            "calls": {k: v[0] for k, v in self.calls.items() if v[0]},
            "cache_hits": self.cache_hits,
            "nfev": self.nfev,
        })

    def absorb_child(self, stderr: bytes):
        """Adopt a traced child's spans under the current op's root span."""
        lines = [ln for ln in stderr.decode(errors="replace").splitlines()
                 if ln.startswith(CHILD_MARK)]
        if not lines:
            return
        child = json.loads(lines[-1][len(CHILD_MARK):])
        base = len(self.spans)
        parent = self.stack[-1][0] if self.stack else None
        for _, sid, pid, name, t0, t1 in child["spans"]:
            self.spans.append([self.op_id, base + sid,
                               parent if pid is None else base + pid, name, t0, t1])
        for name, n in child["calls"].items():
            self.calls[name][0] += n
        for name, (h, m) in child["cache_hits"].items():
            acc = self.cache_hits.setdefault(name, [0, 0])
            acc[0] += h
            acc[1] += m
        self.nfev += child["nfev"]

    # -- results ----------------------------------------------------------------

    def write(self, path: str):
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> dict:
        """Self time per name and per layer, call counts, cache hit ratios."""
        covered = defaultdict(float)
        for _, _, pid, _, t0, t1 in self.spans:
            if pid is not None:
                covered[pid] += t1 - t0
        self_by_name = defaultdict(float)
        for _, sid, _, name, t0, t1 in self.spans:
            self_by_name[name] += (t1 - t0) - covered[sid]
        out = {}
        for layer in LAYERS:
            names = [n for n, _, _ in TARGETS if layer_of(n) == layer]
            out[f"{layer}.self_s"] = sum(self_by_name[n] for n in names)
            out[f"{layer}.calls"] = sum(self.calls[n][0] for n in names)
        for name, _, _ in TARGETS:
            out[f"{name}.self_s"] = self_by_name[name]
            out[f"{name}.calls"] = self.calls[name][0]
        for name in CACHED:
            h, m = self.cache_hits.get(name, (0, 0))
            out[f"{name}.hit_ratio"] = h / (h + m) if h + m else 0.0
        out["picard_fuchs.solve_ivp.nfev"] = self.nfev
        return out
