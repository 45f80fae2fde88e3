"""Exact lattice-theoretic, modular-group and Picard-Fuchs computations for
the degree-12 K3 mirror family: discriminant kernels, Fourier-Mukai partner
counts, monodromy generators and their glue-extension dichotomy, and the
period equation with its mirror map.

The package namespace is lazy (PEP 562): ``import k3mirror`` loads no
submodule, and a public name imports its home module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "discriminant": (
        "DiscriminantGroup", "GlueData", "construct_mirror_embedding",
        "cyclic_disc_isometry_count", "discriminant_group", "glue_compatible",
        "glue_extends", "in_kernel_star", "induced_disc_action"),
    "lattices": (
        "IntLattice", "Isometry", "bilinear", "direct_sum", "hyperbolic_extension",
        "is_isometry", "make_standard", "orientation_sign_positive", "signature"),
    "modular": (
        "FracLinear", "F_map", "R_map", "SOMatrix", "fm_partner_count", "fricke",
        "gamma0_plus_generators", "monodromy_generators", "monodromy_index",
        "translation", "verify_degree12"),
    "mukai": (
        "Iota2", "MukaiVector", "NSContext", "ReflectCurve", "Shift", "Switch",
        "Tensor", "Twist", "apply_action", "mirror_period", "mirror_period_ambient",
        "mukai_pairing", "normalize_mukai_vector", "rank_one_context",
        "reflect_curve", "ring_mul"),
    "picard_fuchs": (
        "MirrorMap", "MonodromyResult", "ToleranceNotMet", "apply_operator",
        "frobenius_basis", "mirror_map", "numeric_monodromy", "pf_operator",
        "pi_series", "pi_series_by_recurrence", "schwarzian_check",
        "standard_form_check"),
    "series": ("LogSeries", "RationalSeries"),
}
# each public name -> the submodule that defines it
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # looked up afresh on every access, never stored in this namespace, so a
    # name rebound in its home module (a test double, a tracer) is seen here
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
