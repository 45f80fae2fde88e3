"""The value types behave as frozen dataclasses: construction by position,
keyword or default, equality and hash by value, the dataclass repr, no
assignment, and pickle and copy round-trips.  A frozen dataclass with the
same fields is the oracle for the repr and the hash."""

import copy
import dataclasses
import pickle

import pytest

from k3mirror import cli, discriminant, lattices, modular, mukai, picard_fuchs
from k3mirror._frozen import Frozen


def _ctx():
    return mukai.rank_one_context(6)


def _check(n=6):
    return modular.CheckOutcome("t", "translation extends", True, {"n": n})


# one instance of every value type, each valid with its defaulted fields left out
EXAMPLES = {
    "IntLattice": lambda: lattices.make_standard("U_plus_Mn", 6),
    "Isometry": lambda: lattices.Isometry.identity(lattices.make_standard("U_plus_Mn", 6)),
    "DiscriminantGroup": lambda: discriminant.discriminant_group(
        lattices.make_standard("two_n", 6)),
    "GlueData": lambda: discriminant.construct_mirror_embedding(2),
    "FracLinear": modular.translation,
    "SOMatrix": lambda: modular.R_map(modular.translation(), 6),
    "CheckOutcome": _check,
    "VerificationReport": lambda: modular.VerificationReport(6, (_check(),)),
    "NSContext": _ctx,
    "MukaiVector": lambda: mukai.MukaiVector(_ctx(), 1, (2,), 3),
    "Shift": mukai.Shift,
    "Switch": mukai.Switch,
    "Iota2": mukai.Iota2,
    "Tensor": lambda: mukai.Tensor((1,)),
    "Twist": lambda: mukai.Twist(mukai.MukaiVector(_ctx(), 1, (0,), 1)),
    "ReflectCurve": lambda: mukai.ReflectCurve((1,)),
    "ThetaOperator": picard_fuchs.pf_operator,
    "MirrorMap": lambda: picard_fuchs.mirror_map(6),
    "SeriesCheck": lambda: picard_fuchs.SeriesCheck(False, 8, (3, "1", "2")),
    "MonodromyResult": lambda: picard_fuchs.MonodromyResult(
        "1/36", ((1 + 0j, 2j), (0j, 1 + 0j)), 1e-12, 1 + 0j, 2 + 0j, None),
    "LegSolution": lambda: picard_fuchs.LegSolution([(1.0, 0.5, 0.25)], 7),
    "CommandResult": lambda: cli.CommandResult("value", {"n": 2}, 0.5, True),
}


def _values(obj):
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


def _oracle(cls, values):
    """A frozen dataclass with the fields and defaults of cls, holding values."""
    spec = [(name, object, dataclasses.field(default=cls._defaults[name]))
            if name in cls._defaults else (name, object) for name in cls.__slots__]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)(*values)


def test_every_value_type_has_an_example():
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_value_type_contract(name):
    obj = EXAMPLES[name]()
    cls = type(obj)
    assert cls.__name__ == name and not hasattr(obj, "__dict__")
    fields, values = cls.__slots__, _values(obj)

    # construction by position, by keyword, and with the defaults left out
    again = cls(*values)
    assert again == obj and _values(again) == values
    assert cls(**dict(zip(fields, values))) == obj
    required = len(fields) - len(cls._defaults)
    assert fields[required:] == tuple(cls._defaults)
    defaulted = cls(*values[:required])
    assert all(getattr(defaulted, f) == d for f, d in cls._defaults.items())

    # equality and hash by value, the repr and the hash of a frozen dataclass
    assert obj != object() and obj.__eq__(object()) is NotImplemented
    oracle = _oracle(cls, values)
    if "__repr__" not in cls.__dict__:
        assert repr(obj) == repr(oracle)
    try:
        expected = hash(oracle)
    except TypeError:          # a field holds a dict or a list
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(again) == expected

    # no assignment, no deletion
    for field in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert _values(obj) == values

    # pickle and copy rebuild the same value; a series field compares by
    # identity, so there only the pickled bytes can show it
    image = pickle.dumps(obj)
    by_value = pickle.loads(pickle.dumps(values)) == values
    for twin in (pickle.loads(image), copy.deepcopy(obj), copy.copy(obj)):
        assert type(twin) is cls and pickle.dumps(twin) == image
        assert twin == obj or not by_value
    assert by_value or name == "MirrorMap"


def test_construction_rejects_bad_arguments():
    m = ((1, 1), (0, 1))
    assert modular.FracLinear(m) == modular.FracLinear(m, 1) == modular.FracLinear(m=m)
    with pytest.raises(TypeError, match="takes 2 arguments"):
        modular.FracLinear(m, 1, 2)
    with pytest.raises(TypeError, match="missing argument 'm'"):
        modular.FracLinear(scale=1)
    with pytest.raises(TypeError, match="multiple values for argument 'm'"):
        modular.FracLinear(m, m=m)
    with pytest.raises(TypeError, match="unexpected keyword argument 'k'"):
        modular.FracLinear(m, k=1)


def test_post_init_runs_once_per_construction(monkeypatch):
    # the benchmark's tracer wraps __post_init__ on the class itself
    calls = []
    original = lattices.Isometry.__dict__["__post_init__"]

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(lattices.Isometry, "__post_init__", counting)
    lat = lattices.make_standard("U", None)
    iso = lattices.Isometry(lat, ((1, 0), (0, 1)))
    assert calls == [iso]
    with pytest.raises(ValueError, match="preserve"):
        lattices.Isometry(lat, ((1, 1), (0, 1)))
