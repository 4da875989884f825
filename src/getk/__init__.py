"""Toolkit for entanglement relative to distinguished observable sets.

Core surfaces: dense operator/state algebra (:mod:`getk.operators`), the
catalog of distinguished observable spaces (:mod:`getk.catalog`),
observable-relative purity and unentanglement tests (:mod:`getk.purity`),
coherent states and the purity maximizer (:mod:`getk.coherent`), fermionic
modes (:mod:`getk.fermion`), and exact no-signalling box polytopes
(:mod:`getk.boxes`).  :mod:`getk.boxes` is pure ``int`` and ``Fraction`` code
and does not import numpy.

The package itself exports five names, which live here, in the one module every
command runs anyway, so that no module loads another just to share them: the three
input helpers that state files and box-table files share (:class:`StateParseError`,
:func:`read_json_file` and :func:`whole_number`), so that reading a state file runs no
box code; :func:`parse_number_token`, the spin reader of state names and algebra names;
and :class:`Frozen`, the base of getk's immutable values.  For everything else, import
the submodule you need.

Neither helper's stdlib loads with the package: ``json`` is imported when a JSON file
is read, and ``fractions`` (with the ``decimal`` it loads) when a number that is not a
plain ``int`` is checked, so a command that reads no file and builds no exact number
starts without them.
"""

__version__ = "0.1.0"


class Frozen:
    """An immutable value whose fields are its class's ``__slots__``.

    ``__init__`` takes one value per field, in slot order, and sets each once; assigning
    or deleting any attribute afterwards raises ``AttributeError``.  A value is equal only
    to one of the same class with equal fields, and is hashed and written (``repr``) by
    its fields.  A copy or a pickle calls the class again with the fields, so a subclass
    whose ``__init__`` validates and then calls ``super().__init__`` checks every copy.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields, "
                            f"got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)  # past the __setattr__ guard

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class StateParseError(ValueError):
    """A state name, state file or box-table file could not be parsed."""


def read_json_file(path: str) -> dict:
    """Decode a JSON input file whole with ``json.load``; a missing or malformed file, or one
    whose top level is not an object, is a StateParseError.

    Box-table files are read here.  State files are streamed by ``states``, which hands a
    text it cannot read as one complete object to this function, so a malformed state file
    gets the same error as any other JSON input.
    """
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise StateParseError(f"state: cannot open {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateParseError(f"state: {path!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise StateParseError(f"state: {path!r} nests too deeply to decode") from None
    if not isinstance(obj, dict):
        raise StateParseError(f"state: {path!r} is not a JSON object")
    return obj


def whole_number(value) -> int:
    """A JSON number (or numeric string) that must be a whole number; never truncated.

    A plain ``int`` (every integer JSON decodes) is returned as it is; any other value is
    read by ``fractions.Fraction``, whose errors a value it cannot read raises."""
    if isinstance(value, bool):  # JSON true is not 1
        raise TypeError(f"expected an integer, got {value!r}")
    if type(value) is int:
        return value
    from fractions import Fraction

    exact = Fraction(value)
    if exact.denominator != 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return exact.numerator


def parse_number_token(token: str) -> float:
    """A number written as a decimal ("1.5") or as a fraction of integers ("3/2")."""
    token = token.strip()
    if "/" in token:
        num, den = token.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {token!r}")
        try:
            return float(int(num)) / float(int(den))
        except OverflowError:
            raise ValueError(f"{token!r} is too large for a float") from None
    return float(token)
