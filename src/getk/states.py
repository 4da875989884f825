"""Named quantum states and the JSON state-file format.

A builtin name is a prefix, a colon and the text that prefix's constructor in
``_BUILTINS`` reads: bell:phi+|phi-|psi+|psi-, ghz:N, w:N, bisep:12|13|23,
spin:J,M and fock:m2:W.  Any other name is a state-file path.  The Bell
letters follow the one-particle convention used by the fermionic dictionary:
phi+- are the one-particle superpositions (|01> +- |10>)/sqrt2 and psi+- the
number superpositions (|00> +- |11>)/sqrt2.

A state file is JSON decoded by ``StateFileDecoder``: json's own object and
array parsers and its scanner read every key, value and matrix row, but each
row of a top-level ``"matrix"`` becomes a float array as soon as it is read,
so the nested lists of a whole density matrix never exist at once.  ``dim`` is
checked against ``MAX_DIM`` before the rows are stacked into one matrix.
"""

import json

import numpy as np

from . import StateParseError, coherent, fermion, read_json_file, whole_number
from .operators import QuantumState, checked_dim


def _even(dim: int, indices, signs=1) -> QuantumState:
    """The basis states ``indices`` of C^dim in equal weight, each with its sign."""
    v = np.zeros(dim, dtype=complex)
    v[indices] = np.asarray(signs) / np.sqrt(len(indices))
    return QuantumState(vector=v)


def _bell(kind: str) -> QuantumState:
    basis = {"phi+": (1, 2, 1), "phi-": (1, 2, -1), "psi+": (0, 3, 1), "psi-": (0, 3, -1)}
    if kind not in basis:
        raise StateParseError(f"unknown Bell state {kind!r}")
    *indices, sign = basis[kind]
    return _even(4, indices, (1, sign))


def _register(kind: str, text: str) -> tuple[int, int]:
    """n and 2**n for ``kind:n``, checked against ``MAX_DIM`` before any allocation."""
    n = int(text)
    if n < 2:
        raise StateParseError(f"{kind} needs at least 2 qubits")
    return n, checked_dim(2, n)


def _w(text: str) -> QuantumState:
    n, dim = _register("w", text)
    return _even(dim, [1 << q for q in range(n)])


def _bisep(pair: str) -> QuantumState:
    """Three-qubit state with a (|00>+|11>)/sqrt2 pair and a |0> spectator."""
    both = {"12": 6, "13": 5, "23": 3}  # |000> plus the pair's two bits
    if pair not in both:
        raise StateParseError(f"biseparable pair must be 12, 13 or 23, got {pair!r}")
    return _even(8, [0, both[pair]])


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


def _spin(text: str) -> QuantumState:
    j_token, m_token = text.split(",", 1)
    j, m = parse_number_token(j_token), parse_number_token(m_token)
    try:
        return coherent.spin_basis_state(j, m)
    except ValueError as exc:
        raise StateParseError(str(exc)) from exc


_BUILTINS = {  # prefix -> the constructor of the text after its colon; None: no such name
    "bell": _bell,
    "ghz": lambda text: _even(_register("ghz", text)[1], [0, -1]),
    "w": _w,
    "bisep": _bisep,
    "spin": _spin,
    "fock": lambda text: (fermion.jw_state_dictionary(text.rsplit(":", 1)[1])
                          if text.startswith("m2:") else None),
}


def builtin_state(name: str) -> QuantumState:
    """Resolve a builtin state name through ``_BUILTINS``."""
    prefix, colon, text = name.partition(":")
    make = _BUILTINS.get(prefix) if colon else None
    try:
        state = make(text) if make else None
    except StateParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise StateParseError(f"bad state name {name!r}: {exc}") from exc
    if state is None:
        raise StateParseError(f"unknown state name {name!r}")
    return state


def _float_array(entries) -> np.ndarray | None:
    """Nested lists of JSON numbers (or of their float arrays) as one float array; None if
    an entry is not a number.  Integers past 64 bits are read too, and past a float's
    range raise OverflowError; ragged lists raise numpy's ValueError."""
    numbers = np.asarray(entries)
    if numbers.dtype == object and all(isinstance(x, (int, float)) for x in numbers.flat):
        numbers = numbers.astype(float)
    return numbers.astype(float, copy=False) if numbers.dtype.kind in "biuf" else None


def _complex_entries(field: str, entries, ndim: int) -> np.ndarray:
    """JSON [re, im] number pairs, nested ``ndim`` lists deep, as one complex array."""
    pairs = _float_array(entries)
    if pairs is None or pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        raise StateParseError(f"{field}: entries must be [re, im] pairs of numbers")
    return np.ascontiguousarray(pairs).view(complex)[..., 0]


def _matrix_row(entry):
    """A decoded element of ``"matrix"``: a float array if it is a list of numbers, else as
    decoded, so ``_complex_entries`` reads (or refuses) the rows as it would the lists."""
    try:
        row = _float_array(entry) if isinstance(entry, list) else None
    except (OverflowError, ValueError):
        row = None
    return entry if row is None else row


class _LastKey(dict):
    """A ``memo`` for json's ``JSONObject``, which passes each key through
    ``memo.setdefault(key, key)`` just before it scans that key's value."""

    last = None

    def setdefault(self, key, default=None):
        self.last = key
        return default


class StateFileDecoder(json.JSONDecoder):
    """``json.loads`` for a state file, except that each element of a top-level
    ``"matrix"`` array passes through ``_matrix_row`` as soon as it is read.

    json's own ``parse_object`` and ``parse_array`` read that envelope, so its grammar and
    messages are the running Python's json's; json's C scanner reads every key, value and
    row.  Any text whose top level is not an object is json's to decode.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        scan = self.scan_once

        def scan_row(s, idx):
            entry, idx = scan(s, idx)
            return _matrix_row(entry), idx

        def scan_top(s, idx):
            if not s.startswith("{", idx):
                return scan(s, idx)
            keys = _LastKey()

            def scan_value(s, idx):
                if keys.last == "matrix" and s.startswith("[", idx):
                    return self.parse_array((s, idx + 1), scan_row)
                return scan(s, idx)

            return self.parse_object((s, idx + 1), self.strict, scan_value,
                                     self.object_hook, self.object_pairs_hook, keys)

        self.scan_once = scan_top


def state_from_json_dict(obj: dict) -> QuantumState:
    try:
        dim = checked_dim(whole_number(obj["dim"]), 1)  # before any entry is decoded
        kind = obj.get("kind", "pure" if "amplitudes" in obj else "density")
        if kind == "pure":
            amps = _complex_entries("amplitudes", obj["amplitudes"], 1)
            if amps.size != dim:
                raise StateParseError(f"amplitudes: expected {dim} entries, got {amps.size}")
            return QuantumState(vector=amps)
        if kind == "density":
            m = _complex_entries("matrix", obj["matrix"], 2)
            if m.shape != (dim, dim):
                raise StateParseError(f"matrix: expected {dim}x{dim}, got {m.shape}")
            return QuantumState(rho=m)
        raise StateParseError(f"kind: expected pure or density, got {kind!r}")
    except StateParseError:
        raise
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise StateParseError(f"bad state file: {exc}") from exc


def load_state(source: str) -> QuantumState:
    """Resolve a builtin name (a ``_BUILTINS`` prefix and a colon) or load a JSON state file."""
    prefix, colon, _ = source.partition(":")
    if colon and prefix in _BUILTINS:
        return builtin_state(source)
    return state_from_json_dict(read_json_file(source, StateFileDecoder))
