"""Named quantum states and the JSON state-file format.

A builtin name is a prefix, a colon and the text that prefix's constructor in ``_BUILTINS``
reads: bell:phi+|phi-|psi+|psi-, ghz:N, w:N, bisep:12|13|23, spin:J,M (built by
``operators.spin_basis_state``) and fock:m2:W.  Any other name is a state-file path.  The Bell
letters follow the one-particle convention used by the fermionic dictionary:
phi+- are the one-particle superpositions (|01> +- |10>)/sqrt2 and psi+- the
number superpositions (|00> +- |11>)/sqrt2.

A state file is read as a stream (``_stream_state_file``): ``_CHUNK`` characters
at a time, its top-level object member by member with json's public
``JSONDecoder.raw_decode``, and each row of a top-level ``"matrix"`` array is
written into one (n, n, 2) float array as soon as the row is whole, so neither the
whole text, nor the nested lists, nor a second copy of a density matrix is ever
held: that array's complex view is rho.  A text that is not one complete JSON
object (malformed, truncated, a BOM, trailing data, another top-level value) is
read whole by ``json.load`` instead, so the state or the error is json's.
``dim`` is checked against ``MAX_DIM`` before the entries are read as complex
numbers.  ``json`` loads only when a file is read.
"""

import os
import re
import stat

import numpy as np

from . import StateParseError, fermion, parse_number_token, read_json_file, whole_number
from .operators import MAX_DIM, QuantumState, checked_dim, spin_basis_state


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


def _spin(text: str) -> QuantumState:
    j_token, m_token = text.split(",", 1)
    j, m = parse_number_token(j_token), parse_number_token(m_token)
    try:
        return spin_basis_state(j, m)
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


_CHUNK = 1 << 16  # characters a state file is read by
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's four whitespace characters
# the last "]", whitespace, "]" (how an indented row of [re, im] pairs ends) in a range:
# the greedy ".*" runs to the range's end and backs off, reading only the text past that row end
_LAST_ROW_END = re.compile(r".*\][ \t\n\r]*\]", re.DOTALL)


class _NotOneObject(ValueError):
    """The streamed text is not one complete JSON object; json.load reads it whole."""


class _StateText:
    """A state file's text, read ``_CHUNK`` characters at a time.

    ``buf[pos:]`` is the text not yet consumed; ``cut`` is an index past the end of a
    ``"matrix"`` row at or after ``pos`` (0 when none is known).  A value is accepted only
    when at least three characters follow it in the buffer, or at EOF: a read may end in
    the middle of a number, as in ``24|3`` or ``1e-|5``, whose start json would read as 24
    or 1.
    """

    __slots__ = ("fh", "decode", "buf", "pos", "cut", "eof")

    def __init__(self, fh, decode):
        self.fh, self.decode = fh, decode
        self.buf, self.pos, self.cut, self.eof = "", 0, 0, False

    def more(self) -> None:
        """Drop the consumed text and read on, at least as much as is left unconsumed, so
        a value that keeps running past the buffer is scanned O(1) times per character."""
        size = max(_CHUNK, len(self.buf) - self.pos)
        text = self.fh.read(size)
        self.buf = self.buf[self.pos:] + text
        self.pos, self.cut, self.eof = 0, 0, len(text) < size

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at EOF."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self.more()

    def take(self, allowed: str) -> str:
        """The next character past whitespace, which must be one of ``allowed``."""
        char = self.peek()
        if not char or char not in allowed:
            raise _NotOneObject
        self.pos += 1
        return char

    def value(self):
        """The JSON value at ``pos``, read by json's ``raw_decode``."""
        while True:
            try:
                value, end = self.decode(self.buf, self.pos)
            except (ValueError, RecursionError):  # cut off by the read, or not JSON at all
                if self.eof:
                    raise _NotOneObject from None
            else:
                if end + 2 < len(self.buf) or self.eof:
                    self.pos = end
                    return value
            self.more()

    def rows(self):
        """The array at ``pos``, each element through ``_matrix_row`` as soon as it is read.
        A first row of n <= ``MAX_DIM`` [re, im] pairs allocates one (n, n, 2) float array,
        and each such row is copied into it and dropped; the rows written are returned as one
        array.  Any other element (a row of another shape, an (n+1)-th row) turns the rows
        written so far into a list of row arrays, which takes it and every later element."""
        self.take("[")
        rows, matrix, filled = [], None, 0
        if self.peek() == "]":
            self.pos += 1
            return rows
        while True:
            self.peek()
            if self.pos >= self.cut:
                self.cut = self._row_end()
            row = _matrix_row(self.value())
            shape = getattr(row, "shape", ())
            if not (rows or filled) and shape[1:] == (2,) and shape[0] <= MAX_DIM:
                matrix = np.empty((shape[0], *shape))
            if matrix is not None and filled < len(matrix) and shape == matrix.shape[1:]:
                matrix[filled], filled = row, filled + 1
            else:
                if matrix is not None:
                    rows, matrix = list(matrix[:filled]), None
                rows.append(row)
            if self.take(",]") == "]":
                return rows if matrix is None else matrix[:filled]

    def _row_end(self) -> int:
        """Past the last row end that ``value`` would accept, reading on until there is
        one; ``len(buf)`` at EOF.  Rows written by ``json.dumps`` end in "]]", found from
        the end of the buffer; a stretch longer than a read without one is searched, also
        from the end, for "]", whitespace and "]", as indented JSON ends a row.  So a row is
        scanned only once the buffer holds its end."""
        while not self.eof:
            limit = len(self.buf) - 3
            end = self.buf.rfind("]]", self.pos, limit)
            if end >= 0:
                return end + 2
            if limit - self.pos > _CHUNK:
                last = _LAST_ROW_END.match(self.buf, self.pos, limit)
                if last:
                    return last.end()
            self.more()
        return len(self.buf)


def _stream_state_file(path: str) -> dict | None:
    """The top-level object of a state file, read in ``_CHUNK``-character pieces by json's
    ``JSONDecoder.raw_decode``, each row of a ``"matrix"`` array through ``_matrix_row`` as
    soon as it is whole; the text already read is dropped.  None if the file cannot be
    read so, or its text is not one complete JSON object with nothing but whitespace after
    it: ``read_json_file`` then reads it whole, for the state or the error json gives.  A
    file that is not a regular one (a pipe) is left to ``read_json_file`` unread, since
    its text can be read only once."""
    import json

    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            text = _StateText(fh, json.JSONDecoder().raw_decode)
            obj = {}
            text.take("{")
            if text.peek() == "}":
                text.pos += 1
            else:
                while True:
                    if text.peek() != '"':
                        raise _NotOneObject
                    key = text.value()
                    text.take(":")
                    is_matrix = text.peek() == "[" and key == "matrix"
                    obj[key] = text.rows() if is_matrix else text.value()
                    if text.take(",}") == "}":
                        break
            if text.peek():  # json.load's "Extra data"
                raise _NotOneObject
            return obj
    except (OSError, ValueError, RecursionError):
        return None


def state_from_json_dict(obj: dict) -> QuantumState:
    """The state a decoded state file describes.  A ``"matrix"`` is taken out of ``obj``:
    streamed, it is the array its rows were written into, and rho is that array's complex
    view; as nested lists, it is freed once it is one matrix, before that is validated."""
    try:
        dim = checked_dim(whole_number(obj["dim"]), 1)  # before any entry is decoded
        kind = obj.get("kind", "pure" if "amplitudes" in obj else "density")
        if kind == "pure":
            amps = _complex_entries("amplitudes", obj["amplitudes"], 1)
            if amps.size != dim:
                raise StateParseError(f"amplitudes: expected {dim} entries, got {amps.size}")
            return QuantumState(vector=amps)
        if kind == "density":
            m = _complex_entries("matrix", obj.pop("matrix"), 2)
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
    obj = _stream_state_file(source)
    return state_from_json_dict(read_json_file(source) if obj is None else obj)
