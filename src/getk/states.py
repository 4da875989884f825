"""Named quantum states and the JSON state-file format.

Builtin names: bell:phi+|phi-|psi+|psi-, ghz:N, w:N, bisep:12|13|23,
spin:J,M and fock:m2:W.  The Bell letters follow the one-particle
convention used by the fermionic dictionary: phi+- are the one-particle
superpositions (|01> +- |10>)/sqrt2 and psi+- the number superpositions
(|00> +- |11>)/sqrt2.
"""

import json

import numpy as np

from . import fermion
from .operators import QuantumState


class StateParseError(ValueError):
    """A state name or state file could not be parsed."""


def bell_state(kind: str) -> QuantumState:
    v = np.zeros(4, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    if kind == "phi+":
        v[1], v[2] = s, s
    elif kind == "phi-":
        v[1], v[2] = s, -s
    elif kind == "psi+":
        v[0], v[3] = s, s
    elif kind == "psi-":
        v[0], v[3] = s, -s
    else:
        raise StateParseError(f"unknown Bell state {kind!r}")
    return QuantumState(vector=v)


def ghz_state(n: int = 3) -> QuantumState:
    if n < 2:
        raise StateParseError("ghz needs at least 2 qubits")
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return QuantumState(vector=v)


def w_state(n: int = 3) -> QuantumState:
    if n < 2:
        raise StateParseError("w needs at least 2 qubits")
    v = np.zeros(2 ** n, dtype=complex)
    for q in range(n):
        v[1 << q] = 1.0 / np.sqrt(n)
    return QuantumState(vector=v)


def biseparable_state(pair: str) -> QuantumState:
    """Three-qubit state with a (|00>+|11>)/sqrt2 pair and a |0> spectator."""
    if pair not in ("12", "13", "23"):
        raise StateParseError(f"biseparable pair must be 12, 13 or 23, got {pair!r}")
    bell = (QuantumState.basis_state(4, 0).vector + QuantumState.basis_state(4, 3).vector)
    bell = bell / np.linalg.norm(bell)
    v = np.zeros(8, dtype=complex)
    qubits = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}[pair]
    for amp_index in (0, 3):
        b1, b0 = (amp_index >> 1) & 1, amp_index & 1
        full = (b1 << (2 - qubits[0])) | (b0 << (2 - qubits[1]))
        v[full] = bell[amp_index]
    return QuantumState(vector=v)


def parse_number_token(token: str) -> float:
    """A number written as a decimal ("1.5") or as a fraction of integers ("3/2")."""
    token = token.strip()
    if "/" in token:
        num, den = token.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return float(int(num)) / float(int(den))
    return float(token)


def spin_basis_state(j_token: str, m_token: str) -> QuantumState:
    from .coherent import spin_system

    j = parse_number_token(j_token)
    m = parse_number_token(m_token)
    try:
        return spin_system(j).basis_state(m)
    except ValueError as exc:
        raise StateParseError(str(exc)) from exc


def builtin_state(name: str) -> QuantumState:
    """Resolve a builtin state name."""
    try:
        if name.startswith("bell:"):
            return bell_state(name.split(":", 1)[1])
        if name.startswith("ghz:"):
            return ghz_state(int(name.split(":", 1)[1]))
        if name.startswith("w:"):
            return w_state(int(name.split(":", 1)[1]))
        if name.startswith("bisep:"):
            return biseparable_state(name.split(":", 1)[1])
        if name.startswith("spin:"):
            spec = name.split(":", 1)[1]
            j_token, m_token = spec.split(",", 1)
            return spin_basis_state(j_token, m_token)
        if name.startswith("fock:m2:"):
            return fermion.jw_state_dictionary(name.rsplit(":", 1)[1])
    except StateParseError:
        raise
    except (ValueError, IndexError) as exc:
        raise StateParseError(f"bad state name {name!r}: {exc}") from exc
    raise StateParseError(f"unknown state name {name!r}")


BUILTIN_EXAMPLES = (
    "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-",
    "ghz:3", "w:3", "bisep:12", "bisep:13", "bisep:23",
    "spin:1,1", "spin:3/2,1/2", "fock:m2:00", "fock:m2:01",
    "fock:m2:10", "fock:m2:11",
)


def state_to_json_dict(state: QuantumState) -> dict:
    if state.is_pure:
        v = state.vector
        return {"dim": state.dim, "kind": "pure",
                "amplitudes": [[z.real, z.imag] for z in v]}
    m = state.density()
    return {"dim": state.dim, "kind": "density",
            "matrix": [[[z.real, z.imag] for z in row] for row in m]}


def state_from_json_dict(obj: dict) -> QuantumState:
    try:
        dim = int(obj["dim"])
        kind = obj.get("kind", "pure" if "amplitudes" in obj else "density")
        if kind == "pure":
            amps = np.array([complex(re, im) for re, im in obj["amplitudes"]])
            if amps.size != dim:
                raise StateParseError(f"amplitudes: expected {dim} entries, got {amps.size}")
            return QuantumState(vector=amps)
        if kind == "density":
            rows = obj["matrix"]
            m = np.array([[complex(re, im) for re, im in row] for row in rows])
            if m.shape != (dim, dim):
                raise StateParseError(f"matrix: expected {dim}x{dim}, got {m.shape}")
            return QuantumState(rho=m)
        raise StateParseError(f"kind: expected pure or density, got {kind!r}")
    except StateParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StateParseError(f"bad state file: {exc}") from exc


def read_json_file(path: str):
    """Decode a JSON input file; a missing or malformed file is a StateParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise StateParseError(f"state: cannot open {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateParseError(f"state: {path!r} is not valid JSON: {exc}") from exc


def load_state(source: str) -> QuantumState:
    """Resolve a builtin name or load a JSON state file."""
    prefixes = ("bell:", "ghz:", "w:", "bisep:", "spin:", "fock:")
    if any(source.startswith(p) for p in prefixes):
        return builtin_state(source)
    return state_from_json_dict(read_json_file(source))
