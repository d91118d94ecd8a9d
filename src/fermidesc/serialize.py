"""JSON encoding of states, unitaries, and descriptor sets.

Complex numbers are two-element ``[re, im]`` arrays; matrices are row-major
nested lists.  Python's float repr is shortest-round-trip, so dumping and
re-parsing is lossless for every finite double.  The documented basis
ordering (mode 0 = most significant bit, per-mode order vacuum/occupied)
is part of the schema document printed by the CLI.

``matrix_to_json``/``vector_to_json`` return a :class:`DenseJson` that wraps
the array; its text is made only when the report is written, by
:func:`write_json` or by ``json.dumps(..., default=plain)``, which give the
same text.  ``write_json`` lets ``json.dumps`` lay out everything but the
arrays and writes each array at its place row by row, from one row
template per row length and depth; only the parts other than ``+0.0`` are
formatted, once per array however often it occurs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .descriptors import DescriptorSet
from .errors import ValidationError, at_field
from .fock import FockOperator, FockVector, ModeSet, _check_n_modes
from .states import PhenomenalState
from .transformations import PSUnitary, validate_ps_unitary
from .verification import CHECK_TOLERANCES

SCHEMA_VERSION = "1"


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


class DenseJson:
    """A non-empty, finite complex array bound for a report, written as nested ``[re, im]`` lists.

    It holds the array itself: a reference when the array is read-only, as
    every library matrix is, and a read-only copy otherwise, so a later
    write to the caller's array does not change the report.  :func:`write_json`
    lays it out from a template; :func:`plain` expands it for ``json.dumps``.
    A NaN or infinite entry is refused with ``not_finite``: the report text
    has no form for it that both writers share.
    """

    __slots__ = ("array",)

    def __init__(self, a):
        if not (isinstance(a, np.ndarray) and a.dtype == complex and not a.flags.writeable):
            a = np.array(a, dtype=complex)
            a.setflags(write=False)
        if not np.isfinite(a).all():
            raise ValidationError("not_finite", "report arrays must have finite entries")
        self.array = a


def _pairs(a: np.ndarray) -> np.ndarray:
    # tolist() yields Python floats, so the JSON text matches complex_to_json's
    return np.stack((a.real, a.imag), axis=-1)


def plain(value):
    """The ``default=`` hook of ``json.dumps`` for reports: a DenseJson as its nested lists."""
    if isinstance(value, DenseJson):
        return _pairs(value.array).tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _pairs_to_json(a) -> DenseJson | list:
    dense = DenseJson(a)
    return dense if dense.array.size else _pairs(dense.array).tolist()


def matrix_to_json(m: np.ndarray) -> DenseJson | list:
    return _pairs_to_json(m)


def vector_to_json(v: np.ndarray) -> DenseJson | list:
    return _pairs_to_json(v)


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise ValidationError("bad_schema", message, field=field)


def is_finite_number(x) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def json_to_complex(data, field: str) -> complex:
    _require(
        isinstance(data, (list, tuple))
        and len(data) == 2
        and all(type(x) in (int, float) for x in data),
        field,
        "complex numbers are [re, im] pairs of numbers",
    )
    if not all(is_finite_number(x) for x in data):
        raise ValidationError("not_finite", "complex parts must be finite", field=field)
    return complex(*data)


def json_to_matrix(data, field: str) -> np.ndarray:
    _require(isinstance(data, list) and data, field, "matrix must be a non-empty list of rows")
    rows = []
    for i, row in enumerate(data):
        _require(isinstance(row, list) and len(row) == len(data), f"{field}[{i}]", "matrix must be square")
        rows.append([json_to_complex(z, f"{field}[{i}][{j}]") for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def json_to_vector(data, field: str) -> np.ndarray:
    _require(isinstance(data, list) and data, field, "vector must be a non-empty list")
    return np.array([json_to_complex(z, f"{field}[{i}]") for i, z in enumerate(data)], dtype=complex)


def state_to_json(state: PhenomenalState) -> dict:
    return {
        "modes": list(state.subsystem.indices),
        "ambient_n": state.subsystem.ambient_n,
        "matrix": matrix_to_json(state.matrix),
    }


def _json_to_subsystem(data: dict, field: str) -> ModeSet:
    modes, ambient_n = data["modes"], data["ambient_n"]
    mode_list = isinstance(modes, list) and all(type(m) is int for m in modes)
    _require(mode_list, f"{field}.modes", "modes must be a list of integers")
    _require(type(ambient_n) is int, f"{field}.ambient_n", "ambient_n must be an integer")
    with at_field(f"{field}.ambient_n"):
        _check_n_modes(ambient_n)  # before anything of that size is allocated
    with at_field(f"{field}.modes"):
        return ModeSet(tuple(modes), ambient_n)


def json_to_state(data: dict, field: str = "state") -> PhenomenalState:
    _require(isinstance(data, dict), field, "state must be an object")
    for key in ("modes", "ambient_n", "matrix"):
        _require(key in data, f"{field}.{key}", f"missing {key}")
    subsystem = _json_to_subsystem(data, field)
    with at_field(f"{field}.matrix"):
        return PhenomenalState(subsystem, json_to_matrix(data["matrix"], f"{field}.matrix"))


def unitary_to_json(u: PSUnitary) -> dict:
    return {"n_modes": u.n_modes, "matrix": matrix_to_json(u.matrix)}


def json_to_unitary(data: dict, field: str = "unitary") -> PSUnitary:
    _require(isinstance(data, dict), field, "unitary must be an object")
    _require("matrix" in data, f"{field}.matrix", "missing matrix")
    n = data.get("n_modes")
    if "n_modes" in data:
        _require(type(n) is int, f"{field}.n_modes", "n_modes must be an integer")
        with at_field(f"{field}.n_modes"):
            _check_n_modes(n)  # before a matrix of that size is parsed
    matrix = json_to_matrix(data["matrix"], f"{field}.matrix")
    with at_field(f"{field}.matrix"):
        return validate_ps_unitary(matrix) if n is None else PSUnitary(n, matrix)


def descriptor_set_to_json(d: DescriptorSet) -> dict:
    return {
        "modes": list(d.subsystem.indices),
        "ambient_n": d.subsystem.ambient_n,
        "descriptors": [matrix_to_json(x.matrix) for x in d.descriptors],
        "heisenberg_state": vector_to_json(d.heisenberg_state.amplitudes),
    }


def json_to_descriptor_set(data: dict, field: str = "descriptor_set") -> DescriptorSet:
    _require(isinstance(data, dict), field, "descriptor set must be an object")
    for key in ("modes", "ambient_n", "descriptors", "heisenberg_state"):
        _require(key in data, f"{field}.{key}", f"missing {key}")
    subsystem = _json_to_subsystem(data, field)
    _require(isinstance(data["descriptors"], list), f"{field}.descriptors", "must be a list")
    n = subsystem.ambient_n
    descriptors = []
    for i, m in enumerate(data["descriptors"]):
        with at_field(f"{field}.descriptors[{i}]"):
            descriptors.append(FockOperator(n, json_to_matrix(m, f"{field}.descriptors[{i}]")))
    with at_field(f"{field}.heisenberg_state"):
        psi0 = FockVector(n, json_to_vector(data["heisenberg_state"], f"{field}.heisenberg_state"))
    with at_field(field):
        return DescriptorSet(subsystem, tuple(descriptors), psi0)


def _template(shape: tuple[int, ...], depth: int) -> str:
    """The ``indent=2`` layout of a regular nest of ``shape`` at ``depth``, ``%s`` leaves."""
    text = "%s"
    for level in range(len(shape) - 1, -1, -1):
        inner = "\n" + "  " * (depth + level + 1)
        text = "[" + inner + (text + "," + inner) * (shape[level] - 1) + text + inner[:-2] + "]"
    return text


def _leaves(a: np.ndarray, text: str | None) -> tuple[np.ndarray, str]:
    """``a``'s flat ``[re, im]`` parts as their JSON text, and ``text``.

    ``text`` is the reprs of ``a``'s parts other than ``+0.0``, in order,
    joined by commas; ``None`` has them made here.  Every ``+0.0`` part is
    the one string ``"0.0"``, and ``-0.0`` is formatted as nonzero.
    """
    flat = _pairs(a).ravel()
    nonzero = (flat != 0.0) | np.signbit(flat)
    if text is None:
        text = ",".join(map(repr, flat[nonzero].tolist()))
    leaves = np.empty(flat.size, dtype=object)
    leaves.fill("0.0")  # one str for every zero; np.full would make one per entry
    leaves[nonzero] = text.split(",") if text else []
    return leaves, text


def _write_rows(write, rows: np.ndarray, shape: tuple[int, ...], depth: int, template: str) -> None:
    """Write the ``indent=2`` nest of ``shape`` at ``depth`` whose innermost rows are ``rows``.

    The brackets of every level but the last are written here; each
    innermost row is ``template`` filled with that row's leaves.
    """
    if len(shape) <= 1:
        write(template % tuple(rows[0].tolist()))
        return
    inner = "\n" + "  " * (depth + 1)
    step = len(rows) // shape[0]
    write("[" + inner)
    for i in range(shape[0]):
        if i:
            write("," + inner)
        _write_rows(write, rows[i * step:(i + 1) * step], shape[1:], depth + 1, template)
    write(inner[:-2] + "]")


def write_json(data, write) -> None:
    """Write ``json.dumps(data, sort_keys=True, indent=2, default=plain) + "\\n"`` through ``write``.

    The text is that call's, byte for byte, made by ``json.dumps`` itself
    with each array from ``matrix_to_json``/``vector_to_json`` replaced by a
    random placeholder string.  The text is cut at the placeholders, and
    each array is written at the placeholder's depth (its line's leading
    spaces over two): its outer brackets directly, each innermost row of
    ``[re, im]`` pairs from a row template kept for the call per row
    length and depth.  Each part is written as its float repr, as
    ``json.dumps`` writes it, except that every ``+0.0`` part is the
    constant ``"0.0"``: the parity superselection rule makes most parts of
    a report's arrays exact zeros.  The reprs of an array's other parts are
    made once, into one compact text that is kept until the array's last
    occurrence; the global descriptors occur again in every partition's
    set.  Peak memory is the array-free text, the compact texts of arrays
    still to occur and one array's leaves, not the whole document's text.
    """
    placeholder = os.urandom(16).hex()
    arrays = []

    def hook(value):
        if isinstance(value, DenseJson):
            arrays.append(value.array)
            return placeholder
        return plain(value)

    pieces = json.dumps(data, sort_keys=True, indent=2, default=hook).split(f'"{placeholder}"')
    if len(pieces) != len(arrays) + 1:
        raise ValidationError("internal_inconsistency", "a report string equals the array placeholder")
    left = Counter(map(id, arrays))  # occurrences not yet written
    texts = {}  # the nonzero text of each array still to occur again
    templates = {}
    write(pieces[0])
    for a, before, piece in zip(arrays, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        depth = (len(line) - len(line.lstrip(" "))) // 2
        key = id(a)
        leaves, text = _leaves(a, texts.pop(key, None))
        left[key] -= 1
        if left[key]:
            texts[key] = text
        row, row_depth = a.shape[-1:] + (2,), depth + len(a.shape[:-1])
        template = templates.get((row, row_depth))
        if template is None:
            template = templates[row, row_depth] = _template(row, row_depth)
        _write_rows(write, leaves.reshape(-1, math.prod(row)), a.shape, depth, template)
        write(piece)
    write("\n")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_hash(data) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(data).encode()).hexdigest()


SCENARIO_SCHEMA = {
    "title": "scenario",
    "type": "object",
    "required": ["n_modes", "initial_state"],
    "properties": {
        "n_modes": {"type": "integer", "minimum": 1, "description": "system size N"},
        "initial_state": {
            "description": (
                "either an occupation list of length n_modes, or a list of "
                "{occupation, amplitude} terms; superposition terms must all "
                "share the same occupation parity and are normalized"
            ),
            "oneOf": [
                {"type": "array", "items": {"enum": [0, 1]}},
                {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["occupation", "amplitude"],
                        "properties": {
                            "occupation": {"type": "array", "items": {"enum": [0, 1]}},
                            "amplitude": {"$ref": "#/definitions/complex"},
                        },
                    },
                },
            ],
        },
        "gates": {
            "type": "array",
            "description": "applied in list order (first entry acts first)",
            "items": {
                "oneOf": [
                    {
                        "type": "object",
                        "required": ["kind", "modes", "theta"],
                        "properties": {
                            "kind": {"enum": ["tunneling", "phase", "interaction"]},
                            "modes": {"type": "array", "items": {"type": "integer"}},
                            "theta": {"type": "number"},
                        },
                    },
                    {
                        "type": "object",
                        "required": ["kind", "matrix"],
                        "properties": {
                            "kind": {"enum": ["hamiltonian"]},
                            "matrix": {"$ref": "#/definitions/matrix"},
                        },
                    },
                ]
            },
        },
        "partitions": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
            "description": "mode subsets to analyze (descriptors + reduced states)",
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name"],
                "properties": {
                    "name": {"enum": list(CHECK_TOLERANCES)},
                    "seed": {"type": "integer", "minimum": 0, "default": 0},
                    "count": {"type": "integer", "minimum": 1, "default": 10},
                },
            },
        },
        "tolerances": {
            "type": "object",
            "description": "optional per-check tolerance overrides keyed by check name",
            "propertyNames": {"enum": list(CHECK_TOLERANCES)},
            "additionalProperties": {"type": "number", "minimum": 0},
        },
    },
    "definitions": {
        "complex": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
            "description": "[re, im]",
        },
        "matrix": {
            "type": "array",
            "items": {"type": "array", "items": {"$ref": "#/definitions/complex"}},
            "description": "row-major, dimension 2^n_modes",
        },
    },
}

REPORT_SCHEMA = {
    "title": "report",
    "type": "object",
    "required": [
        "schema_version",
        "scenario",
        "scenario_hash",
        "final_state",
        "global_descriptors",
        "reconstruction",
        "partitions",
        "checks",
        "timings",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "scenario": {"description": "verbatim echo of the input scenario"},
        "scenario_hash": {"type": "string", "description": "sha256 of the canonical scenario JSON"},
        "final_state": {"description": "global density matrix after all gates"},
        "global_descriptors": {"description": "full-system descriptor set"},
        "partitions": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "modes": {"type": "array"},
                    "phenomenal": {"description": "reduced state on the partition"},
                    "descriptors": {"description": "descriptor set on the partition"},
                },
            },
        },
        "reconstruction": {
            "type": "object",
            "properties": {
                "round_trip_residual": {"type": "number"},
                "phase_blind_distance": {"type": "number"},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "residual": {"type": ["number", "null"], "description": "null if the family raised"},
                    "tolerance": {"type": "number"},
                    "details": {"type": "array"},
                },
            },
        },
        "timings": {"type": "object", "description": "wall-clock seconds; excluded from determinism"},
    },
}

BASIS_CONVENTIONS = {
    "mode_labels": "0-based",
    "basis_index": "sum_i occ[i] * 2^(N-1-i); mode 0 is the most significant bit",
    "per_mode_order": ["vacuum", "occupied"],
    "complex_numbers": "[re, im] arrays, 17-significant-digit decimal round trip",
    "matrices": "row-major nested arrays",
    "gate_order": "gates apply in list order; the composite unitary is G_k ... G_1",
}


def schema_document() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "conventions": BASIS_CONVENTIONS,
        "scenario": SCENARIO_SCHEMA,
        "report": REPORT_SCHEMA,
    }
