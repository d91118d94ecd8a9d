"""Lossless JSON round trips for every serialized object."""

import json

import numpy as np
import pytest

from fermidesc import descriptors as dsc, fock, serialize, transformations as tf
from fermidesc.errors import ValidationError
from fermidesc.fock import ModeSet
from fermidesc.verification import random_phenomenal


def round_trip(data):
    return json.loads(json.dumps(data, default=serialize.plain))


def test_complex_round_trip_is_exact():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** float(rng.integers(-12, 12))
        back = serialize.json_to_complex(round_trip(serialize.complex_to_json(z)), "z")
        assert back == z  # repr round-trip of doubles is lossless


def test_matrix_encoding_text_matches_per_element_form():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    m[0, :4] = [-0.0, 1e-300, 1e300, complex(-0.0, -0.0)]
    m[1, :3] = [complex(0.0, -1e-300), complex(-1e300, 1e300), complex(1.0, -0.0)]
    per_element = [[serialize.complex_to_json(z) for z in row] for row in m]
    assert json.dumps(serialize.matrix_to_json(m), indent=2, default=serialize.plain) == json.dumps(
        per_element, indent=2
    )
    assert json.dumps(serialize.vector_to_json(m[0]), indent=2, default=serialize.plain) == json.dumps(
        per_element[0], indent=2
    )


def test_state_round_trip():
    state = random_phenomenal(3, 4)
    data = round_trip(serialize.state_to_json(state))
    back = serialize.json_to_state(data)
    assert back.subsystem.indices == state.subsystem.indices
    assert np.array_equal(back.matrix, state.matrix)


@pytest.mark.parametrize(
    "key, value",
    [("modes", 5), ("modes", [0, "1"]), ("modes", [True]), ("ambient_n", "two"), ("ambient_n", 3.0)],
)
def test_subsystem_fields_rejected_with_field_path(key, value):
    state = round_trip(serialize.state_to_json(random_phenomenal(3, 4)))
    d = dsc.canonical_descriptors(ModeSet((0, 2), 3), fock.vacuum_state(3))
    dset = round_trip(serialize.descriptor_set_to_json(d))
    for decode, data, field in (
        (serialize.json_to_state, state, "state"),
        (serialize.json_to_descriptor_set, dset, "descriptor_set"),
    ):
        with pytest.raises(ValidationError) as err:
            decode(dict(data, **{key: value}))
        assert (err.value.code, err.value.field) == ("bad_schema", f"{field}.{key}")


def test_unitary_round_trip():
    u = tf.random_ps_unitary(3, 8)
    back = serialize.json_to_unitary(round_trip(serialize.unitary_to_json(u)))
    assert np.array_equal(back.matrix, u.matrix)


@pytest.mark.parametrize(
    "n_modes, code",
    [("x", "bad_schema"), (True, "bad_schema"), (1.0, "bad_schema"), (None, "bad_schema"),
     (11, "cap_exceeded")],
)
def test_unitary_n_modes_rejected_with_field_path(monkeypatch, n_modes, code):
    monkeypatch.delenv(fock.MODE_CAP_ENV, raising=False)
    data = round_trip(serialize.unitary_to_json(tf.random_ps_unitary(1, 8)))
    with pytest.raises(ValidationError) as err:
        serialize.json_to_unitary(dict(data, n_modes=n_modes))
    assert (err.value.code, err.value.field) == (code, "unitary.n_modes")


def test_unitary_matrix_errors_carry_field_path():
    data = round_trip(serialize.unitary_to_json(tf.random_ps_unitary(1, 8)))
    with pytest.raises(ValidationError) as err:
        serialize.json_to_unitary(dict(data, n_modes=2))
    assert (err.value.code, err.value.field) == ("dimension_mismatch", "unitary.matrix")
    del data["n_modes"]  # then the matrix size sets the mode count
    assert serialize.json_to_unitary(data).n_modes == 1
    data["matrix"] = round_trip(serialize.matrix_to_json(np.eye(3)))
    with pytest.raises(ValidationError) as err:
        serialize.json_to_unitary(data)
    assert (err.value.code, err.value.field) == ("dimension_mismatch", "unitary.matrix")
    assert "not a power of two" in str(err.value)


def test_state_matrix_errors_carry_field_path():
    data = round_trip(serialize.state_to_json(random_phenomenal(2, 4)))
    data["matrix"] = round_trip(serialize.matrix_to_json(np.eye(2)))
    with pytest.raises(ValidationError) as err:
        serialize.json_to_state(data)
    assert (err.value.code, err.value.field) == ("dimension_mismatch", "state.matrix")


def test_descriptor_set_round_trip():
    u = tf.random_ps_unitary(3, 9)
    d = dsc.evolve_descriptors(u, ModeSet((0, 2), 3), fock.vacuum_state(3))
    back = serialize.json_to_descriptor_set(round_trip(serialize.descriptor_set_to_json(d)))
    assert back.subsystem.indices == d.subsystem.indices
    for a, b in zip(back.descriptors, d.descriptors):
        assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(
        back.heisenberg_state.amplitudes, d.heisenberg_state.amplitudes
    )


def test_content_hash_is_stable_and_order_insensitive():
    a = {"x": 1, "y": [1, 2, 3]}
    b = {"y": [1, 2, 3], "x": 1}
    assert serialize.content_hash(a) == serialize.content_hash(b)
    assert serialize.content_hash({"x": 2}) != serialize.content_hash(a)


def test_schema_document_is_deterministic():
    first = json.dumps(serialize.schema_document(), sort_keys=True)
    second = json.dumps(serialize.schema_document(), sort_keys=True)
    assert first == second
    doc = serialize.schema_document()
    assert doc["schema_version"] == serialize.SCHEMA_VERSION
    assert "scenario" in doc and "report" in doc and "conventions" in doc


def test_bad_payloads_carry_field_paths():
    import pytest

    from fermidesc.errors import ValidationError

    with pytest.raises(ValidationError) as err:
        serialize.json_to_matrix([[1, 2], [3]], "gate.matrix")
    assert err.value.field.startswith("gate.matrix")
    with pytest.raises(ValidationError) as err:
        serialize.json_to_descriptor_set({"modes": [0]}, "ds")
    assert err.value.field == "ds.ambient_n"
