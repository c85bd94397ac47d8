"""The model and observable schemas and their parsers must agree.

Each case changes one constrained field of a file both accept; the
schema and the parser must then both accept it again (``ACCEPTED``) or
both reject it (``REJECTED``), so neither can drift from the other
unnoticed.  JSON Schema counts an integral float such as 2.0 as an
integer, and JSON's ``true`` as neither an integer nor a number.
"""

import copy
import json
import re
from pathlib import Path

import jsonschema
import pytest

from schurstates.errors import ValidationError
from schurstates.lattice import Sites, Zd
from schurstates.modelfile import parse_model, parse_observable

from conftest import validate_against

MODELS = Path(__file__).resolve().parent.parent / "models"

PERTURBED = {
    "lattice": {"kind": "zd", "nu": 1},
    "fiber_dim": 2,
    "index_size": 2,
    "vectors": {
        "mode": "perturbed",
        "base": [[1.0, 0.0], [0.0, 0.0]],
        "directions": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -0.6], [0.25, 0.0]]],
        "epsilon0": 1e-4,
        "decay": 0.5,
        "near_amplitude": 0.2,
        "near_radius": 1,
    },
}
GENERATORS = json.loads((MODELS / "generator_decay.json").read_text())
SITES = json.loads((MODELS / "orthonormal.json").read_text())
OBSERVABLES = {
    "z1": (json.loads((MODELS / "observable_site0_z1.json").read_text()), Zd(1)),
    "sites": (
        json.loads((MODELS / "observable_identity.json").read_text()),
        Sites(tuple(SITES["lattice"]["sites"])),
    ),
}


def with_field(model, path, value):
    data = copy.deepcopy(model)
    *parents, last = path.split(".")
    node = data
    for key in parents:
        node = node[int(key) if key.isdigit() else key]
    node[int(last) if last.isdigit() else last] = value
    return data


def field_name(prefix, path):
    """The parser's name for the field at ``path``, less a trailing index."""
    name = prefix + "".join(f"[{k}]" if k.isdigit() else f".{k}" for k in path.split("."))
    return re.sub(r"(\[\d+\])+$", "", name)


ACCEPTED = [
    (PERTURBED, "vectors.near_amplitude", None),
    (PERTURBED, "vectors.near_radius", 0),
    # the retired perturbed ``normalize`` knob is an unknown field, which
    # both ignore: a file that still names it loads, whatever its value
    (PERTURBED, "vectors.normalize", True),
    (PERTURBED, "vectors.normalize", "no"),
    (PERTURBED, "vectors.normalize", 1),
    (PERTURBED, "vectors.normalize", None),
    (PERTURBED, "fiber_dim", 2.0),
    (PERTURBED, "index_size", 2.0),
    (PERTURBED, "lattice.nu", 1.0),
    (PERTURBED, "vectors.near_radius", 1.0),
    (GENERATORS, "vectors.tail.beyond_radius", 6.0),
    (GENERATORS, "vectors.sites.0.site", [0.0]),
    (SITES, "lattice.sites.0", 7.0),
]

REJECTED = [
    (PERTURBED, "fiber_dim", 0),
    (PERTURBED, "fiber_dim", 1.5),
    (PERTURBED, "fiber_dim", True),
    (PERTURBED, "index_size", 0),
    (PERTURBED, "index_size", "2"),
    (PERTURBED, "lattice.nu", 0),
    (PERTURBED, "lattice.nu", "2"),
    (PERTURBED, "lattice.nu", True),
    (PERTURBED, "normalized", "yes"),
    (PERTURBED, "vectors.epsilon0", 0.0),
    (PERTURBED, "vectors.epsilon0", "abc"),
    (PERTURBED, "vectors.epsilon0", True),
    (PERTURBED, "vectors.decay", 1.0),
    (PERTURBED, "vectors.decay", "x"),
    (PERTURBED, "vectors.near_amplitude", "abc"),
    (PERTURBED, "vectors.near_amplitude", True),
    (PERTURBED, "vectors.near_amplitude", [0.3]),
    (PERTURBED, "vectors.near_radius", "x"),
    (PERTURBED, "vectors.near_radius", -1),
    (PERTURBED, "vectors.near_radius", 1.5),
    (PERTURBED, "vectors.near_radius", True),
    (GENERATORS, "vectors.tail.beyond_radius", -1),
    (GENERATORS, "vectors.tail.D_H", "one"),
    (GENERATORS, "vectors.sites.0.site", [True]),
    (GENERATORS, "vectors.sites.0.site", [0.5]),
    (GENERATORS, "vectors.sites.0.D_H.0", True),
    (GENERATORS, "vectors.sites.0.U.0.0", [True, 0.0]),
    (PERTURBED, "vectors.base.0", [1.0, True]),
    (SITES, "lattice.sites.0", True),
    (SITES, "lattice.sites.0", 1.5),
]

OBSERVABLE_ACCEPTED = [
    ("z1", "region.0.0", 0.0),
    ("sites", "region.0", 7.0),
]

OBSERVABLE_REJECTED = [
    ("z1", "region.0.0", True),
    ("z1", "region.0.0", 0.5),
    ("z1", "factors.0.0.0", [True, 0.0]),
    ("sites", "region.0", True),
    ("sites", "region.0", 1.5),
]


def case_id(case):
    model, path, value = case
    return f"{model['vectors']['mode']}:{path}={value!r}"


@pytest.mark.parametrize(
    "model", [PERTURBED, GENERATORS, SITES], ids=["perturbed", "generators", "sites"]
)
def test_base_models_pass_both(model):
    validate_against(model, "model.schema.json")
    parse_model(copy.deepcopy(model))


@pytest.mark.parametrize("case", ACCEPTED, ids=case_id)
def test_both_accept(case):
    data = with_field(*case)
    validate_against(data, "model.schema.json")
    parse_model(data)


@pytest.mark.parametrize("case", REJECTED, ids=case_id)
def test_both_reject(case):
    data = with_field(*case)
    with pytest.raises(jsonschema.ValidationError):
        validate_against(data, "model.schema.json")
    # the parser names the field it rejects
    with pytest.raises(ValidationError, match=re.escape(field_name("model", case[1]))):
        parse_model(data)


def observable_case(case):
    name, path, value = case
    data, geometry = OBSERVABLES[name]
    return with_field(data, path, value), geometry


def observable_case_id(case):
    name, path, value = case
    return f"{name}:{path}={value!r}"


@pytest.mark.parametrize("case", OBSERVABLE_ACCEPTED, ids=observable_case_id)
def test_observable_both_accept(case):
    data, geometry = observable_case(case)
    validate_against(data, "observable.schema.json")
    parse_observable(data, geometry)


@pytest.mark.parametrize("case", OBSERVABLE_REJECTED, ids=observable_case_id)
def test_observable_both_reject(case):
    data, geometry = observable_case(case)
    with pytest.raises(jsonschema.ValidationError):
        validate_against(data, "observable.schema.json")
    with pytest.raises(ValidationError, match=re.escape(field_name("observable", case[1]))):
        parse_observable(data, geometry)
