"""``schemas/model.schema.json`` and ``modelfile.parse_model`` must agree.

Each case changes one constrained field of a model both accept; the
schema and the parser must then both reject it, so neither can drift
from the other unnoticed.
"""

import copy
import json
import re
from pathlib import Path

import jsonschema
import pytest

from schurstates.errors import ValidationError
from schurstates.modelfile import parse_model

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
        "normalize": False,
    },
}
GENERATORS = json.loads((MODELS / "generator_decay.json").read_text())


def with_field(model, path, value):
    data = copy.deepcopy(model)
    *parents, last = path.split(".")
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    return data


ACCEPTED = [
    (PERTURBED, "vectors.near_amplitude", None),
    (PERTURBED, "vectors.near_radius", 0),
    (PERTURBED, "vectors.normalize", True),
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
    (PERTURBED, "vectors.normalize", "no"),
    (PERTURBED, "vectors.normalize", 1),
    (PERTURBED, "vectors.normalize", None),
    (GENERATORS, "vectors.tail.beyond_radius", -1),
    (GENERATORS, "vectors.tail.D_H", "one"),
]


def case_id(case):
    model, path, value = case
    return f"{model['vectors']['mode']}:{path}={value!r}"


@pytest.mark.parametrize("model", [PERTURBED, GENERATORS], ids=["perturbed", "generators"])
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
    with pytest.raises(ValidationError, match=re.escape(f"model.{case[1]}")):
        parse_model(data)
