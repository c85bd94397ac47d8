"""The package's schema checker and jsonschema must agree.

The shipped input schemas are the one statement of the model and
observable formats, and ``schurstates.schema.Checker`` checks files
against them; jsonschema is its oracle.  Each case changes one
constrained field of a file both accept, and both must then accept it
again (``ACCEPTED``) or both refuse it (``REJECTED``), with and without
the parser's decoders; the parser must accept it or name the field.
Each keyword of the checker's subset has one accepted and one refused
case of its own (``KEYWORD_CASES``), and shipped files edited at random
must get jsonschema's verdict.  JSON Schema counts an integral
float such as 2.0 as an integer, and JSON's ``true`` as neither an
integer nor a number.
"""

import copy
import json
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from schurstates import modelfile, schema
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


def accepted(data, name):
    """jsonschema's verdict on ``data`` against the shipped schema ``name``,
    once it has checked that the package checker reaches the same verdict
    with and without the parser's decoders."""
    verdicts = {
        not schema.checker().check(data, name, decoders)[0]
        for decoders in ({}, modelfile.DECODERS)
    }
    try:
        validate_against(data, name)
    except jsonschema.ValidationError:
        verdicts.add(False)
        assert verdicts == {False}
        return False
    assert verdicts == {True}
    return True


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
    assert accepted(model, "model.schema.json")
    parse_model(copy.deepcopy(model))


@pytest.mark.parametrize("case", ACCEPTED, ids=case_id)
def test_both_accept(case):
    data = with_field(*case)
    assert accepted(data, "model.schema.json")
    parse_model(data)


@pytest.mark.parametrize("case", REJECTED, ids=case_id)
def test_both_reject(case):
    data = with_field(*case)
    assert not accepted(data, "model.schema.json")
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
    assert accepted(data, "observable.schema.json")
    parse_observable(data, geometry)


@pytest.mark.parametrize("case", OBSERVABLE_REJECTED, ids=observable_case_id)
def test_observable_both_reject(case):
    data, geometry = observable_case(case)
    assert not accepted(data, "observable.schema.json")
    with pytest.raises(ValidationError, match=re.escape(field_name("observable", case[1]))):
        parse_observable(data, geometry)


def test_empty_observable_accepted():
    # the empty region, whose limit value is the total boundary weight
    assert accepted({"region": [], "factors": []}, "observable.schema.json")
    assert parse_observable({"region": [], "factors": []}, Zd(1)).region == ()


DEFS = {"$defs": {"pair": {"type": "array", "prefixItems": [{"type": "number"}, {"type": "number"}]}}}

BRANCHES = {
    "oneOf": [
        {"type": "object", "required": ["kind", "n"],
         "properties": {"kind": {"const": "a"}, "n": {"type": "integer"}}},
        {"type": "object", "required": ["kind"], "properties": {"kind": {"const": "b"}}},
    ]
}

#: keyword -> (schema, an accepted value, a refused value, the whole
#: message for the refused value)
KEYWORD_CASES = {
    "type": ({"type": "integer"}, 2.0, True, "t: expected integer, got boolean"),
    "type-list": ({"type": ["number", "null"]}, None, "1", "t: expected number or null, got string"),
    "required": ({"required": ["a"]}, {"a": 1}, {"b": 1}, "t: missing required field 'a'"),
    "properties": (
        {"properties": {"a": {"type": "string"}}}, {"a": "x", "b": 1}, {"a": 1},
        "t.a: expected string, got number",
    ),
    "items": ({"items": {"type": "integer"}}, [1, 2], [1, "2"], "t[1]: expected integer, got string"),
    "prefixItems": (
        {"prefixItems": [{"type": "string"}], "items": {"type": "integer"}}, ["x", 1], [1, 1],
        "t[0]: expected string, got number",
    ),
    "minItems": ({"minItems": 1}, [0], [], "t: length must be >= 1, got 0"),
    "maxItems": ({"maxItems": 2}, [0, 1], [0, 1, 2], "t: length must be <= 2, got 3"),
    "const": ({"const": "zero"}, "zero", "one", "t: expected 'zero', got 'one'"),
    "minimum": ({"minimum": 1}, 1, 0.5, "t: must be >= 1, got 0.5"),
    "exclusiveMinimum": ({"exclusiveMinimum": 0}, 1e-300, 0, "t: must be > 0, got 0"),
    "exclusiveMaximum": ({"exclusiveMaximum": 1}, 0.5, 1.0, "t: must be < 1, got 1.0"),
    "oneOf-const": (BRANCHES, {"kind": "b"}, {"kind": "c"}, "t.kind: expected one of 'a', 'b', got 'c'"),
    # a fault names a field of the branch the value chose
    "oneOf-branch": (BRANCHES, {"kind": "a", "n": 2}, {"kind": "a", "n": "2"}, "t.n: expected integer, got string"),
    "oneOf-missing": (BRANCHES, {"kind": "a", "n": 1}, {"n": 1}, "t: missing required field 'kind'"),
    "oneOf-object": (BRANCHES, {"kind": "b"}, ["b"], "t: expected object, got array"),
    "$ref": (
        {**DEFS, "items": {"$ref": "#/$defs/pair"}}, [[0, 1.5]], [[0, "1"]],
        "t[0][1]: expected number, got string",
    ),
}


@pytest.mark.parametrize("keyword", KEYWORD_CASES)
def test_keyword_accepts_and_refuses_with_jsonschema(keyword):
    subschema, good, bad, message = KEYWORD_CASES[keyword]
    checker = schema.Checker({"t.schema.json": subschema})
    oracle = jsonschema.Draft202012Validator(subschema)
    assert checker.check(good, "t.schema.json", {}) == ([], {})
    oracle.validate(good)
    assert checker.check(bad, "t.schema.json", {})[0] == [message]
    assert not oracle.is_valid(bad)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "t: expected number, got boolean"),
        (float("nan"), "t: expected number, got nan"),
        (float("-inf"), "t: expected number, got -inf"),
        (-(10**400), f"t: expected number, got {-(10**400)}"),
    ],
    ids=["true", "nan", "-inf", "past-float"],
)
def test_a_number_is_a_finite_double(value, message):
    # where the checker is stricter than JSON Schema: Python's JSON reader
    # gives NaN and Infinity, and an integer that no double holds
    checker = schema.Checker({"t.schema.json": {"type": "number"}})
    assert checker.check(value, "t.schema.json", {})[0] == [message]


def test_decoder_stands_for_the_value():
    checker = schema.Checker({"t.schema.json": {**DEFS, "items": {"$ref": "#/$defs/pair"}}})
    decoders = {"t.schema.json#/$defs/pair": lambda v: complex(*v) if v != [0, "x"] else None}
    assert checker.check([[1, 2]], "t.schema.json", decoders) == ([], {(0,): 1 + 2j})
    # a value the decoder refuses is walked
    faults, decoded = checker.check([[1, 2], [0, "x"]], "t.schema.json", decoders)
    assert faults == ["t[1][1]: expected number, got string"] and decoded == {(0,): 1 + 2j}


@pytest.mark.parametrize(
    "documents, message",
    [
        ({"t.schema.json": {"type": "object", "additionalProperties": False}},
         "t.schema.json#: unsupported schema keyword 'additionalProperties'"),
        ({"t.schema.json": {"properties": {"a": {"enum": [1, 2]}}}},
         "t.schema.json#/properties/a: unsupported schema keyword 'enum'"),
        ({"t.schema.json": {"$defs": {"x": {"items": {"pattern": "a"}}}}},
         "t.schema.json#/$defs/x/items: unsupported schema keyword 'pattern'"),
        # a oneOf must name its branch by a required const
        ({"t.schema.json": {"oneOf": [{"type": "string"}, {"type": "integer"}]}},
         "t.schema.json#/oneOf: branches are not objects told apart by a required const"),
        ({"t.schema.json": {"oneOf": [BRANCHES["oneOf"][0], BRANCHES["oneOf"][0]]}},
         "t.schema.json#/oneOf: branches are not objects told apart by a required const"),
        ({"t.schema.json": {"items": {"$ref": "u.schema.json#/$defs/x"}}},
         "t.schema.json#/items: unresolved $ref 'u.schema.json#/$defs/x'"),
    ],
    ids=["top", "property", "defs-branch", "oneOf-by-type", "oneOf-same-const", "unresolved-ref"],
)
def test_schema_outside_the_subset_is_refused_at_load(documents, message):
    with pytest.raises(ValueError) as exc:
        schema.Checker(documents)
    assert str(exc.value) == message


#: Any JSON value, small.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=6,
)


@seed(32)
@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_every_table_the_columns_take_the_schema_accepts(data):
    """The premise of the column shortcut: a generator table that
    ``_generator_columns`` takes is not walked, so it must be one that
    the schema accepts.  Tables are regular and then edited at random."""
    n, width, d = (data.draw(st.integers(*bounds)) for bounds in ((0, 3), (0, 3), (1, 2)))
    number = st.integers(-3, 3) | st.floats()
    pairs = st.lists(st.lists(number, min_size=2, max_size=2), min_size=d, max_size=d)
    records = [
        {
            "site": data.draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width)),
            "D_H": data.draw(st.lists(number, min_size=d, max_size=d)),
            "U": data.draw(st.lists(pairs, min_size=d, max_size=d)),
            "W": data.draw(st.lists(pairs, min_size=d, max_size=d)),
        }
        for _ in range(n)
    ]
    # one leaf made odd: a bool, null, string, non-finite or past-float number...
    leaves = [(rec[key], i) for rec in records for key in ("site", "D_H") for i in range(len(rec[key]))]
    leaves += [(pair, i) for rec in records for key in ("U", "W") for row in rec[key] for pair in row for i in (0, 1)]
    if leaves and data.draw(st.booleans()):
        node, i = data.draw(st.sampled_from(leaves))
        node[i] = data.draw(st.sampled_from([True, None, "1", float("nan"), 2**70, 10**400, 1.5, 2.0, [], {}]))
    # ...and up to two nodes anywhere replaced by any JSON value
    for _ in range(data.draw(st.integers(0, 2))):
        node = records
        while isinstance(node, (list, dict)) and node:
            key = data.draw(st.sampled_from(range(len(node)) if isinstance(node, list) else sorted(node)))
            if data.draw(st.booleans()):
                node[key] = data.draw(JSON)
                break
            node = node[key]
    taken = modelfile._generator_columns(records) is not None
    event(f"taken: {taken}")
    if taken:
        validate_against(with_field(GENERATORS, "vectors.sites", records), "model.schema.json")


def def_validator(ref):
    """A jsonschema validator of the shipped ``$defs`` entry ``ref``."""
    from referencing import Registry, Resource

    schemas = Path(__file__).resolve().parent.parent / "schemas"
    registry = Registry().with_resources(
        (name, Resource.from_contents(json.loads((schemas / name).read_text())))
        for name in ("defs.schema.json", "model.schema.json")
    )
    return jsonschema.Draft202012Validator({"$ref": ref}, registry=registry)


#: A leaf of a nest, mostly a number: the decoders' inputs.
LEAF = st.integers(-3, 3) | st.floats() | st.integers(2**62, 2**70) | st.sampled_from([True, None, "1", [0.5]])


def nest(depth):
    """Arrays nested ``depth`` deep around arrays of leaves, mostly pairs."""
    if depth == 0:
        return st.lists(LEAF, min_size=2, max_size=2) | st.lists(LEAF, max_size=3)
    return st.lists(nest(depth - 1), min_size=1, max_size=2) | st.lists(nest(depth - 1), max_size=2)


@seed(33)
@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_every_value_a_decoder_takes_its_schema_accepts(data):
    """The premise of every decoder: a value it takes is not walked, so it
    must be one that the schema of its ``$ref`` accepts."""
    ref = data.draw(st.sampled_from(sorted(r for r in modelfile.DECODERS if "generator" not in r)))
    name = ref.rsplit("/", 1)[1]
    value = data.draw(LEAF | nest(0) if name == "site" else nest({"complex": 0, "vector": 1, "matrix": 2}[name]))
    taken = modelfile.DECODERS[ref](value) is not None
    event(f"{name} taken: {taken}")
    if taken:
        def_validator(ref).validate(value)


#: Values an edit puts into a file: of every JSON type, and the consts,
#: bounds and shapes that the schemas single out.
ODD = [True, None, "x", "zd", "sites", "explicit", "generators", "perturbed", "zero", 0, 1, -1, 0.5,
       1.0, 2.0, 2**63, [], {}, [0], [[0.0, 1.0]], [[[0.0, 1.0]]], {"kind": "zd"}, {"mode": "perturbed"}]


def node_paths(value, path=()):
    """The path of every node of ``value``, the first three items of an array only."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value[:3]) if isinstance(value, list) else ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


@seed(34)
@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_a_file_edited_at_random_gets_jsonschemas_verdict(data):
    """Up to three nodes of a shipped model or observable file replaced,
    deleted or repeated: the package checker, with and without the
    parser's decoders, accepts the file exactly when jsonschema does."""
    name = data.draw(st.sampled_from(["perturbed_z2", "generator_decay", "orthonormal",
                                      "observable_near", "observable_identity"]))
    doc = json.loads((MODELS / f"{name}.json").read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        *lead, last = data.draw(st.sampled_from(list(node_paths(doc))[1:]))
        parent = doc
        for key in lead:
            parent = parent[key]
        edit = data.draw(st.sampled_from(["replace", "delete", "repeat"]))
        if edit == "delete" and isinstance(parent, dict):
            del parent[last]
        elif edit == "repeat" and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[last]))
        else:
            parent[last] = copy.deepcopy(data.draw(st.sampled_from(ODD)))
    accepted(doc, "observable.schema.json" if name.startswith("observable") else "model.schema.json")
