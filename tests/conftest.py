import itertools
import json
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from schurstates import lattice
from schurstates.sampling import complex_gaussian, random_family, rng_from_seed


@pytest.fixture
def rng():
    return rng_from_seed(1234)


def make_family(seed, sites, d, d_I):
    return random_family(rng_from_seed(seed), sites, d, d_I)


def ball(nu, r):
    """Sites of Z^nu with 1-norm at most r, lexicographically ordered."""
    return sorted(itertools.chain.from_iterable(lattice.shell(nu, k) for k in range(r + 1)))


def ball_size(nu, r):
    """Number of sites of Z^nu with 1-norm at most r."""
    return sum(lattice.shell_size(nu, k) for k in range(r + 1))


def gram_psd_matrix(rng, n):
    """Random Gram matrix (PSD by construction)."""
    m = complex_gaussian(rng, (n, n + 1))
    return m @ m.conj().T


SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def validate_against(payload, schema_name):
    """Raise ``jsonschema.ValidationError`` unless ``payload`` fits the schema."""
    schema = json.loads((SCHEMAS / schema_name).read_text())
    defs = json.loads((SCHEMAS / "defs.schema.json").read_text())
    registry = Registry().with_resource("defs.schema.json", Resource.from_contents(defs))
    jsonschema.Draft202012Validator(schema, registry=registry).validate(payload)
