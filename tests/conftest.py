import itertools
import json
from pathlib import Path

import jsonschema
import numpy as np
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


def perturbed_ball_product(
    nu, first, radius, epsilon0=6e-7, decay=0.78, near_amplitude=0.3, near_radius=3
):
    """Entrywise product of the Gram matrices of every site x with
    first <= |x|_1 <= radius in the raw ``decaying_perturbation_family``
    with default base and directions: each shell's matrix is formed from
    the family's definition and raised to the shell's size."""
    base = np.array([1.0, 0.0])
    dirs = np.array([[1j, 1.0], [-0.6j, 0.25]])
    p = np.ones((2, 2), dtype=complex)
    for r in range(first, radius + 1):
        near = near_amplitude is not None and r <= near_radius
        h = base + (near_amplitude if near else epsilon0 * decay**r) * dirs
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        p *= (h @ h.conj().T) ** lattice.shell_size(nu, r)
    return p


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
