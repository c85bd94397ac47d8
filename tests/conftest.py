import itertools
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from schurstates import lattice
from schurstates.kernel import FarFieldTail, FiberFamily
from schurstates.limit import SITE_CAP, boundary_matrix, total_weight
from schurstates.mixing import decaying_perturbation_family
from schurstates.sampling import complex_gaussian, random_family, rng_from_seed

from oracles import shell_size


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
    return sum(shell_size(nu, k) for k in range(r + 1))


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
        p *= (h @ h.conj().T) ** shell_size(nu, r)
    return p


def rescaled_origin_family(nu=2, **kwargs):
    """A normalized perturbed family with a table: the radial shells of
    ``decaying_perturbation_family(nu, **kwargs)`` and a one-row table at
    the origin holding the raw origin vectors over sqrt(Z), so that its
    total boundary weight is 1.  Its certificate adds the rescaled
    origin's mass to the raw family's at radius -1.  No model builds it;
    it is the walk input whose shell 0 holds a table row off all-ones
    shells, where generator tables sit on identity shells."""
    raw = decaying_perturbation_family(nu=nu, **kwargs)
    origin = (0,) * nu
    vectors = raw.vectors(origin) / math.sqrt(total_weight(boundary_matrix(raw, (), tail_tol=1e-14)))
    mass = float(np.max(np.abs(vectors @ vectors.conj().T - 1.0)))

    def remaining(r):
        return raw.tail.remaining(r) + np.where(np.less(r, 0), mass, 0.0)

    family = FiberFamily(
        raw.d, raw.d_I, None, raw.geometry, tail=FarFieldTail(raw.tail.pattern, remaining), radial=raw.radial,
    )
    family.preload([origin], vectors[None])
    return family


def accumulated(a, b):
    """a * b entrywise, rounded as the walk's ``np.multiply.accumulate``
    rounds it: inside a run of three slots along axis 1.  Numpy picks its
    complex product loop by the call, and the loops may round apart (on
    x86-64 with AVX-512 the loop of array ``*`` and of a two-slot run fuses
    multiply-adds, and that of a longer run does not), so the oracle takes
    every product through the same kind of call as the walk, on any
    machine."""
    seq = np.ones((1, 3) + a.shape, dtype=np.complex128)
    seq[0, 0], seq[0, 1] = a, b
    return np.multiply.accumulate(seq, axis=1)[0, 1]


def shell_loop(fam, region, tail_tol, site_cap=SITE_CAP):
    """The canonical walk of a family with radial shells as a literal
    loop, one shell at a time from the empty shell at radius -1: each
    shell multiplies in the table rows outside the region one at a time,
    in walk order, then the shell's Gram matrix to the power of its other
    sites outside the region, each product by ``accumulated``.  Returns
    ("stop", radius, sites, matrix, bound) at the first radius whose
    certificate bound meets ``tail_tol``, with the certificate's matrix
    there, or ("cap", radius, sites, product, bound) with the shell the
    cap refuses and the product and bound through the shell before it."""
    nu, table, skip = fam.geometry.nu, fam.table, set(region)
    held = [lattice.norm1(x) for x in region]
    rows = {}  # radius -> the table rows outside the region, in walk order
    for site, row in sorted(table.rows.items() if table else (), key=lambda item: item[1]):
        if site not in skip:
            rows.setdefault(int(table.radii[row]), []).append(row)
    p = np.ones((fam.d_I, fam.d_I), dtype=complex)
    consumed, bound = 0, math.inf
    for r in range(-1, SITE_CAP):
        n = shell_size(nu, r) - held.count(r)
        if consumed + n > site_cap:
            return "cap", r, consumed, p, bound
        consumed += n
        if r >= 0:
            for row in rows.get(r, ()):
                p = accumulated(p, table.grams[row])
            p = accumulated(p, np.power(fam.shell_gram(r), float(n - len(rows.get(r, ())))))
        matrices, bounds = fam.tail.settle(p[None], np.array([r]))
        bound = float(bounds[0])
        if bound <= tail_tol:
            return "stop", r, consumed, matrices[0], bound


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
