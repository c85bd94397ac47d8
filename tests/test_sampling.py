"""The seeded draws against the formulas they replace, bit for bit on
the same PCG64 stream."""

import numpy as np
import pytest

from schurstates import lattice
from schurstates.sampling import (
    complex_gaussian,
    decaying_generator_spec,
    rng_from_seed,
)

from oracles import random_unitary


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def gaussian_by_division(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unitary_by_one_qr(rng, n):
    q, r = np.linalg.qr(gaussian_by_division(rng, (n, n)))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


@pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 3), (2, 4, 3), (200, 7)])
def test_complex_gaussian_is_the_division_formula(shape):
    for seed in range(20):
        want = gaussian_by_division(rng_from_seed(seed, 9), shape)
        got = complex_gaussian(rng_from_seed(seed, 9), shape)
        assert got.shape == want.shape and got.dtype == np.complex128
        assert np.array_equal(bits(got), bits(want))


def test_complex_gaussian_leaves_the_stream_where_the_formula_does():
    a, b = rng_from_seed(3), rng_from_seed(3)
    complex_gaussian(a, (4, 2))
    gaussian_by_division(b, (4, 2))
    assert a.standard_normal() == b.standard_normal()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_random_unitary_is_one_fixed_phase_qr(n):
    for seed in range(10):
        want = unitary_by_one_qr(rng_from_seed(seed, 8), n)
        assert np.array_equal(bits(random_unitary(rng_from_seed(seed, 8), n)), bits(want))


@pytest.mark.parametrize(
    "seed, radius, d, nu", [(0, 5, 2, 1), (3, 3, 3, 2), (7, 2, 1, 1), (11, 1, 4, 3)]
)
def test_generator_spec_stacked_qr_matches_site_by_site_draws(seed, radius, d, nu):
    spec = decaying_generator_spec(seed, radius=radius, d=d, nu=nu)
    rng = rng_from_seed(seed, 100)
    sites = [site for r in range(radius + 1) for site in lattice.shell(nu, r)]
    assert spec.keys == tuple(sites)
    for k, site in enumerate(sites):
        raw = rng.standard_normal(d)
        diag = raw * (2.0 ** (-lattice.norm1(site)) / np.sum(np.abs(raw)))
        u = unitary_by_one_qr(rng, d)
        w = unitary_by_one_qr(rng, d)
        assert np.array_equal(bits(spec.diag[k]), bits(diag))
        assert np.array_equal(bits(spec.u[k]), bits(u))
        assert np.array_equal(bits(spec.w[k]), bits(w))
