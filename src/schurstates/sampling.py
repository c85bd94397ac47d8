"""Seeded random model generation.

All randomness in this package flows through numpy's PCG64 bit
generator, seeded via SeedSequence, so every randomized check is
reproducible from its integer seed alone.  Derived streams are spawned
with explicit integer keys, never from global state.
"""

from __future__ import annotations

import numpy as np

from .kernel import FiberFamily


def rng_from_seed(*keys: int) -> np.random.Generator:
    """PCG64 generator keyed by one or more non-negative integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries (unit total variance)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition with fixed phases."""
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_positive_definite(
    rng: np.random.Generator, n: int, floor: float = 0.1
) -> np.ndarray:
    """Hermitian PD matrix with spectrum bounded away from zero."""
    m = complex_gaussian(rng, (n, n))
    return m @ m.conj().T + floor * np.eye(n)


def random_observable(
    rng: np.random.Generator, d: int, hermitian: bool = False
) -> np.ndarray:
    m = complex_gaussian(rng, (d, d))
    return 0.5 * (m + m.conj().T) if hermitian else m


def random_family(
    rng: np.random.Generator, sites, d: int, d_I: int
) -> FiberFamily:
    """Explicit family with independent complex Gaussian fiber vectors."""
    vecs = {s: complex_gaussian(rng, (d_I, d)) for s in sites}
    return FiberFamily.explicit(vecs, label="random family")


def decaying_generator_spec(seed: int, radius: int = 6, d: int = 2, nu: int = 1):
    """Generator model whose per-site diagonal mass halves with distance.

    Every site at 1-norm r inside ``radius`` gets a random real diagonal
    scaled to absolute mass 2^-r plus independent random unitaries; the
    tail rule zeroes everything beyond.  This is the workhorse model for
    exercising the limit machinery.
    """
    from . import lattice
    from .limit import GeneratorSpec

    rng = rng_from_seed(seed, 100)
    sites = [site for r in range(radius + 1) for site in lattice.shell(nu, r)]
    diag = np.empty((len(sites), d))
    u = np.empty((len(sites), d, d), dtype=np.complex128)
    w = np.empty_like(u)
    for k, site in enumerate(sites):
        raw = rng.standard_normal(d)
        diag[k] = raw * (2.0 ** (-lattice.norm1(site)) / np.sum(np.abs(raw)))
        u[k] = random_unitary(rng, d)
        w[k] = random_unitary(rng, d)
    return GeneratorSpec(sites, diag, u, w, tail_radius=radius, nu=nu, d=d)
