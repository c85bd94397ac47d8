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


#: The scale of the real and of the imaginary part; numpy divides a
#: complex array by sqrt(2) by multiplying with this same reciprocal, so
#: the bits are those of (re + 1j * im) / np.sqrt(2).
_PART_SCALE = 1 / np.sqrt(2)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries (unit total variance): the real
    parts are one ``standard_normal`` draw of ``shape``, the imaginary
    parts the next."""
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= _PART_SCALE
    return z


def _fixed_phases(z: np.ndarray) -> np.ndarray:
    """Q of the QR decomposition of each (n, n) matrix of a stack, its
    columns times the phases of R's diagonal."""
    q, r = np.linalg.qr(z)
    phases = r.diagonal(axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition with fixed phases."""
    return _fixed_phases(complex_gaussian(rng, (n, n)))


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
    zd = lattice.Zd(nu)
    sites = [site for r in range(radius + 1) for site in zd.sphere(r)]
    diag = np.empty((len(sites), d))
    # site k draws its diagonal, then the matrices behind U and W; their
    # unitaries come from one stacked QR, bit for bit those of
    # ``random_unitary`` drawn in the same order
    z = np.empty((2, len(sites), d, d), dtype=np.complex128)
    for k, site in enumerate(sites):
        raw = rng.standard_normal(d)
        diag[k] = raw * (2.0 ** (-zd.distance(site)) / abs(raw).sum())
        z[0, k] = complex_gaussian(rng, (d, d))
        z[1, k] = complex_gaussian(rng, (d, d))
    u, w = _fixed_phases(z)
    return GeneratorSpec(sites, diag, u, w, tail_radius=radius, nu=nu, d=d)
