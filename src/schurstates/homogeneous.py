"""Homogeneous models: one vector tuple copied to every site.

For these models all per-site overlap matrices coincide, the
finite-volume functionals depend on the volume only through counts, and
the normalized infinite-volume limit is an explicit convex combination
of product states picked out by the maximal overlap entries.  Which
entries are maximal is read exactly, once per model
(``kernel.dominance``); the lattice family of the same tuple takes the
same reading as its tail pattern, so ``generic_limit`` and the family's
normalized limit are one state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError
from .kernel import (
    Dominance,
    FiberFamily,
    dominance,
    product_kernel_matrix,
    require_finite_products,
    unit_tuple,
)
from .lattice import Sites
from .state import LocalObservable


@dataclass(frozen=True)
class HomogeneousModel:
    """Reference vectors (one tuple, copied to all sites) and their exact
    ``dominance``, read when the model is made; a non-finite or zero
    vector is refused there, named by its index."""

    vectors: np.ndarray  # shape (p, d); row j is h_j
    dominance: Dominance = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise DimensionError("reference vectors must form a 2-D array")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "dominance", dominance(v))

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class OverlapMatrix:
    """Pairwise overlaps of the reference vectors plus their maximum.

    ``matrix[i, j] = <h_j, h_i>``; the maximum modulus is always attained
    on the diagonal, at the indices of largest norm, which
    ``HomogeneousModel.dominance`` lists, decided exactly.
    """

    matrix: np.ndarray
    beta_max: float


def overlaps(model: HomogeneousModel) -> OverlapMatrix:
    """The model's ``OverlapMatrix``."""
    v = model.vectors
    m = v @ v.conj().T
    m.setflags(write=False)
    return OverlapMatrix(matrix=m, beta_max=float(np.max(np.real(np.diag(m)))))


def _power(u: np.ndarray, n: int) -> np.ndarray:
    """u's entries to the power n by repeated squaring: an entry of
    modulus 1 drifts by about log2(n) roundings (-1 and i by none), not
    by the n of ``np.power``'s complex route past n = 100."""
    out = np.ones_like(u)
    while n:
        out, u, n = out * u if n & 1 else out, u * u, n >> 1
    return out


def _ratio(unit: np.ndarray, obs: LocalObservable, a, weight) -> complex:
    """sum(local * a) / weight, ``local`` the observable's site products
    prod_x Tr(u_i u_j* b_x) of the ``unit_tuple`` u: the one normalized
    ratio of the finite volumes and their limit.  On an empty region every
    local product is the empty product 1 and the ratio is sum(a) / weight,
    which is 1; a ratio that the local products take past the float range
    is refused (``require_finite_products``)."""
    if not obs.region:
        return 1.0 + 0.0j
    family = FiberFamily.homogeneous(unit, Sites(obs.region))
    with np.errstate(over="ignore", invalid="ignore"):
        local = product_kernel_matrix(family, obs.region, obs.factors)
        value = complex((local * a).sum()) / weight
    return require_finite_products(value, len(obs.region))


def finite_volume_normalized(model: HomogeneousModel, n_total: int, obs: LocalObservable) -> complex:
    """Normalized finite-volume expectation on ``n_total`` sites, the
    observable's among them: the ratio with a = U^(n - |region|) and
    weight sum(U^n), entrywise powers of U, the Gram matrix of the
    ``unit_tuple`` (M / beta_max up to rounding), whose largest entries
    have modulus 1, so that no volume leaves the float range.  A weight
    that cancels is refused: one no larger than the rounding of the powers,
    n * eps * sum|U^n|, which grows with n, has no significant digit."""
    if n_total < len(obs.region):
        raise PreconditionError(
            f"total volume {n_total} smaller than the observable region "
            f"({len(obs.region)} sites)"
        )
    unit = unit_tuple(model.vectors)
    u = unit @ unit.conj().T
    powers = _power(u, n_total)
    weight = complex(powers.sum())
    if abs(weight) <= n_total * np.finfo(float).eps * np.abs(powers).sum():
        raise PreconditionError(f"normalization weight {weight} is degenerate for volume {n_total}")
    return _ratio(unit, obs, _power(u, n_total - len(obs.region)), weight)


def generic_limit(model: HomogeneousModel, obs: LocalObservable) -> complex:
    """Normalized infinite-volume limit: the finite volumes' ratio at the
    limit of U's powers, the dominant pattern P (``HomogeneousModel.dominance``):
    a = P and weight |P|, the uniform mixture of the product states of the
    largest-norm vectors when no two distinct vectors are parallel.  Where two
    largest-norm vectors differ by a factor c != 1 of modulus 1 the finite-volume
    ratio oscillates and there is no limit."""
    dom = model.dominance
    if dom.diverging is not None:
        i, j = dom.diverging
        raise PreconditionError(
            f"reference vectors {i} and {j} have the largest norm and differ by a "
            "factor of modulus 1 other than 1; the finite-volume ratio oscillates "
            "and has no limit"
        )
    return _ratio(unit_tuple(model.vectors), obs, dom.pattern, int(dom.pattern.sum()))

