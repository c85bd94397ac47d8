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

from .errors import DimensionError, PreconditionError, ValidationError
from .kernel import Dominance, FiberFamily, dominance, product_kernel_matrix
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
    on the diagonal, and ``argmax`` lists the indices of largest norm,
    decided exactly (``HomogeneousModel.dominance``).
    """

    matrix: np.ndarray
    beta_max: float
    argmax: tuple


def overlaps(model: HomogeneousModel) -> OverlapMatrix:
    """The model's ``OverlapMatrix``."""
    v = model.vectors
    m = v @ v.conj().T
    m.setflags(write=False)
    return OverlapMatrix(
        matrix=m, beta_max=float(np.max(np.real(np.diag(m)))), argmax=model.dominance.largest
    )


def _power(u: np.ndarray, n: int) -> np.ndarray:
    """u's entries to the power n by repeated squaring: an entry of
    modulus 1 drifts by about log2(n) roundings (-1 and i by none), not
    by the n of ``np.power``'s complex route past n = 100."""
    out = np.ones_like(u)
    while n:
        out, u, n = out * u if n & 1 else out, u * u, n >> 1
    return out


def _ratio(model: HomogeneousModel, obs: LocalObservable, a, weight, beta_max: float) -> complex:
    """sum(local * a) / weight / beta_max^|region|, ``local`` the observable's
    site products prod_x Tr(h_i h_j* b_x): the one normalized ratio of the
    finite volumes and their limit, inf or NaN past the float range."""
    family = FiberFamily.homogeneous(model.vectors, Sites(obs.region))
    local = product_kernel_matrix(family, obs.region, obs.factors)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex((local * a).sum()) / weight / np.float64(beta_max) ** len(obs.region)


def finite_volume_normalized(model: HomogeneousModel, n_total: int, obs: LocalObservable) -> complex:
    """Normalized finite-volume expectation on ``n_total`` sites, the
    observable's among them: the ratio with a = U^(n - |region|) and
    weight sum(U^n), entrywise powers of U = M / beta_max, whose largest
    entries have modulus 1, so that no volume leaves the float range.  A
    weight that cancels is refused."""
    if n_total < len(obs.region):
        raise PreconditionError(
            f"total volume {n_total} smaller than the observable region "
            f"({len(obs.region)} sites)"
        )
    ov = overlaps(model)
    u = ov.matrix / ov.beta_max
    weight = complex(_power(u, n_total).sum())
    if abs(weight) <= 1e-14:
        raise PreconditionError(f"normalization weight {weight} is degenerate for volume {n_total}")
    value = _ratio(model, obs, _power(u, n_total - len(obs.region)), weight, ov.beta_max)
    if not np.isfinite(value):
        raise PreconditionError(f"volume {n_total} overflows the overlap scale {ov.beta_max}")
    return value


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
    return _ratio(model, obs, dom.pattern, int(dom.pattern.sum()), overlaps(model).beta_max)


def constant_offdiagonal_vectors(p: int, c: float, dim: int | None = None) -> np.ndarray:
    """Linearly independent vectors whose pairwise overlaps all equal c.

    Builds h_1 = e_1 and h_j = a_1 e_1 + ... + a_{j-1} e_{j-1} + e_j with
    the recursion a_1 = c, a_j = c - (a_1^2 + ... + a_{j-1}^2), which
    pins every distinct-pair inner product to c while keeping the set
    full rank.  Needs p coordinates, so p must not exceed ``dim``.
    """
    if p < 2:
        raise ValidationError(f"need at least two vectors, got p={p}")
    if not isinstance(c, (int, float)) or not (0.0 < float(c) <= 1.0):
        raise ValidationError(f"constant overlap must be real in (0, 1], got {c!r}")
    dim = p if dim is None else int(dim)
    if p > dim:
        raise DimensionError(f"p={p} vectors need at least {p} dims, got {dim}")
    c = float(c)
    alphas = [c]
    for _ in range(2, p):
        alphas.append(c - sum(a * a for a in alphas))
    out = np.zeros((p, dim), dtype=np.complex128)
    out[0, 0] = 1.0
    for j in range(1, p):
        out[j, :j] = alphas[:j]
        out[j, j] = 1.0
    return out
