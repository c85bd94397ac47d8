"""Homogeneous models: one vector tuple copied to every site.

For these models all per-site overlap matrices coincide, the
finite-volume functionals depend on the volume only through counts, and
the normalized infinite-volume limit is an explicit convex combination
of product states picked out by the maximal overlap entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError, ValidationError
from .kernel import FiberFamily, ZERO_VECTOR_TOL, product_kernel_matrix
from .lattice import Sites
from .state import LocalObservable

#: Relative tolerance for membership in the maximal-overlap set.
ARGMAX_RELTOL = 1e-9

#: Relative margin below which the strict-inequality generic condition fails.
GENERIC_MARGIN_REL = 1e-12


@dataclass(frozen=True)
class HomogeneousModel:
    """Reference vectors (one tuple, copied to all sites)."""

    vectors: np.ndarray  # shape (p, d); row j is h_j

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise DimensionError("reference vectors must form a 2-D array")
        norms = np.linalg.norm(v, axis=1)
        bad = np.nonzero(norms <= ZERO_VECTOR_TOL)[0]
        if bad.size:
            raise ValidationError(f"reference vector {int(bad[0])} is zero")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class OverlapMatrix:
    """Pairwise overlaps of the reference vectors plus their maximum.

    ``matrix[i, j] = <h_j, h_i>``; the maximum modulus is always attained
    on the diagonal, and ``argmax`` lists the diagonal indices realizing
    it within the relative tolerance ``ARGMAX_RELTOL``.
    """

    matrix: np.ndarray
    beta_max: float
    argmax: tuple

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def overlaps(model: HomogeneousModel) -> OverlapMatrix:
    """The model's ``OverlapMatrix``, maximizers within ``ARGMAX_RELTOL``."""
    v = model.vectors
    m = v @ v.conj().T
    diag = np.real(np.diag(m))
    beta_max = float(np.max(diag))
    argmax = tuple(
        int(i) for i in range(model.size) if diag[i] >= beta_max * (1.0 - ARGMAX_RELTOL)
    )
    m.setflags(write=False)
    return OverlapMatrix(matrix=m, beta_max=beta_max, argmax=argmax)


def check_generic(ov: OverlapMatrix) -> bool:
    """Strict Cauchy-Schwarz inequality for every off-diagonal pair."""
    m = ov.matrix
    diag = np.real(np.diag(m))
    margin = GENERIC_MARGIN_REL * ov.beta_max
    for i in range(ov.size):
        for j in range(ov.size):
            if i != j and abs(m[i, j]) >= np.sqrt(diag[i] * diag[j]) - margin:
                return False
    return True


def detect_product(ov: OverlapMatrix, tol: float = 1e-10) -> bool:
    """True when every overlap equals one positive constant.

    Constant overlaps force the reference vectors to be proportional,
    which makes the normalized state factorize across sites.
    """
    m = ov.matrix
    c = m.ravel()[0]
    if not (np.real(c) > 0 and abs(np.imag(c)) <= tol * max(1.0, abs(c))):
        return False
    return bool(np.max(np.abs(m - c)) <= tol * max(1.0, abs(c)))


def _local_products(model: HomogeneousModel, obs: LocalObservable) -> np.ndarray:
    """prod_x Tr(h_i h_j* b_x) over the observable factors, as a matrix."""
    family = FiberFamily.homogeneous(model.vectors, Sites(obs.region))
    return product_kernel_matrix(family, obs.region, obs.factors)


def finite_volume_normalized(
    model: HomogeneousModel, full_region, obs: LocalObservable
) -> complex:
    """Normalized finite-volume expectation on a superset region.

    ``full_region`` may be a site list containing the observable region,
    or an integer total site count.  Equal overlap powers make the value
    depend on the region only through |full| and |full minus observed|.
    """
    if isinstance(full_region, (int, np.integer)):
        n_total = int(full_region)
        if n_total < len(obs.region):
            raise PreconditionError(
                f"total volume {n_total} smaller than the observable region "
                f"({len(obs.region)} sites)"
            )
    else:
        full = tuple(full_region)
        inside = set(full)
        missing = [s for s in obs.region if s not in inside]
        if missing:
            raise PreconditionError(
                f"observable sites {missing!r} are outside the evaluation region"
            )
        n_total = len(full)
    n_out = n_total - len(obs.region)
    ov = overlaps(model)
    local = _local_products(model, obs)
    value = complex((local * ov.matrix**n_out).sum())
    weight = complex((ov.matrix**n_total).sum())
    # the natural magnitude of the weight is beta_max^n; judge degeneracy
    # against that so uniformly small overlaps are not misread as zero
    scale = ov.beta_max**n_total
    if not (np.isfinite(scale) and np.isfinite(weight) and np.isfinite(value)):
        raise PreconditionError(
            f"volume {n_total} overflows the overlap scale {ov.beta_max}"
        )
    if abs(weight) <= 1e-14 * scale:
        raise PreconditionError(
            f"normalization weight {weight} is degenerate for volume {n_total}"
        )
    return value / weight


def generic_limit(model: HomogeneousModel, obs: LocalObservable) -> complex:
    """Normalized infinite-volume limit under the generic condition.

    Averages the product states of the maximal-norm reference vectors:
    (1 / (beta_max^|region| * #argmax)) * sum over argmax of the
    diagonal local products.
    """
    ov = overlaps(model)
    if not check_generic(ov):
        raise PreconditionError(
            "generic condition violated (an off-diagonal overlap saturates "
            "Cauchy-Schwarz); use real_overlap_limit for real overlap matrices"
        )
    local = _local_products(model, obs)
    total = sum(local[i, i] for i in ov.argmax)
    return complex(total / (ov.beta_max ** len(obs.region) * len(ov.argmax)))


def real_overlaps(ov: OverlapMatrix) -> bool:
    """True when every overlap is real, within 1e-12 relative."""
    return float(np.max(np.abs(np.imag(ov.matrix)))) <= 1e-12 * max(1.0, ov.beta_max)


def real_overlap_limit(model: HomogeneousModel, obs: LocalObservable) -> complex:
    """Normalized limit for real overlap matrices, maximizers of any kind.

    Sums over every index pair whose overlap equals the maximum, not
    only diagonal ones; requires all overlaps real (``real_overlaps``)
    so the dominant powers cannot oscillate in phase.
    """
    ov = overlaps(model)
    if not real_overlaps(ov):
        raise PreconditionError(
            "overlap matrix has a complex entry; this limit requires real overlaps"
        )
    real = np.real(ov.matrix)
    negative_max = np.abs(real) >= ov.beta_max * (1.0 - ARGMAX_RELTOL)
    if np.any(negative_max & (real < 0)):
        raise PreconditionError(
            "an overlap entry equals minus the maximum; the finite-volume "
            "ratio oscillates and has no limit"
        )
    pairs = [
        (i, j)
        for i in range(ov.size)
        for j in range(ov.size)
        if real[i, j] >= ov.beta_max * (1.0 - ARGMAX_RELTOL)
    ]
    local = _local_products(model, obs)
    total = sum(local[i, j] for i, j in pairs)
    return complex(total / (ov.beta_max ** len(obs.region) * len(pairs)))


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
