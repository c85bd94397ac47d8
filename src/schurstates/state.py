"""Finite-volume superposition vectors and their expectation values.

The state vector on a finite region is the sum over fiber indices of
elementary tensor products of the per-site vectors.  Expectations of
tensor-product observables are computed two ways:

* a dense tensor contraction, exponential in the region size — the
  oracle every fast path is measured against;
* the entrywise-product form, linear in the region size: the sum of all
  entries of the multi-site kernel matrix.

Tensor index ordering is site-major: amplitudes are indexed by one
fiber index per site, in region order, flattened C-style (the fiber
index of the last site varies fastest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ResourceLimitError, ValidationError
from .kernel import FiberFamily, product_kernel_matrix, transfer_matrix
from .lattice import require_inside

#: Regions larger than this are refused by the dense path.
DEFAULT_DENSE_CAP = 8


@dataclass(frozen=True)
class LocalObservable:
    """A finite region together with one d x d factor per site."""

    region: tuple
    factors: tuple

    def __post_init__(self):
        region = tuple(self.region)
        factors = tuple(np.asarray(f, dtype=np.complex128) for f in self.factors)
        if len(region) != len(factors):
            raise DimensionError(
                f"{len(region)} sites vs {len(factors)} factors"
            )
        self._place(region, factors)
        if factors:
            d = factors[0].shape[0]
            for s, f in zip(region, factors):
                if f.ndim != 2 or f.shape != (d, d):
                    raise DimensionError(
                        f"factor at site {s!r} has shape {f.shape}, expected {(d, d)}"
                    )
                if not np.isfinite(f).all():
                    raise ValidationError(f"factor at site {s!r} has non-finite entries")

    def _place(self, region: tuple, factors: tuple) -> None:
        if len(set(region)) != len(region):
            raise ValidationError("region has duplicate sites")
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def of_checked(cls, region, factors) -> "LocalObservable":
        """An observable on ``region``, one site per factor, whose factors
        were validated as factors of observables already: they are taken
        as they are, and only the region is checked for repeated sites."""
        obs = object.__new__(cls)
        obs._place(tuple(region), tuple(factors))
        return obs

    @classmethod
    def identity(cls, region, d: int) -> "LocalObservable":
        eye = np.eye(d, dtype=np.complex128)
        return cls(tuple(region), tuple(eye for _ in region))


@dataclass(frozen=True)
class DenseState:
    """Explicit amplitudes of a superposition vector on a finite region."""

    region: tuple
    d: int
    amplitudes: np.ndarray  # flat, length d**len(region), site-major

    def norm_squared(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.d,) * len(self.region))


def _check_cap(region, d: int):
    k = len(region)
    if k > DEFAULT_DENSE_CAP:
        raise ResourceLimitError(
            f"dense path refused: region of {k} sites needs {d}^{k} = {d**k} "
            f"amplitudes (cap is {DEFAULT_DENSE_CAP} sites)"
        )


def superposition_vector(family: FiberFamily, region) -> DenseState:
    """Dense amplitudes of sum_i  h(x1,i) (x) ... (x) h(xk,i), on at most
    ``DEFAULT_DENSE_CAP`` sites."""
    region = tuple(region)
    if not region:
        raise ValidationError("empty region")
    if len(set(region)) != len(region):
        raise ValidationError("region has duplicate sites")
    _check_cap(region, family.d)
    # terms[i] is the flat product h(x1,i) (x) ... (x) h(xk,i), grown one
    # site at a time for every index at once
    terms = np.ones((family.d_I, 1), dtype=np.complex128)
    for x in region:
        terms = (terms[:, :, None] * family.vectors(x)[:, None, :]).reshape(family.d_I, -1)
    amp = np.zeros(terms.shape[1], dtype=np.complex128)
    for term in terms:
        amp = amp + term
    return DenseState(region=region, d=family.d, amplitudes=amp)


def expectation_dense(family: FiberFamily, full_region, obs: LocalObservable) -> complex:
    """<Psi, (b (x) 1) Psi> by explicit tensor contraction.

    The observable acts on a subset of ``full_region``; the remaining
    sites carry the identity.  This is the exponential-cost oracle.
    """
    full_region = tuple(full_region)
    require_inside(obs.region, full_region)
    psi = superposition_vector(family, full_region).amplitudes
    d = family.d
    acted = psi
    for s, f in zip(obs.region, obs.factors):
        # the fiber index of site s is the middle axis of this view
        view = acted.reshape(d ** full_region.index(s), d, -1)
        acted = np.matmul(f, view).reshape(-1)
    return complex(np.vdot(psi, acted))


def expectation_schur(family: FiberFamily, obs: LocalObservable) -> complex:
    """Fast path: sum of all entries of the multi-site kernel matrix.

    Equals sum_{i,j} prod_x Tr(h_{x,i} h_{x,j}* b_x); cost linear in the
    region size.  Matches ``expectation_dense`` on the same region.
    """
    if not obs.region:
        raise ValidationError("empty observable region")
    m = product_kernel_matrix(family, obs.region, obs.factors)
    return complex(m.sum())


def expectation_extended(
    family: FiberFamily, full_region, obs: LocalObservable
) -> complex:
    """Expectation on a larger region, identity outside the observable.

    sum_{i,j} [prod_{x in obs} Tr(h_i h_j* b_x)] [prod_{y outside} <h_j, h_i>],
    linear in the size of ``full_region``.
    """
    full_region = tuple(full_region)
    if len(set(full_region)) != len(full_region):
        raise ValidationError("region has duplicate sites")
    outside = transfer_matrix(family, full_region, obs.region)
    return complex((product_kernel_matrix(family, obs.region, obs.factors) * outside).sum())

