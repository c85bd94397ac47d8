"""Reference routes that no command runs, kept beside the tests that hold
the engine against them: the spectral calculus and right square roots
behind ``build_from_generators``' closed form, the literal rank-one
operator table behind ``kernel_matrix``, the constant-overlap builder,
the seeded unitary and positive-definite draws, and the closed-form
sphere sizes behind ``lattice.shell_sizes``' recurrence."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from schurstates.errors import DimensionError, PreconditionError, ValidationError
from schurstates.kernel import FiberFamily
from schurstates.limit import ROOT_EIG_FLOOR
from schurstates.linalg import as_cmatrix, hermitian_function, require_hermitian
from schurstates.sampling import _fixed_phases, complex_gaussian

#: Relative eigenvalue floor below which a matrix logarithm is refused.
LOG_EIG_FLOOR = 1e-14


def matrix_exp(a) -> np.ndarray:
    """exp of a Hermitian matrix."""
    return hermitian_function(a, np.exp)


def matrix_log(a) -> np.ndarray:
    """Principal log of a Hermitian positive-definite matrix."""
    return hermitian_function(a, np.log, eig_floor=LOG_EIG_FLOOR)


def right_square_root(t, w) -> np.ndarray:
    """A matrix h with h h* = t, parametrized by an isometry.

    Returns exp(log(t)/2) w*.  Row i of the result, read as a fiber
    vector, satisfies <h_j, h_i> = t[i, j].  ``DomainError`` unless t is
    Hermitian within 1e-12 and every eigenvalue of t exceeds
    ``ROOT_EIG_FLOOR`` times the largest; ``PreconditionError`` unless
    W*W deviates from the identity by at most 1e-12.
    """
    tm = require_hermitian(t, 1e-12, "right_square_root input")
    half = hermitian_function(tm, np.sqrt, eig_floor=ROOT_EIG_FLOOR)
    wm = as_cmatrix(w, "isometry")
    if wm.shape != tm.shape:
        raise DimensionError(
            f"isometry shape {wm.shape} does not match matrix shape {tm.shape}"
        )
    defect = float(np.max(np.abs(wm.conj().T @ wm - np.eye(wm.shape[1]))))
    if defect > 1e-12:
        raise PreconditionError(
            f"right_square_root: W*W deviates from identity by {defect:.3e}"
        )
    return half @ wm.conj().T


@dataclass(frozen=True)
class SchurKernelMap:
    """Explicit rank-one operator table h_i h_j* for one site.

    ``operators[i, j]`` is the d x d matrix h(x,i) h(x,j)*; the entry at
    (j, i) is always the adjoint of the entry at (i, j).  This is the
    slow, literal form of the per-site kernel; ``kernel_matrix`` is the
    fast path, and the two are cross-checked in tests.
    """

    site: object
    operators: np.ndarray  # shape (d_I, d_I, d, d)

    @classmethod
    def from_family(cls, family: FiberFamily, site) -> "SchurKernelMap":
        v = family.vectors(site)
        ops = np.einsum("ip,jq->ijpq", v, v.conj())
        ops.setflags(write=False)
        return cls(site=site, operators=ops)

    def apply(self, b) -> np.ndarray:
        """Evaluate every index-pair functional on b via explicit traces."""
        m = as_cmatrix(b)
        return np.einsum("ijpq,qp->ij", self.operators, m)


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


def shell_size(nu: int, r: int) -> int:
    """Number of sites of Z^nu with 1-norm exactly r, in closed form:
    choose k nonzero coordinates, sign them, and compose r into k
    positive parts."""
    if r < 0:
        return 0
    if r == 0:
        return 1
    return sum(
        (2**k) * math.comb(nu, k) * math.comb(r - 1, k - 1)
        for k in range(1, min(nu, r) + 1)
    )


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition with fixed phases."""
    return _fixed_phases(complex_gaussian(rng, (n, n)))


def random_positive_definite(
    rng: np.random.Generator, n: int, floor: float = 0.1
) -> np.ndarray:
    """Hermitian PD matrix with spectrum bounded away from zero."""
    m = complex_gaussian(rng, (n, n))
    return m @ m.conj().T + floor * np.eye(n)
