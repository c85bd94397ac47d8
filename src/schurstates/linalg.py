"""Dense complex matrix kernel: positive-semidefiniteness certification
and Hermitian spectral calculus.

Everything in this module is a pure function of small, dense
``complex128`` arrays.  Matrices stay well inside the 64x64 range, so a
single spectral primitive (``numpy.linalg.eigh``) backs every matrix
function; no sparse or structured paths exist.

Tolerance convention: positivity and hermiticity are judged relative to
the largest eigenvalue magnitude (or the largest entry where no spectrum
is available), with default ``PSD_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

#: Default relative tolerance for positivity / hermiticity verdicts.
PSD_TOL = 1e-10


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name}: non-finite entries")
    return m


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a positive-semidefiniteness check."""

    is_psd: bool
    hermitian: bool
    min_eigenvalue: float
    max_abs_eigenvalue: float
    hermitian_defect: float


def psd_report(a, tol: float = PSD_TOL) -> PsdReport:
    """Certify that ``a`` is Hermitian PSD within the relative tolerance.

    Hermiticity is accepted when the entrywise defect is at most
    ``tol * max(1, max|entry|)``; the spectrum of the symmetrized matrix
    then decides positivity against ``-tol * max(1, max|eigenvalue|)``.
    """
    m = as_cmatrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"psd_report: matrix must be square, got {m.shape}")
    if m.size == 0:
        return PsdReport(True, True, 0.0, 0.0, 0.0)
    mh = m.conj().T
    defect = float(abs(m - mh).max())
    hermitian = defect <= tol * max(1.0, float(abs(m).max()))
    eigs = np.linalg.eigvalsh(0.5 * (m + mh))
    # ascending, so the largest magnitude sits at one end
    min_eig = float(eigs[0])
    max_abs = max(0.0, -min_eig, float(eigs[-1]))
    positive = min_eig >= -tol * max(1.0, max_abs)
    return PsdReport(hermitian and positive, hermitian, min_eig, max_abs, defect)


def require_hermitian(a, tol: float = PSD_TOL, name: str = "matrix") -> np.ndarray:
    """Return the symmetrized matrix, rejecting genuinely non-Hermitian input."""
    m = as_cmatrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name}: must be square, got {m.shape}")
    mh = m.conj().T
    if m.size:
        defect = float(abs(m - mh).max())
        if defect > tol * max(1.0, float(abs(m).max())):
            raise DomainError(f"{name}: not Hermitian (defect {defect:.3e})")
    return 0.5 * (m + mh)


def hermitian_function(
    a,
    f: Callable[[np.ndarray], np.ndarray],
    eig_floor: float | None = None,
) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix spectrally.

    Diagonalizes ``a = V diag(w) V*``, Hermitian within ``PSD_TOL``, and
    returns ``V diag(f(w)) V*``.
    With ``eig_floor`` set, eigenvalues at or below
    ``eig_floor * max|eigenvalue|`` are refused before ``f`` is called
    (used for logarithms and inverse powers).
    """
    h = require_hermitian(a, PSD_TOL, "hermitian_function input")
    w, v = np.linalg.eigh(h)
    if eig_floor is not None and w.size:
        # ascending, so the largest magnitude sits at one end
        lam_max = max(0.0, -float(w[0]), float(w[-1]))
        if float(w[0]) <= eig_floor * lam_max:
            raise DomainError(
                f"hermitian_function: eigenvalue {w[0]:.3e} at or below "
                f"floor {eig_floor * lam_max:.3e}"
            )
    fw = np.asarray(f(w), dtype=np.float64)
    if not np.isfinite(fw).all():
        raise DomainError("hermitian_function: f produced non-finite values")
    out = (v * fw) @ v.conj().T
    # result of a real spectral function is Hermitian; symmetrize roundoff
    return 0.5 * (out + out.conj().T)

