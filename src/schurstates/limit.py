"""Infinite-volume limits: boundary matrices, limit expectations,
projectivity checks and the generator-driven model constructor.

The boundary matrix of a finite region collects, per index pair, the
limit of the product of single-site overlaps over all sites outside the
region.  Products are always formed directly from the overlaps, never
through entrywise logarithms (overlaps may be zero or have argument
near +-pi, where a principal-branch log sum misrepresents the product).
A product whose limit is zero is a converged result, not a failure.

One loop forms the products, over blocks of (Gram matrix, multiplicity)
factors from one of two sources.  The canonical walk of a radial family
(``FiberFamily.radial``) goes shell by shell in the 1-norm: the shared
Gram matrix of shell r enters as one entrywise power, once for each
site of the shell outside the region.  Every other walk, and any walk
given an explicit ``exhaustion``, takes each site outside the region as
one factor, block by block in the walk order of that geometry
(``lattice.Zd`` or ``lattice.Sites``); for a radial family it is the
oracle of the shell source.  For both, the region is checked against
the family's geometry before any cached result is read, and the loop
counts each block's sites against the site cap before it builds any of
the block and asks the tail certificate to settle once per block.

On an infinite lattice the walk stops only on the family's tail
certificate (``kernel.OnesTail``, ``IdentityTail`` or ``ConstantTail``),
so every such result is rigorous; an infinite family without one is
refused.  A finite walk order (a ``lattice.Sites`` passed as
``exhaustion``) that leaves sites outside the region unwalked gives a
truncated, non-rigorous product.

A generator model's site data is already an eigendecomposition of its
Gram matrix, u* exp(D) u, so ``build_from_generators`` writes every
site's right root u* exp(D/2) u w* in closed form, in one stacked pass;
``right_square_root`` is the general primitive, and the closed form's
test oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import lattice
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    GeometryError,
    PreconditionError,
    ValidationError,
)
from .kernel import FiberFamily, IdentityTail, product_kernel_matrix, tail_remaining
from .linalg import as_cmatrix, hermitian_function, require_hermitian
from .state import LocalObservable

#: Hard cap on the number of sites a tail product may consume.
SITE_CAP = 10**6


# ---------------------------------------------------------------------------
# Boundary and transfer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryMatrix:
    """Converged tail products over the complement of a region.

    ``tail_bound`` bounds every entry's distance from the limit; it is
    ``inf``, and ``rigorous`` false, only for a truncated finite walk.
    """

    region: tuple
    matrix: np.ndarray
    tail_bound: float
    sites_consumed: int
    rigorous: bool


def boundary_matrix(
    family: FiberFamily,
    region,
    exhaustion: lattice.Zd | lattice.Sites | None = None,
    tail_tol: float = 1e-12,
    site_cap: int = SITE_CAP,
) -> BoundaryMatrix:
    """Tail products of overlaps over all sites outside ``region``.

    Walks the blocks of ``exhaustion`` (default: the family's geometry,
    whole 1-norm shells at once for a radial family), multiplying
    per-entry partial products in order.  An infinite walk
    stops after the first block at which the family's tail certificate
    bounds every entry's remaining change by at most ``tail_tol``; an
    infinite family without a certificate raises ``PreconditionError``.
    A finite walk visits all its sites and is exact (bound 0) only if it
    covered every site outside the region; otherwise the product is
    truncated, with bound ``inf`` and ``rigorous`` false.  Another walk
    order is an oracle for the canonical one, and is not cached.
    """
    region = tuple(region)
    for site in region:
        family.geometry.check(site)
    if exhaustion is not None:
        return _boundary_walk(family, region, exhaustion, tail_tol, site_cap)
    # canonical-walk results are cached on the family, read-only since
    # every caller asking for the region shares them; repeated limit
    # evaluations over the same region dominate scan runtimes
    key = (frozenset(region), tail_tol, site_cap)
    hit = family._boundary_cache.get(key)
    if hit is None:
        hit = _boundary_walk(family, region, None, tail_tol, site_cap)
        hit.matrix.setflags(write=False)
        family._boundary_cache[key] = hit
    return hit if hit.region == region else replace(hit, region=region)


def _boundary_walk(
    family: FiberFamily,
    region: tuple,
    exhaustion: lattice.Zd | lattice.Sites | None,
    tail_tol: float,
    site_cap: int,
) -> BoundaryMatrix:
    """The walk behind ``boundary_matrix``: one loop over blocks (label,
    power n of ``shell_gram(label)``, single sites), whole 1-norm shells
    for the canonical walk of a radial family and single sites for any
    other walk.  A block that would cross ``site_cap`` is refused whole;
    the error carries the product through the last whole block and the
    certificate's bound after that block (``inf`` if none was computed,
    as on a finite walk)."""
    tail = family.tail
    walk = family.geometry if exhaustion is None else exhaustion
    if tail is None and not walk.finite:
        raise PreconditionError(
            f"{family.label or 'family'} has infinitely many sites but no tail "
            "certificate: its boundary products cannot be stopped rigorously"
        )
    skip = set(region)
    if exhaustion is None and family.radial is not None:
        # each 1-norm shell r to the power of its sites outside the region;
        # a shell with none never builds its Gram matrix
        held, nu = Counter(lattice.norm1(x) for x in skip), walk.nu
        blocks = ((r, lattice.shell_size(nu, r) - held[r], ()) for r in itertools.count(-1))
    else:
        # each site outside the region is one factor
        blocks = ((k, 0, [x for x in b if x not in skip]) for k, b in walk.blocks())
    p = np.ones((family.d_I, family.d_I), dtype=np.complex128)
    consumed = 0
    bound = math.inf
    for label, power, sites in blocks:
        count = power + len(sites)
        if consumed + count > site_cap:
            raise ConvergenceError(
                f"boundary product did not settle within {site_cap} sites",
                last_partial=p,
                tail_estimate=bound,
            )
        consumed += count
        if power:
            p = p * family.shell_gram(label) ** power
        for x in sites:
            p = p * family.gram(x)
        if not walk.finite:
            matrix, bound = tail.settle(p, label)
            if bound <= tail_tol:
                return BoundaryMatrix(region, matrix, bound, consumed, True)

    # a finite walk is exact only if it covered every site outside the region
    exact = family.geometry.finite and consumed == len(family.geometry.site_set - skip)
    return BoundaryMatrix(region, p, 0.0 if exact else math.inf, consumed, exact)


def limit_state_eval(
    family: FiberFamily, obs: LocalObservable, tail_tol: float = 1e-12
) -> complex:
    """Infinite-volume expectation of a tensor-product observable.

    sum_{i,j} [prod_{x in region} Tr(h_i h_j* b_x)] * boundary[i, j].
    """
    beta = boundary_matrix(family, obs.region, tail_tol=tail_tol)
    m = product_kernel_matrix(family, obs.region, obs.factors)
    return complex((m * beta.matrix).sum())


@dataclass(frozen=True)
class ProjectivityReport:
    region: tuple
    subregion: tuple
    value_large: complex
    value_small: complex
    gap: float
    tol: float
    passed: bool


def check_projectivity(
    family: FiberFamily,
    region,
    obs: LocalObservable,
    tol: float = 1e-9,
    tail_tol: float = 1e-12,
) -> ProjectivityReport:
    """Compare the limit expectation on a region against its extension.

    Evaluates the observable once on its own region and once extended by
    identity factors to the larger region; a projective family makes the
    two agree.
    """
    region = tuple(region)
    inside = set(region)
    missing = [s for s in obs.region if s not in inside]
    if missing:
        raise GeometryError(f"observable sites {missing!r} outside region")
    extended_factors = []
    eye = np.eye(family.d, dtype=np.complex128)
    obs_sites = {s: f for s, f in zip(obs.region, obs.factors)}
    for s in region:
        extended_factors.append(obs_sites.get(s, eye))
    extended = LocalObservable(region, tuple(extended_factors))
    large = limit_state_eval(family, extended, tail_tol)
    small = limit_state_eval(family, obs, tail_tol)
    gap = abs(large - small)
    scale = max(1.0, abs(small), abs(large))
    return ProjectivityReport(
        region=region,
        subregion=tuple(obs.region),
        value_large=large,
        value_small=small,
        gap=gap,
        tol=tol,
        passed=gap <= tol * scale,
    )


# ---------------------------------------------------------------------------
# Right square roots and generator-built models
# ---------------------------------------------------------------------------


#: ``right_square_root`` refuses a matrix whose smallest eigenvalue is at
#: or below this share of its largest.
ROOT_EIG_FLOOR = 1e-12


def right_square_root(t, w, tol: float = 1e-12) -> np.ndarray:
    """A matrix h with h h* = t, parametrized by an isometry.

    Returns exp(log(t)/2) w*.  Row i of the result, read as a fiber
    vector, satisfies <h_j, h_i> = t[i, j].  ``DomainError`` unless every
    eigenvalue of t exceeds ``ROOT_EIG_FLOOR`` times the largest.
    """
    tm = require_hermitian(t, tol, "right_square_root input")
    half = hermitian_function(tm, np.sqrt, eig_floor=ROOT_EIG_FLOOR)
    wm = as_cmatrix(w, "isometry")
    if wm.shape != tm.shape:
        raise DimensionError(
            f"isometry shape {wm.shape} does not match matrix shape {tm.shape}"
        )
    defect = float(np.max(np.abs(wm.conj().T @ wm - np.eye(wm.shape[1]))))
    if defect > tol:
        raise PreconditionError(
            f"right_square_root: W*W deviates from identity by {defect:.3e}"
        )
    return half @ wm.conj().T


@dataclass(frozen=True)
class GeneratorSite:
    """One site's generator data: diagonal, basis rotation, root freedom."""

    site: object
    diag: np.ndarray  # real entries of the diagonal generator
    u: np.ndarray     # unitary
    w: np.ndarray     # isometry fixing which right root is taken


def _stacked(arrays, shape) -> tuple[np.ndarray, np.ndarray]:
    """The arrays as one stack, zeros standing in for any whose shape is
    not ``shape``, and the mask of those whose shape is."""
    shaped = np.array([a.shape == shape for a in arrays], dtype=bool)
    zero = np.zeros(shape)
    return np.array([a if ok else zero for a, ok in zip(arrays, shaped)]), shaped


def _isometry_checks(name: str, arrays, d: int) -> list:
    """(failure mask, message of record k) for the shape, finiteness and
    isometry defect of every record's ``name`` matrix."""
    m, shaped = _stacked(arrays, (d, d))
    finite = np.isfinite(m).all(axis=(1, 2))
    with np.errstate(invalid="ignore", over="ignore"):
        gram = m.conj().swapaxes(1, 2) @ m
        gram -= np.eye(d)
        defect = np.abs(gram).max(axis=(1, 2))
    return [
        (~shaped, lambda k: f"{name} has shape {arrays[k].shape}, expected {(d, d)}"),
        (~finite, lambda k: f"{name} has non-finite entries"),
        (defect > 1e-12, lambda k: f"{name} deviates from isometry by {defect[k]:.3e}"),
    ]


@dataclass(frozen=True)
class GeneratorSpec:
    """Per-site generator records plus a zero-beyond-radius tail rule.

    Requires the fiber dimension to equal the index count; the built
    family has Gram matrix exp(u* diag u) at each declared site and is
    exactly orthonormal beyond the tail radius.  The first faulty record
    is reported, and within it the first failing check: its diagonal,
    then U, then W (each stacked over all records), then its site.
    """

    records: tuple
    tail_radius: int
    nu: int

    def __post_init__(self):
        if not self.records:
            raise ValidationError("generator model declares no sites")
        sites = [rec.site for rec in self.records]
        if len(set(sites)) != len(sites):
            raise ValidationError("generator model declares a site twice")
        fault = self._matrix_fault()
        # a record's matrices are checked before its site, so sites are
        # checked up to the first record with a faulty matrix
        checked = self.records if fault is None else self.records[: fault[0]]
        zd = lattice.Zd(self.nu)
        for rec in checked:
            zd.check(rec.site)
            if lattice.norm1(rec.site) > self.tail_radius:
                raise ValidationError(
                    f"site {rec.site!r} lies beyond the declared tail radius "
                    f"{self.tail_radius}"
                )
        if fault is not None:
            raise ValidationError(fault[1])

    def _matrix_fault(self) -> tuple[int, str] | None:
        """(record index, message) of the first failing diagonal, U or W
        check, or None."""
        d = self.d
        recs = self.records
        diag, shaped = _stacked([rec.diag for rec in recs], (d,))
        checks = [
            (~shaped, lambda k: f"diagonal has shape {recs[k].diag.shape}"),
            (np.max(np.abs(np.imag(diag)), axis=1) > 0, lambda k: "diagonal is not real"),
            (~np.isfinite(diag).all(axis=1), lambda k: "diagonal has non-finite entries"),
            *_isometry_checks("U", [rec.u for rec in recs], d),
            *_isometry_checks("W", [rec.w for rec in recs], d),
        ]
        failed = np.argwhere(np.stack([mask for mask, _ in checks], axis=1))
        if not failed.size:
            return None
        k, c = (int(i) for i in failed[0])
        return k, f"site {recs[k].site!r}: {checks[c][1](k)}"

    @property
    def d(self) -> int:
        return int(self.records[0].diag.shape[0])

    def trace_abs(self) -> list:
        """Each record's absolute diagonal mass, in record order."""
        return np.abs(np.array([rec.diag for rec in self.records])).sum(axis=1).tolist()

    def summability_certificate(self) -> float:
        """Total absolute diagonal mass over all declared sites."""
        return float(sum(self.trace_abs()))


def _right_roots(recs, diag: np.ndarray) -> np.ndarray:
    """u* exp(D/2) u w* for every record, as one (N, d, d) stack."""
    u = np.array([rec.u for rec in recs], dtype=np.complex128)
    w = np.array([rec.w for rec in recs], dtype=np.complex128)
    np.conjugate(w, out=w)
    return np.einsum("nji,nj,njk,nlk->nil", u.conj(), np.exp(diag / 2), u, w)


def build_from_generators(spec: GeneratorSpec) -> FiberFamily:
    """Construct the fiber family a generator model describes.

    Per declared site the Gram matrix is exp(u* D u) = u* exp(D) u, and
    the fiber vectors are the rows of its right square root
    u* exp(D/2) u w*, formed for every site in one stacked pass with no
    eigendecomposition; undeclared sites carry the standard orthonormal
    basis.  As ``right_square_root`` would, a site is refused
    (``DomainError``) when its exp(D) leaves the float64 range or has an
    eigenvalue at or below ``ROOT_EIG_FLOOR`` times its largest, that is
    when max D - min D >= -ln(ROOT_EIG_FLOOR).
    """
    d = spec.d
    recs = spec.records
    diag = np.array([np.real(rec.diag) for rec in recs], dtype=np.float64)
    top = diag.max(axis=1)
    spread = top - diag.min(axis=1)
    with np.errstate(over="ignore"):
        scale = np.exp(top)
    outside = ~np.isfinite(scale) | (scale == 0)
    bad = np.nonzero(outside | (spread >= -math.log(ROOT_EIG_FLOOR)))[0]
    if bad.size:
        k = int(bad[0])
        if outside[k]:
            raise DomainError(
                f"site {recs[k].site!r}: exp(D_H) leaves the float64 range "
                f"(largest entry of D_H {top[k]:.6g})"
            )
        raise DomainError(
            f"site {recs[k].site!r}: D_H spans {spread[k]:.6g}, so exp(D_H) has "
            f"an eigenvalue at or below {ROOT_EIG_FLOOR:g} times its largest"
        )
    vecs = _right_roots(recs, diag)
    vecs.setflags(write=False)
    sites = [rec.site for rec in recs]
    by_site = dict(zip(sites, vecs))
    eye = np.eye(d, dtype=np.complex128)

    def provider(site):
        return by_site.get(site, eye)

    # deviation mass e^{trace_abs} - 1 per radius, declared sites only,
    # since undeclared sites contribute exactly nothing; a site past radius
    # SITE_CAP, which no capped walk reaches, is counted as beyond it
    radii = np.minimum(np.abs(np.array(sites)).sum(axis=1), SITE_CAP + 1)
    mass = np.expm1(spec.trace_abs())
    masses = np.bincount(radii.astype(np.intp), weights=mass).tolist()
    remaining = tail_remaining(masses[: SITE_CAP + 1], sum(masses[SITE_CAP + 1 :]))
    family = FiberFamily(
        d,
        d,
        provider,
        lattice.Zd(spec.nu),
        tail=IdentityTail(remaining=remaining, exact_beyond=spec.tail_radius),
        label="generator model",
    )
    family.preload(sites, vecs)
    return family
