"""Infinite-volume limits: boundary matrices, limit expectations,
projectivity checks and the generator-driven model constructor.

The boundary matrix of a finite region collects, per index pair, the
limit of the product of single-site overlaps over all sites outside the
region.  Products are always formed directly from the overlaps, never
through entrywise logarithms (overlaps may be zero or have argument
near +-pi, where a principal-branch log sum misrepresents the product).
A product whose limit is zero is a converged result, not a failure.

One loop forms the products, step by step, from one of three sources.
A canonical walk on a lattice takes, after the empty shell at radius
-1, ``SHELL_BLOCK`` consecutive 1-norm shells per step and lists no
sites, in one ``np.multiply.accumulate`` per step, seeded with the
product so far:

* a radial family (``FiberFamily.radial``): one ``np.power`` raises each
  shell's Gram matrix to the exact count of its sites outside the
  region;
* a family with a table on a lattice and one array off it
  (``FiberFamily.preload`` and ``elsewhere``, as a generator model is
  built): one mask takes the step's table rows outside the region, in
  walk order, and each shell is closed by the Gram matrix off the table
  to the power of the shell's other sites outside the region.

(The accumulate rounds differently from multiplying factor by factor, by
about one rounding per entry and factor.)  Every other walk, and any
walk given an explicit ``exhaustion``, takes one block of its geometry's
walk order per step and multiplies in each site outside the region in
turn; it is the oracle of both shell sources.  The region is checked
against the family's geometry before any cached result is read.  Each
step is cut at the first shell (or block) whose sites would cross the
site cap, before anything is built, and the tail certificate settles
every shell the step took in one call.

On an infinite lattice the walk stops only on the family's tail
certificate (``kernel.OnesTail``, ``IdentityTail`` or ``ConstantTail``),
so every such result is rigorous; an infinite family without one is
refused.  A finite walk order (a ``lattice.Sites`` passed as
``exhaustion``) that leaves sites outside the region unwalked gives a
truncated, non-rigorous product.

A generator model's site data is already an eigendecomposition of its
Gram matrix, u* exp(D) u, so ``build_from_generators`` writes every
site's right root u* exp(D/2) u w* in closed form, in one stacked pass
over the columns of a ``GeneratorSpec`` (sites, diagonals, U, W), which
are checked once, as whole arrays; ``right_square_root`` is the general
primitive, and the closed form's test oracle.
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
from .kernel import (
    SHELL_BLOCK,
    FiberFamily,
    IdentityTail,
    product_kernel_matrix,
    tail_remaining,
)
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
    """The walk behind ``boundary_matrix``: one loop over steps (labels,
    site count per label, sites).  A canonical walk on a lattice takes a
    block of shells per step (sites None) from a radial family, each
    shell r as ``shell_gram(r)`` to the power of its count, or from a
    family's table and the array off it (``_table_products``); every
    other walk takes one block of its walk order, whose sites enter one
    by one.  The walk stops at the first label whose bound meets
    ``tail_tol``.  The first label whose cumulative count would cross
    ``site_cap`` is refused; the error carries the product through the
    label before it and the certificate's bound there (``inf`` if none
    was computed, as on a finite walk)."""
    tail = family.tail
    walk = family.geometry if exhaustion is None else exhaustion
    if tail is None and not walk.finite:
        raise PreconditionError(
            f"{family.label or 'family'} has infinitely many sites but no tail "
            "certificate: its boundary products cannot be stopped rigorously"
        )
    skip = set(region)
    table = family.table
    if exhaustion is None and (
        family.radial is not None
        or (family.elsewhere is not None and table is not None and table.radii is not None)
    ):
        # the empty shell, then blocks of whole shells, each with the
        # count of its sites outside the region
        held, nu = Counter(lattice.norm1(x) for x in skip), walk.nu
        blocks = (range(r, r + SHELL_BLOCK) for r in itertools.count(0, SHELL_BLOCK))
        steps = itertools.chain(
            [([-1], [0], ())],
            ((b, [lattice.shell_size(nu, r) - held.get(r, 0) for r in b], None) for b in blocks),
        )
        if family.radial is None:  # one mask: the table rows outside the region
            outside = np.ones(len(table.grams), dtype=bool)
            outside[[table.rows[x] for x in skip if x in table.rows]] = False
    else:
        # each site outside the region is one factor
        kept = ((k, [x for x in b if x not in skip]) for k, b in walk.blocks())
        steps = (([k], [len(sites)], sites) for k, sites in kept)
    p = np.ones((family.d_I, family.d_I), dtype=np.complex128)
    consumed = 0
    bound = math.inf
    for labels, counts, sites in steps:
        totals = list(itertools.accumulate(counts, initial=consumed))[1:]
        # the labels within the cap (totals never fall)
        m = len(totals) if totals[-1] <= site_cap else sum(t <= site_cap for t in totals)
        if m:
            if sites is None and family.radial is not None:
                powers = np.array(counts[:m])[:, None, None]
                factors = family.shell_grams(labels[0] // SHELL_BLOCK)[:m] ** powers
                rows = np.multiply.accumulate(np.concatenate((p[None], factors)))[1:]
            elif sites is None:
                rows = _table_products(family, outside, p, labels[0], counts[:m])
            else:
                for x in sites:
                    p = p * family.gram(x)
                rows = p[None]
            if not walk.finite:
                matrices, bounds = tail.settle(rows, np.asarray(labels[:m]))
                settled = np.flatnonzero(bounds <= tail_tol)
                if settled.size:
                    k = int(settled[0])
                    return BoundaryMatrix(region, matrices[k], float(bounds[k]), totals[k], True)
                bound = float(bounds[-1])
            p, consumed = rows[-1], totals[m - 1]
        if m < len(counts):
            raise ConvergenceError(
                f"boundary product did not settle within {site_cap} sites",
                last_partial=p,
                tail_estimate=bound,
            )

    # a finite walk is exact only if it covered every site outside the region
    exact = family.geometry.finite and consumed == len(family.geometry.site_set - skip)
    return BoundaryMatrix(region, p, 0.0 if exact else math.inf, consumed, exact)


def _table_products(family: FiberFamily, outside, p, start: int, counts: list) -> np.ndarray:
    """The products through each shell from radius ``start`` on, one per
    count, of a family with a table on a lattice, in one seeded
    ``np.multiply.accumulate``: each shell's table rows outside the region
    (``outside``, one mask over the table) in walk order, then the Gram
    matrix off the table to the power of the shell's other sites outside
    the region."""
    table, m = family.table, len(counts)
    rows = np.flatnonzero(outside & (table.radii >= start) & (table.radii < start + m))
    shell = table.radii[rows] - start
    per_shell = np.bincount(shell, minlength=m)
    # slot 0 holds p; shell k closes at ends[k], after its table rows
    ends = np.cumsum(per_shell) + np.arange(1, m + 1)
    seq = np.empty((ends[-1] + 1, family.d_I, family.d_I), dtype=np.complex128)
    seq[0] = p
    seq[np.arange(1, len(rows) + 1) + shell] = table.grams[rows]
    seq[ends] = family.elsewhere[1] ** (np.array(counts) - per_shell)[:, None, None]
    return np.multiply.accumulate(seq)[ends]


def limit_state_eval(
    family: FiberFamily,
    obs: LocalObservable,
    tail_tol: float = 1e-12,
    beta: BoundaryMatrix | None = None,
) -> complex:
    """Infinite-volume expectation of a tensor-product observable.

    sum_{i,j} [prod_{x in region} Tr(h_i h_j* b_x)] * boundary[i, j],
    with the boundary matrix ``beta`` of the observable's region when the
    caller holds it, else formed (or read from the cache) here.
    """
    if beta is None:
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


def _column(values, shape) -> tuple[np.ndarray, np.ndarray]:
    """A column of a generator table as one (N, *shape) stack, and the
    mask of the records whose shape is ``shape``; zeros stand in for the
    others.  ``values`` is one array with a leading record axis or a
    sequence of per-record arrays; a column whose records differ in
    shape, as a walked model file may give, is the only one stacked
    record by record."""
    try:
        stack = np.asarray(values)
    except ValueError:  # records of differing shapes
        shaped = np.array([np.shape(a) == shape for a in values], dtype=bool)
        zero = np.zeros(shape)
        return np.array([a if ok else zero for a, ok in zip(values, shaped)]), shaped
    ok = stack.shape[1:] == shape
    return (stack if ok else np.zeros((len(stack),) + shape)), np.full(len(stack), ok)


def _isometry_checks(name: str, values, d: int) -> tuple[np.ndarray, list]:
    """The ``name`` column as an (N, d, d) complex stack, and (failure
    mask, message of record k) for the shape, finiteness and isometry
    defect of every record's matrix."""
    m, shaped = _column(values, (d, d))
    m = m.astype(np.complex128, copy=False)
    finite = np.isfinite(m).all(axis=(1, 2))
    with np.errstate(invalid="ignore", over="ignore"):
        gram = m.conj().swapaxes(1, 2) @ m
        gram -= np.eye(d)
        defect = np.abs(gram).max(axis=(1, 2))
    return m, [
        (~shaped, lambda k: f"{name} has shape {np.shape(values[k])}, expected {(d, d)}"),
        (~finite, lambda k: f"{name} has non-finite entries"),
        (defect > 1e-12, lambda k: f"{name} deviates from isometry by {defect[k]:.3e}"),
    ]


def _is_site(zd: lattice.Zd, site) -> bool:
    try:
        zd.check(site)
    except ValidationError:
        return False
    return True


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator model's site table, as columns, plus a zero-beyond-
    radius tail rule.

    Row k of each column belongs to declared site k: ``sites`` holds the
    (N, nu) integer coordinates, ``diag`` the (N, d) real diagonals,
    ``u`` the (N, d, d) unitaries and ``w`` the isometries fixing which
    right root is taken.  ``diag``, ``u`` and ``w`` may instead be
    sequences of per-record arrays, which need not share a shape.  The
    fiber dimension ``d`` is declared and must equal the index count.
    The built family has Gram matrix exp(u* diag u) at each declared site
    and is exactly orthonormal beyond the tail radius.

    Validation runs once, as stacked reductions over the whole table.
    The first faulty record is reported, and within it the first failing
    check: its diagonal, then U, then W, then its site.  Afterwards the
    columns are stacked arrays (``diag`` real), ``keys`` holds the sites
    as tuples of ints and ``radii`` their 1-norms.
    """

    sites: np.ndarray
    diag: np.ndarray
    u: np.ndarray
    w: np.ndarray
    tail_radius: int
    nu: int
    d: int

    def __post_init__(self):
        sites = np.asarray(self.sites)
        if not sites.size:
            raise ValidationError("generator model declares no sites")
        if sites.ndim != 2:
            raise ValidationError(
                f"generator sites form an array of shape {sites.shape}, expected (N, {self.nu})"
            )
        keys = tuple(map(tuple, sites.tolist()))
        if any(len(column) != len(keys) for column in (self.diag, self.u, self.w)):
            raise ValidationError(f"generator columns must hold one row for each of {len(keys)} sites")
        if len(set(keys)) != len(keys):
            raise ValidationError("generator model declares a site twice")
        d, radius = self.d, self.tail_radius
        diag, diag_shaped = _column(self.diag, (d,))
        u, u_checks = _isometry_checks("U", self.u, d)
        w, w_checks = _isometry_checks("W", self.w, d)
        zd = lattice.Zd(self.nu)
        bound = np.iinfo(np.int64).max // self.nu
        if (
            sites.dtype.kind == "i"
            and sites.shape[1] == self.nu
            and ((-bound < sites) & (sites < bound)).all()
        ):
            # one integer array whose 1-norms fit int64: all sites
            typed = np.ones(len(keys), dtype=bool)
            radii = np.abs(sites).sum(axis=1)
        else:  # Python ints past int64, or not integer coordinates at all
            typed = np.array([_is_site(zd, key) for key in keys], dtype=bool)
            radii = np.array(
                [lattice.norm1(key) if ok else 0 for key, ok in zip(keys, typed)], dtype=object
            )
        checks = [
            (~diag_shaped, lambda k: f"diagonal has shape {np.shape(self.diag[k])}"),
            ((np.abs(np.imag(diag)) > 0).any(axis=1), lambda k: "diagonal is not real"),
            (~np.isfinite(diag).all(axis=1), lambda k: "diagonal has non-finite entries"),
            *u_checks,
            *w_checks,
        ]
        faults = [(mask, lambda k, m=m: f"site {keys[k]!r}: {m(k)}") for mask, m in checks]
        faults += [
            (~typed, lambda k: f"site {keys[k]!r} is not a {self.nu}-tuple of ints"),
            (np.asarray(radii > radius, dtype=bool), lambda k: (
                f"site {keys[k]!r} lies beyond the declared tail radius {radius}"
            )),
        ]
        failed = np.argwhere(np.stack([mask for mask, _ in faults], axis=1))
        if failed.size:
            k, c = (int(i) for i in failed[0])
            raise ValidationError(faults[c][1](k))
        for name, column in (("sites", sites), ("diag", np.real(diag).astype(np.float64)),
                             ("u", u), ("w", w), ("keys", keys), ("radii", radii)):
            object.__setattr__(self, name, column)

    def trace_abs(self) -> list:
        """Each record's absolute diagonal mass, in record order."""
        return np.abs(self.diag).sum(axis=1).tolist()

    def summability_certificate(self) -> float:
        """Total absolute diagonal mass over all declared sites."""
        return float(sum(self.trace_abs()))


def build_from_generators(spec: GeneratorSpec) -> FiberFamily:
    """Construct the fiber family a generator model describes.

    Per declared site the Gram matrix is exp(u* D u) = u* exp(D) u, and
    the fiber vectors are the rows of its right square root
    u* exp(D/2) u w*, formed for every site in one stacked pass over the
    spec's columns with no eigendecomposition and kept as the family's
    table; undeclared sites carry the standard orthonormal basis, the
    family's array off the table.  As ``right_square_root`` would, a
    site is refused (``DomainError``) when its exp(D) leaves the float64
    range or has an eigenvalue at or below ``ROOT_EIG_FLOOR`` times its
    largest, that is when max D - min D >= -ln(ROOT_EIG_FLOOR).
    """
    d, diag, keys = spec.d, spec.diag, spec.keys
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
                f"site {keys[k]!r}: exp(D_H) leaves the float64 range "
                f"(largest entry of D_H {top[k]:.6g})"
            )
        raise DomainError(
            f"site {keys[k]!r}: D_H spans {spread[k]:.6g}, so exp(D_H) has "
            f"an eigenvalue at or below {ROOT_EIG_FLOOR:g} times its largest"
        )
    u = spec.u
    vecs = np.einsum("nji,nj,njk,nlk->nil", u.conj(), np.exp(diag / 2), u, spec.w.conj())
    # deviation mass e^{trace_abs} - 1 per radius, declared sites only,
    # since undeclared sites contribute exactly nothing; a site past radius
    # SITE_CAP, which no capped walk reaches, is counted as beyond it
    radii = np.minimum(spec.radii, SITE_CAP + 1)
    mass = np.expm1(spec.trace_abs())
    masses = np.bincount(radii.astype(np.intp), weights=mass).tolist()
    remaining = tail_remaining(masses[: SITE_CAP + 1], sum(masses[SITE_CAP + 1 :]))
    family = FiberFamily(
        d,
        d,
        None,
        lattice.Zd(spec.nu),
        tail=IdentityTail(remaining=remaining, exact_beyond=spec.tail_radius),
        label="generator model",
        elsewhere=np.eye(d, dtype=np.complex128),
    )
    family.preload(spec.sites, vecs)
    return family
