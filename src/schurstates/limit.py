"""Infinite-volume limits: boundary matrices, limit expectations,
projectivity checks and the generator-driven model constructor.

The boundary matrix of a finite region collects, per index pair, the
limit of the product of single-site overlaps over all sites outside the
region.  Products are always formed directly from the overlaps, never
through entrywise logarithms (overlaps may be zero or have argument
near +-pi, where a principal-branch log sum misrepresents the product).
A product whose limit is zero is a converged result, not a failure.

One loop forms the products, step by step, for a whole list of regions
at once (``boundary_matrices``; ``boundary_matrix`` is its one-region
case).  A family on a lattice serves every site from two sources: its
table (``FiberFamily.preload``) and, for every site off it, its radial
shells (``FiberFamily.radial``).  The canonical walk of a family with
radial shells takes, after the empty shell at radius -1,
``SHELL_BLOCK`` consecutive 1-norm shells per step and lists no sites
(``_shell_products``); each shell's count outside a region is its size
(the geometry's ``sphere_sizes``) less the region's sites there, so the
walk reads a geometry only through ``distance`` and its spheres.  Each
shell multiplies in its table rows outside the region, in walk order, and then
its Gram matrix to the power of its sites off the table outside the
region: the kept full-shell power (``FiberFamily.shell_powers``) where
that is the whole shell, else raised afresh with ``np.power``.  Every
region takes a step's factors in one ``np.multiply.accumulate`` along
the factor axis of a (region, factor) stack, seeded with each region's
product so far.  (The accumulate rounds differently from multiplying
factor by factor with numpy's array ``*``, by about one rounding per
entry and factor, on machines where that fuses multiply-adds.)  Every
other walk, and any walk given an
explicit ``exhaustion``, takes one block of its walk order per step and
multiplies in each site outside the region in turn; it is the oracle of
the shell walk.  Every region is checked against the family's geometry
before any cached result is read.  Each region's steps are cut at the
first shell (or block) whose sites would cross the site cap; a step
builds products only through the last label some region takes, and
nothing if none takes one.  The tail certificate settles every shell
the step took, for all regions, in one call, and each region stops at
its own first settled shell.  Walking regions side by side changes no
bit of any region's result.

On an infinite lattice the walk stops only on the family's tail
certificate (``kernel.FarFieldTail``, whose far-field pattern is all
ones, the identity or a homogeneous family's exact pattern), so every
such result is rigorous; an infinite family without one is refused.  A
finite walk order (a ``lattice.Sites`` passed as ``exhaustion``) that
leaves sites outside the region unwalked gives a truncated,
non-rigorous product.

A generator model's site data is already an eigendecomposition of its
Gram matrix, u* exp(D) u, so ``build_from_generators`` writes every
site's right root u* exp(D/2) u w* in closed form, in one stacked pass
over the columns of a ``GeneratorSpec`` (sites, diagonals, U, W), which
are checked once, as whole arrays.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import lattice
from .errors import (
    ConvergenceError,
    DomainError,
    PreconditionError,
    ValidationError,
)
from .kernel import (
    SHELL_BLOCK,
    ZERO_VECTOR_TOL,
    FarFieldTail,
    FiberFamily,
    product_kernel_matrix,
    tail_remaining,
)
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
    order is an oracle for the canonical one, and is not cached; the
    canonical walk is ``boundary_matrices`` of the one region.
    """
    if exhaustion is None:
        return boundary_matrices(family, [region], tail_tol, site_cap)[0]
    region = tuple(region)
    for site in region:
        family.geometry.check(site)
    return _boundary_walk(family, region, exhaustion, tail_tol, site_cap)


def boundary_matrices(
    family: FiberFamily,
    regions,
    tail_tol: float = 1e-12,
    site_cap: int = SITE_CAP,
) -> list:
    """``boundary_matrix`` of each of ``regions`` on the canonical walk,
    in list order, from one walk of every region not yet cached.

    Every region is checked against the family's geometry first.  Each
    distinct cache key (the region's site set, ``tail_tol``, ``site_cap``)
    is walked once, all of them side by side in one pass over the
    shells, each stopping at its own first settled radius; every result
    is kept in the family's boundary cache, read-only, since every caller
    asking for the same site set, in any order, shares it.  If some
    regions cross ``site_cap``, the others are still cached, and the
    ``ConvergenceError`` that the first of them in list order raises
    alone is raised.
    """
    regions = [tuple(region) for region in regions]
    for region in regions:
        for site in region:
            family.geometry.check(site)
    cache = family._boundary_cache
    keys = [(frozenset(region), tail_tol, site_cap) for region in regions]
    missing: dict = {}  # key -> the first region asking for it
    for key, region in zip(keys, regions):
        if key not in cache:
            missing.setdefault(key, region)
    if len(missing) > 1:
        walked = _walk(family, list(missing.values()), None, tail_tol, site_cap)
    else:  # a lone region takes the one-region entry point
        walked = [_boundary_walk(family, region, None, tail_tol, site_cap) for region in missing.values()]
    for key, hit in zip(missing, walked):
        if isinstance(hit, BoundaryMatrix):
            hit.matrix.setflags(write=False)
            cache[key] = hit
    for hit in walked:
        if isinstance(hit, ConvergenceError):
            raise hit
    return [cache[key] for key in keys]


def _boundary_walk(
    family: FiberFamily,
    region: tuple,
    exhaustion: lattice.Zd | lattice.Sites | None,
    tail_tol: float,
    site_cap: int,
) -> BoundaryMatrix:
    """The walk of one region: ``_walk`` of a one-region list, whose
    ``ConvergenceError`` is raised."""
    (result,) = _walk(family, [region], exhaustion, tail_tol, site_cap)
    if isinstance(result, ConvergenceError):
        raise result
    return result


def _walk(
    family: FiberFamily,
    regions: list,
    exhaustion: lattice.Zd | lattice.Sites | None,
    tail_tol: float,
    site_cap: int,
) -> list:
    """The walk behind ``boundary_matrix``, for a list of regions at once:
    one loop over steps (labels, site count per region and label, sites
    per region).  A canonical walk of a family with radial shells takes a
    block of shells per step (sites None, ``_shell_products``); every
    other walk takes one block of its walk order per step, whose sites
    enter one by one.  Each region stops at its first label whose bound
    meets ``tail_tol``, with its ``BoundaryMatrix``.  A region whose
    cumulative count would cross ``site_cap`` at a label gets instead the
    ``ConvergenceError`` carrying its product through the label before
    and the certificate's bound there (``inf`` if none was computed, as
    on a finite walk).  A step builds products only through the last
    label some region takes, and nothing if none takes one."""
    if not (math.isfinite(tail_tol) and tail_tol >= 0):
        raise ValidationError(f"tail_tol must be a finite number >= 0, got {tail_tol}")
    tail = family.tail
    walk = family.geometry if exhaustion is None else exhaustion
    if tail is None and not walk.finite:
        raise PreconditionError(
            "family has infinitely many sites but no tail certificate: "
            "its boundary products cannot be stopped rigorously"
        )
    skips = [set(region) for region in regions]
    n, d_I, table = len(regions), family.d_I, family.table
    inside = None  # per region, one mask over the table: the rows inside it
    if exhaustion is None and family.radial is not None:
        steps = _shell_steps(family, skips)
        if table is not None:
            inside = np.zeros((n, len(table.grams)), dtype=bool)
            held = [(j, table.rows[x]) for j, skip in enumerate(skips) for x in skip if x in table.rows]
            if held:
                inside[tuple(zip(*held))] = True
    else:
        steps = _site_steps(walk, skips)
    results = [None] * n
    # the regions still walking, in list order, with their products,
    # counts and certificate bounds so far
    live = list(range(n))
    p = np.ones((n, d_I, d_I), dtype=np.complex128)
    consumed = np.zeros(n)
    bound = np.full(n, math.inf)
    for labels, counts, sites in steps:
        k, size = len(live), len(labels)
        if k < n:
            counts = counts[live]
        totals = consumed[:, None] + counts.cumsum(axis=1)
        # the labels within the cap, m per region (totals never fall), and
        # the labels some region takes
        m = (totals <= site_cap).sum(axis=1)
        top = int(m.max())
        hit = np.zeros(k, dtype=bool)
        if top:
            if sites is not None:  # one block: each site outside a region is one factor
                rows = p[:, None].copy()
                for i in np.flatnonzero(m).tolist():
                    for x in sites[live[i]]:
                        rows[i, 0] = rows[i, 0] * family.gram(x)
            else:
                rows = _shell_products(family, p, labels[0], counts[:, :top], inside)
            # the certificate settles, in one call, every label a region took
            if walk.finite:
                bounds = np.full((k, top), math.inf)
            else:
                matrices, bounds = tail.settle(
                    rows.reshape(-1, d_I, d_I), labels[None, :top].repeat(k, axis=0).ravel()
                )
                matrices, bounds = matrices.reshape(k, top, d_I, d_I), bounds.reshape(k, top)
            settled = (bounds <= tail_tol) & (np.arange(top) < m[:, None])
            hit = settled.any(axis=1)
        # a region that goes on took every label, so only those that stop
        # need their own label
        done = hit | (m < size)
        for i in np.flatnonzero(done).tolist():
            j, t = live[i], int(m[i])
            if hit[i]:
                s = int(settled[i].argmax())
                results[j] = BoundaryMatrix(matrices[i, s], float(bounds[i, s]), int(totals[i, s]), True)
            else:  # the cap stops it after t labels of the step
                results[j] = ConvergenceError(
                    f"boundary product did not settle within {site_cap} sites",
                    last_partial=rows[i, t - 1] if t else p[i],
                    tail_estimate=float(bounds[i, t - 1] if t else bound[i]),
                )
        live = [j for j, stop in zip(live, done) if not stop]
        if not live:
            return results
        p, consumed, bound = rows[~done, -1], totals[~done, -1], bounds[~done, -1]
        if inside is not None:
            inside = inside[~done]

    # a finite walk is exact only if it covered every site outside the region
    for i, j in enumerate(live):
        exact = family.geometry.finite and (
            int(consumed[i]) == len(family.geometry.site_set - skips[j])
        )
        results[j] = BoundaryMatrix(p[i], 0.0 if exact else math.inf, int(consumed[i]), exact)
    return results


def _shell_steps(family: FiberFamily, skips: list):
    """The steps of a canonical walk by shells: the empty shell at radius
    -1, then blocks of ``SHELL_BLOCK`` whole shells, each with the count
    of its sites outside each region (the geometry's ``sphere_sizes``
    less the region's sites there)."""
    geometry, n = family.geometry, len(skips)
    # (region, radius, sites of the region at that radius)
    held = [
        (j, r, c) for j, skip in enumerate(skips) for r, c in Counter(map(geometry.distance, skip)).items()
    ]
    yield np.array([-1]), np.zeros((n, 1)), [()] * n
    for start in itertools.count(0, SHELL_BLOCK):
        counts = np.repeat(geometry.sphere_sizes(start, start + SHELL_BLOCK)[None], n, axis=0)
        for j, r, c in held:
            if start <= r < start + SHELL_BLOCK:
                counts[j, r - start] -= c
        yield np.arange(start, start + SHELL_BLOCK), counts, None


def _site_steps(walk, skips: list):
    """The steps of a walk by blocks of its walk order, one block and
    label per step: each region's sites of the block outside it."""
    for label, block in walk.blocks():
        kept = [[x for x in block if x not in skip] for skip in skips]
        yield np.array([label]), np.array([[len(sites)] for sites in kept], dtype=float), kept


def _shell_products(family: FiberFamily, p: np.ndarray, start: int, counts: np.ndarray, inside) -> np.ndarray:
    """The products through each shell of the radial block from radius
    ``start`` on, one stack per region and one shell per column of
    ``counts``, in one seeded ``np.multiply.accumulate`` along the factor
    axis: ``p`` holds each region's product so far, ``counts`` its sites
    outside it per shell and ``inside`` its mask over the table (True at
    the rows inside it).  Each shell takes its table rows outside the
    region, in walk order, then its Gram matrix to the power of its other
    sites outside the region: the kept full-shell power
    (``FiberFamily.shell_powers``) where they are the whole shell, else
    raised here.  Every region's factors take the same slots, where a
    row inside the region is an exact factor of one, so a step with no
    table row takes one slot per shell."""
    block, m = start // SHELL_BLOCK, counts.shape[1]
    # the order matters for speed on x86-64: squaring a new block (a BLAS
    # product) slows libm's scalar complex power, which the full-shell
    # powers use, about tenfold until a numpy loop such as the comparison
    # below has run
    grams = family.shell_grams(block)
    sizes = family.geometry.sphere_sizes(start, start + SHELL_BLOCK)[:m]
    table, off = family.table, counts  # off[i, j]: shell j's sites off the table outside region i
    lo = hi = 0
    if table is not None and table.radii[-1] >= start:
        lo, hi = table.radii.searchsorted([start, start + m]).tolist()
    # slot 0 holds p, then each shell's table rows, and shell j closes at
    # slot ends[j]
    ends = np.arange(1, m + 1)
    if hi > lo:
        shell = table.radii[lo:hi] - start
        per_shell = np.bincount(shell, minlength=m)
        i, q = np.nonzero(inside[:, lo:hi])  # the step's rows inside each region
        held = np.bincount(i * m + shell[q], minlength=len(p) * m).reshape(len(p), m)
        off = counts - (per_shell - held)
        ends += per_shell.cumsum()
    # the closing slots as a slice where they run on, with no row past the
    # step's first shell (a slice reads and writes without copies)
    closes = slice(ends[0], ends[0] + m) if ends[-1] - ends[0] == m - 1 else ends
    j, r = np.nonzero(off != sizes)
    seq = np.empty((len(p), ends[-1] + 1) + p.shape[1:], dtype=np.complex128)
    seq[:, 0] = p
    seq[:, closes] = family.shell_powers(block)[:m]
    if j.size:
        seq[j, ends[r]] = grams[r] ** off[j, r][:, None, None]
    if hi > lo:
        rows = np.arange(1, hi - lo + 1) + shell
        seq[:, rows] = table.grams[lo:hi]
        seq[i, rows[q]] = 1
    return np.multiply.accumulate(seq, axis=1)[:, closes]


def limit_state_eval(
    family: FiberFamily,
    obs: LocalObservable,
    tail_tol: float = 1e-12,
) -> complex:
    """Infinite-volume expectation of a tensor-product observable.

    sum_{i,j} [prod_{x in region} Tr(h_i h_j* b_x)] * boundary[i, j],
    with the boundary matrix of the observable's region read from the
    family's cache when a caller has walked it, else formed here.
    """
    beta = boundary_matrix(family, obs.region, tail_tol=tail_tol)
    m = product_kernel_matrix(family, obs.region, obs.factors)
    return complex((m * beta.matrix).sum())


def total_weight(empty: BoundaryMatrix) -> float:
    """The weight Z = sum_ij beta(empty)[i, j] that the normalized state
    psi = value / Z divides by, from the empty region's boundary matrix.
    Z is the limit of <Psi, Psi>, real and non-negative; a walked sum
    that is not real and positive is a ``ValidationError``.  Each of its
    d_I² entries is within the boundary's tail bound."""
    z = complex(empty.matrix.sum())
    if not (z.real > 0 and abs(z.imag) <= 1e-9 * z.real):
        raise ValidationError(f"total boundary weight {z} cannot be normalized away")
    return z.real


def superset_region(region, obs: LocalObservable) -> tuple:
    """``region`` as a tuple; ``GeometryError`` unless it holds every site
    of the observable's region."""
    region = tuple(region)
    lattice.require_inside(obs.region, region)
    return region


@dataclass(frozen=True)
class ProjectivityReport:
    value_large: complex
    value_small: complex
    gap: float
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
    identity factors to the larger region (``superset_region``); a
    projective family makes the two agree.  Both boundary matrices are
    read from the family's cache when a caller has walked them already.
    """
    region = superset_region(region, obs)
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
    return ProjectivityReport(large, small, gap, gap <= tol * scale)


# ---------------------------------------------------------------------------
# Generator-built models
# ---------------------------------------------------------------------------


#: ``build_from_generators`` refuses a site whose Gram matrix has an
#: eigenvalue at or below this share of its largest.
ROOT_EIG_FLOOR = 1e-12


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
    defect of every record's matrix.  The defect is max |M*M - I|, with
    M*M formed as entrywise products summed over the d axis, row k of M
    after row k - 1, on a copy whose record axis is last, so that every
    product, sum and maximum runs over all N records at once; no small
    matrix product is formed (``@`` differs by rounding alone, about
    2e-16, far below the 1e-12 threshold)."""
    m, shaped = _column(values, (d, d))
    m = m.astype(np.complex128, copy=False)
    t = np.ascontiguousarray(m.transpose(1, 2, 0))  # t[k, i, n] = m[n, k, i]
    c = t.conj()
    finite = np.isfinite(t).all(axis=(0, 1))
    with np.errstate(invalid="ignore", over="ignore"):
        gram = c[0, :, None] * t[0, None]
        for k in range(1, d):
            gram += c[k, :, None] * t[k, None]
        gram -= np.eye(d)[:, :, None]
        defect = np.abs(gram).max(axis=(0, 1))
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
    as tuples of ints and ``radii`` their 1-norms.  For an int64 table
    the family table's ``walk`` (its order, and the map of the keys to
    its rows) is formed here too, each key hashed and each 1-norm formed
    once, and ``build_from_generators`` hands it to the table.
    """

    sites: np.ndarray
    diag: np.ndarray
    u: np.ndarray
    w: np.ndarray
    tail_radius: int
    nu: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"fiber dimension must be positive, got d={self.d}")
        try:
            sites = np.asarray(self.sites)
        except ValueError:  # sites of differing lengths
            raise ValidationError(f"generator sites differ in length, expected (N, {self.nu})") from None
        if not sites.size:
            raise ValidationError("generator model declares no sites")
        if sites.ndim != 2:
            raise ValidationError(
                f"generator sites form an array of shape {sites.shape}, expected (N, {self.nu})"
            )
        keys = tuple(zip(*sites.T.tolist()))  # one tuple of ints per row
        if any(len(column) != len(keys) for column in (self.diag, self.u, self.w)):
            raise ValidationError(f"generator columns must hold one row for each of {len(keys)} sites")
        zd = lattice.Zd(self.nu)
        bound = np.iinfo(np.int64).max // self.nu
        walk = None
        if (
            sites.dtype.kind == "i"
            and sites.shape[1] == self.nu
            and ((-bound < sites) & (sites < bound)).all()
        ):
            # one integer array whose 1-norms fit int64: all sites, and the
            # family table's walk order and row map, each key hashed once
            typed = np.ones(len(keys), dtype=bool)
            order, radii = zd.walk_order(sites)
            rows = dict(zip(map(keys.__getitem__, order.tolist()), range(len(keys))))
            walk = (order, radii, rows)
        else:  # Python ints past int64, or not integer coordinates at all
            typed = np.array([_is_site(zd, key) for key in keys], dtype=bool)
            radii = np.array(
                [zd.distance(key) if ok else 0 for key, ok in zip(keys, typed)], dtype=object
            )
            rows = dict.fromkeys(keys)
        if len(rows) != len(keys):
            raise ValidationError("generator model declares a site twice")
        d, radius = self.d, self.tail_radius
        diag, diag_shaped = _column(self.diag, (d,))
        u, u_checks = _isometry_checks("U", self.u, d)
        w, w_checks = _isometry_checks("W", self.w, d)
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
                             ("u", u), ("w", w), ("keys", keys), ("radii", radii), ("walk", walk)):
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
    table; every undeclared site carries the standard orthonormal basis,
    the family's radial shells.  A site is refused (``DomainError``)
    when its exp(D) leaves the float64 range or has an eigenvalue at or
    below ``ROOT_EIG_FLOOR`` times its largest, that is when
    max D - min D >= -ln(ROOT_EIG_FLOOR).  It is
    refused the same way when one of its fiber vectors has a norm at or
    below ``ZERO_VECTOR_TOL``, which the table would take for a zero
    vector (a row's squared norm is a weighted mean of exp(D), so some
    entry of D lies below 2 ln(ZERO_VECTOR_TOL), about -64.5).  The
    table takes the spec's coordinates and site keys as they are.
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
    # a row's squared norm is a weighted mean of exp(D), so only a site
    # with an entry of D below about 2 ln(ZERO_VECTOR_TOL) can have a row
    # that the table takes for a zero vector; only those are measured
    low = np.flatnonzero(diag.min(axis=1) < 2 * math.log(ZERO_VECTOR_TOL) + 1)
    norms = np.linalg.norm(vecs[low], axis=2)
    vanish = np.flatnonzero((norms <= ZERO_VECTOR_TOL).any(axis=1))
    if vanish.size:
        k, j = int(low[vanish[0]]), int(vanish[0])
        raise DomainError(
            f"site {keys[k]!r}: exp(D_H/2) takes a fiber vector to norm "
            f"{norms[j].min():.3g}, at or below {ZERO_VECTOR_TOL:g} "
            f"(largest entry of D_H {top[k]:.6g})"
        )
    # deviation mass e^{trace_abs} - 1 per radius, declared sites only,
    # since undeclared sites contribute exactly nothing; a site past radius
    # SITE_CAP, which no capped walk reaches, is counted as beyond it
    radii = np.minimum(spec.radii, SITE_CAP + 1)
    mass = np.expm1(spec.trace_abs())
    masses = np.bincount(radii.astype(np.intp), weights=mass).tolist()
    remaining = tail_remaining(masses[: SITE_CAP + 1], sum(masses[SITE_CAP + 1 :]))
    eye = np.eye(d, dtype=np.complex128)
    family = FiberFamily(
        d,
        d,
        None,
        lattice.Zd(spec.nu),
        tail=FarFieldTail(np.eye(d, dtype=bool), remaining, exact_beyond=spec.tail_radius),
        radial=lambda start, stop: np.broadcast_to(eye, (stop - start, d, d)),
    )
    family.preload(spec.sites, vecs, walk=spec.walk)
    return family
