"""Per-site fiber vectors and the kernels they induce.

A model attaches to every site x a tuple of d_I non-zero vectors
h(x, 1), ..., h(x, d_I) in the d-dimensional fiber.  Each pair of
indices gives a linear functional on d x d matrices,

    b  ->  Tr(h(x,i) h(x,j)* b)  =  <h(x,j), b h(x,i)>,

and collecting all pairs gives a d_I x d_I matrix-valued map per site.
This module certifies the positivity structure of those maps (the Choi
matrix by ``linalg.psd_report``, Gram matrices over observable tuples by
``product_kernel_gram_matrix``) and owns both forms of their multi-site
entrywise (Schur) products: ``product_kernel_matrix`` with one
observable factor per site, and ``transfer_matrix``, the product of
plain overlaps (kernels at the identity) over a region minus a
subregion.  Both are the one running product ``schur_product`` seeded
with ones; every other module builds its site products from these, and
a caller that keeps a region's site kernels extends their product with
``schur_product`` bit for bit.
A site's kernel is evaluated on a whole stack of observables at once
(``_kernel_stack``): the Choi matrix on the stack of the d² matrix
units, a tuple Gram matrix on the stack of all n² products of one
site's factors.

A lattice family serves its sites from two sources: its table
(``preload``), checked and squared in one stacked pass and kept as one
stack in walk order, and its radial shells (``radial``) for every site
off the table: the vectors of the site's 1-norm shell, ``SHELL_BLOCK``
consecutive shells at a time as one stack, or a run of such blocks as
one, checked and squared in one pass (a generator model's identity, a
homogeneous family's tuple over its largest norm, a perturbed family's
tuple per radius).  So a
boundary walk takes a whole block of shell Gram matrices, and each
shell's power to its full size from a stack the family keeps per block,
without visiting the shells' sites.  A perturbed family is radial
shells alone.
An explicit family (``FiberFamily.explicit``: every random family,
every explicit model file and a homogeneous family on a site list) is a
table of all its sites, one row each in their given order, so a faulty
vector is refused when the family is made, by the one vector verdict
``check_vectors``.  A family without radial shells asks its provider for
a site off its table, at the site's first use.

Index layout, fixed once for the whole package:

* ``family.vectors(x)`` has shape (d_I, d); row i is h(x, i).
* ``kernel_matrix(family, x, b)[i, j] == Tr(h_i h_j* b)
  == <h_j, b h_i>``; at b = identity this is the Gram matrix
  ``G[i, j] = <h_j, h_i>``.
* ``kernel_gram_matrix`` rows/cols are composite indices (i, k) -> i*n + k
  for fiber index i and observable index k.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import lattice
from .errors import ConvergenceError, DimensionError, ValidationError
from .linalg import PsdReport, as_cmatrix, psd_report

#: Vectors with norm at or below this are rejected as zero.
ZERO_VECTOR_TOL = 1e-14

#: Most matrix-unit entries ``choi_matrix`` stacks at once (whole rows p
#: of the d² units e_p e_q*, at least one row).
CHOI_UNIT_ENTRIES = 4096

#: Consecutive 1-norm shells a radial family builds, and a boundary walk
#: multiplies in, at once: block k holds radii k * SHELL_BLOCK, ...,
#: (k + 1) * SHELL_BLOCK - 1.
SHELL_BLOCK = 64


# ---------------------------------------------------------------------------
# Tail certificates
#
# Families defined on an infinite lattice declare how their per-site
# Gram matrices behave far from the origin, in one certificate
# (``FarFieldTail``): far Gram matrices approach a fixed 0/1 pattern,
# all ones for a perturbed family, the identity for a generator model and
# the exact ``dominance`` pattern of a homogeneous family's one tuple.
# It owns the stopping rule: ``settle(p, radii)`` takes a stack of
# entrywise products, ``p[k]`` that of every site within 1-norm
# ``radii[k]`` (an integer array), and returns the limit estimates with
# a rigorous bound on each one's remaining change, for the whole stack
# at once.  The boundary walk stops at the first radius whose bound meets
# its tolerance.
# ---------------------------------------------------------------------------


def tail_remaining(masses, beyond: float = 0.0) -> Callable:
    """A certificate's ``remaining`` from per-radius deviation masses.

    ``masses[k]`` is the mass of 1-norm shell k and ``beyond`` bounds
    the mass of every shell past the list; ``remaining(r)`` is the mass
    of the shells beyond radius r, for every ``r >= -1``, or an array of
    them for an integer array r.  The suffix sums are formed once, from
    the outermost radius inward, each rounded up past a non-zero mass so
    that it is never below the exact sum of non-negative masses.
    """
    suffix = [beyond]
    for m in reversed(masses):
        suffix.append(math.nextafter(suffix[-1] + m, math.inf) if m else suffix[-1])
    suffix = np.array(suffix[::-1])

    def remaining(r):
        return suffix[np.minimum(np.add(r, 1), len(suffix) - 1)]

    return remaining


@dataclass(frozen=True)
class FarFieldTail:
    """Far Gram matrices approach one fixed (d_I, d_I) 0/1 ``pattern``.

    ``remaining(r)`` bounds the sum over all sites with 1-norm > r of
    ``max_ij |G_x[i,j] - pattern[i,j]|``, for every ``r >= -1``: the walk
    asks for ``remaining(-1)``, the mass of every site, origin included.
    It is asked for a whole integer array of radii at once, and answers
    with an array.  ``exact_beyond`` marks a radius past which every
    remaining factor is exactly the pattern: pattern-1 entries freeze and
    pattern-0 entries are annihilated.
    """

    pattern: np.ndarray
    remaining: Callable
    exact_beyond: int | None = None

    def __post_init__(self):
        pattern = np.array(self.pattern, dtype=bool)
        pattern.setflags(write=False)
        object.__setattr__(self, "pattern", pattern)
        # flat indices of the pattern-1 and pattern-0 entries
        object.__setattr__(self, "_ones", np.flatnonzero(pattern))
        object.__setattr__(self, "_zeros", np.flatnonzero(~pattern))

    def settle(self, p: np.ndarray, radii) -> tuple[np.ndarray, np.ndarray]:
        remaining = self.remaining(radii)
        growth = np.expm1(np.minimum(remaining, 700.0))
        size = np.abs(p).reshape(len(p), -1)
        bound = size[:, self._ones].max(axis=1) * growth
        if self._zeros.size:
            # pattern-0 factors collapse toward 0; the entry itself must
            # shrink below tolerance before the product can be frozen
            off = size[:, self._zeros].max(axis=1)
            bound = np.maximum(bound, off * (1.0 + np.minimum(remaining, 1.0) + growth))
        exact = radii >= (math.inf if self.exact_beyond is None else self.exact_beyond)
        if not exact.any():
            return p, bound
        p = p.copy()
        p.reshape(len(p), -1)[np.ix_(exact, self._zeros)] = 0
        return p, np.where(exact, 0.0, bound)


# ---------------------------------------------------------------------------
# Fiber families
# ---------------------------------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_vectors(stack: np.ndarray, where: Callable[[int], str]) -> None:
    """The one verdict on fiber vectors: refuse a stack of (d_I, d)
    vector arrays, shape (n, d_I, d) or, for one array, (d_I, d), that
    holds a vector which is not finite, is zero (norm at or below
    ``ZERO_VECTOR_TOL``) or has a squared norm past the float64 range,
    whose Gram entries would overflow.  The first such vector is named
    by ``where(k)``, which names array k, and its index; no
    floating-point warning is raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.add.reduce((stack.conj() * stack).real, axis=-1)
    if np.isfinite(squares).all() and (np.sqrt(squares) > ZERO_VECTOR_TOL).all():
        return
    squares = squares.reshape(-1, stack.shape[-2])
    finite = np.isfinite(stack).all(axis=-1).reshape(squares.shape)
    faults = [
        (~finite, "is not finite"),
        (~np.isfinite(squares), "has a squared norm past the float64 range"),
        (np.sqrt(squares) <= ZERO_VECTOR_TOL, "is zero"),
    ]
    k, i = np.argwhere(np.any([mask for mask, _ in faults], axis=0))[0].tolist()
    message = next(text for mask, text in faults if mask[k, i])
    raise ValidationError(f"{where(k)}: vector {i} {message}")


class Dominance(NamedTuple):
    """Which overlaps of one vector tuple dominate, read exactly
    (``dominance``).  ``largest`` lists the indices of largest norm;
    ``pattern`` (read-only, (p, p) bool) is 1 where h_i = h_j and both
    have the largest norm; ``diverging`` is the first pair (i, j) of
    largest-norm vectors with h_i = c h_j and c != 1, or None; and
    ``parallel`` says whether two distinct vectors are parallel."""

    largest: tuple
    pattern: np.ndarray
    diverging: tuple | None
    parallel: bool


def dominance(vectors: np.ndarray) -> Dominance:
    """The exact ``Dominance`` of a (p, d) tuple of reference vectors,
    the one decision of which overlaps a homogeneous model's limit keeps.

    Every float64 entry is read as a rational, integers over one common
    power of two, so each overlap <h_j, h_i> and squared norm is an
    exact integer: |<h_j, h_i>| reaches the largest squared norm only
    where h_i and h_j both have the largest norm and are parallel, and
    then <h_j, h_i> = c |h_j|^2 with |c| = 1.  A faulty vector is
    refused by ``check_vectors``, named by its index."""
    check_vectors(vectors, lambda k: "reference vectors")
    entries = np.concatenate((vectors.real, vectors.imag), axis=1)  # row i: re h_i, im h_i
    ratios = [x.as_integer_ratio() for x in entries.ravel().tolist()]
    scale = max(q for _, q in ratios)
    ints = np.array([p * (scale // q) for p, q in ratios], dtype=object).reshape(entries.shape)
    re, im = np.hsplit(ints, 2)
    # <h_j, h_i> = sum_p conj(h_j[p]) h_i[p] at [i, j], in exact integers
    dot_re = re @ re.T + im @ im.T
    dot_im = im @ re.T - re @ im.T
    squares = dot_re.diagonal()
    largest = squares.max()
    top = squares == largest
    parallel = dot_re * dot_re + dot_im * dot_im == squares[:, None] * squares
    dominant = parallel & top[:, None] & top
    pattern = dominant & (dot_re == largest)  # c = 1: h_i = h_j
    diverging = np.flatnonzero(dominant & ~pattern).tolist()
    return Dominance(
        largest=tuple(np.flatnonzero(top).tolist()),
        pattern=_frozen(pattern),
        diverging=divmod(diverging[0], len(squares)) if diverging else None,
        parallel=int(parallel.sum()) > len(squares),  # the diagonal is always parallel
    )


class Table(NamedTuple):
    """A family's preloaded sites: site ``s`` is row ``rows[s]`` of the
    read-only ``vectors`` (N, d_I, d) and ``grams`` (N, d_I, d_I) stacks,
    one row per site.  On a lattice the rows are in ``walk_order`` and
    ``radii`` holds their 1-norms (int64; exact for every site a walk can
    reach); on a site list, ``radii`` is None and the rows keep the given
    order."""

    rows: dict
    vectors: np.ndarray
    grams: np.ndarray
    radii: np.ndarray | None


class FiberFamily:
    """Sites with per-site fiber vector tuples.

    ``geometry`` (``lattice.Zd`` or ``lattice.Sites``) says which sites
    exist and in which order a boundary walk visits them.  Vectors are
    produced lazily, so the same object serves finite enumerated models
    and infinite lattice models.  All vectors must pass ``check_vectors``
    (finite, non-zero, squared norms inside the float64 range) and share
    one (d, d_I).  A site is served from the family's table if it is on
    it, and otherwise by its radial shells or, without them, by its
    provider.

    Table contract: ``preload`` hands over the vectors of a whole table
    of sites at once, validated and squared in one stacked pass and kept
    as one stack (``table``); ``explicit`` preloads every site of its
    list.

    Radial contract: a family on an infinite geometry whose vectors off
    its table depend on a site only through its ``distance`` passes
    ``radial(start, stop)``, the (stop - start, d_I, d) stack whose row k
    holds the vectors of every site of sphere start + k off the table.
    The family builds each block of ``SHELL_BLOCK`` radii once: alone,
    where a site, a walk or ``shell_grams(k)`` first needs it, or with
    the blocks after it as one run (``shell_gram_run``), from one
    ``radial`` call over the whole run, validated and squared in one
    pass and kept as one read-only view per block (a run that repeats one
    tuple, with stride 0 along its radii as ``np.broadcast_to`` makes it,
    is validated and squared once); ``shell_grams(k)`` serves the Gram
    stack of block k, and
    ``shell_gram(r)`` and every site of sphere r off the table read row r
    of their block.  The family also owns each block's full-shell powers
    (``shell_powers(k)``), each Gram matrix raised to its ``sphere_sizes``,
    which a boundary walk forms the first time it takes the block: at
    most one stack per block built, kept as long as the family.  On a lattice, a canonical boundary walk takes every
    family with radial shells a block of shells at a time: each shell's
    table rows, then its Gram matrix for the sites off the table.

    Provider contract: ``provider(site)`` returns the (d_I, d) vectors of
    one site.  They are validated and squared into their Gram matrix at
    the site's first use, and a per-site index keeps the result, so every
    later ``vectors``/``gram`` call is one lookup.
    """

    def __init__(
        self,
        d: int,
        d_I: int,
        provider: Callable[[object], np.ndarray] | None,
        geometry: lattice.Zd | lattice.Sites,
        tail=None,
        label: str = "",
        radial: Callable[[int, int], np.ndarray] | None = None,
    ):
        if d < 1 or d_I < 1:
            raise ValidationError(f"fiber dims must be positive, got d={d}, d_I={d_I}")
        if radial is not None and geometry.finite:
            raise ValidationError("a radial family needs a lattice geometry")
        if provider is None and radial is None:
            raise ValidationError("a family needs a provider or radial blocks")
        self.d = int(d)
        self.d_I = int(d_I)
        self._provider = provider
        self.geometry = geometry
        self.tail = tail
        self.label = label
        self.radial = radial
        self._by_site: dict = {}  # site -> its (vectors, Gram) entry
        self._blocks: dict = {}  # k -> (vectors, Grams) of radial block k
        self._powers: dict = {}  # k -> full-shell powers of radial block k
        self.table: Table | None = None  # set once, by ``preload``
        # owned here, filled by ``limit.boundary_matrix``
        self._boundary_cache: dict = {}

    def _entry(self, site) -> tuple:
        row = None if self.table is None else self.table.rows.get(site)
        if row is not None:
            entry = (self.table.vectors[row], self.table.grams[row])
        else:
            self.geometry.check(site)
            if self.radial is not None:
                r = self.geometry.distance(site)
                entry = tuple(stack[r % SHELL_BLOCK] for stack in self._block(r // SHELL_BLOCK))
            else:
                v = np.asarray(self._provider(site), dtype=np.complex128)
                if v.shape != (self.d_I, self.d):
                    raise DimensionError(
                        f"site {site!r}: vectors have shape {v.shape}, "
                        f"expected {(self.d_I, self.d)}"
                    )
                entry = (v, self._squared(v, lambda k: f"site {site!r}"))
        self._by_site[site] = entry
        return entry

    def _squared(self, stack: np.ndarray, where: Callable[[int], str]) -> np.ndarray:
        """Validate a stack of (d_I, d) vector arrays, shape (n, d_I, d) or,
        for one array, (d_I, d), with ``where(k)`` naming array k, and
        square it into its Gram matrices; both are left read-only."""
        check_vectors(stack, where)
        stack.setflags(write=False)
        g = stack @ stack.conj().swapaxes(-1, -2)
        g.setflags(write=False)
        return g

    def preload(self, sites, stack, walk=None) -> None:
        """Validate, square and keep the vectors of a table of sites in one
        pass; a family takes one table.

        ``stack[k]`` holds the vectors of site k (what the provider, if
        any, would return there); afterwards ``vectors``/``gram`` at those
        sites read rows of one stack.  ``sites`` lists the sites, each
        checked by the geometry, or on a lattice holds their coordinates
        as the rows of one array; an (N, nu) integer array is checked as
        a whole.  On a lattice the table is kept in the geometry's
        ``walk_order``, with each row's distance in ``table.radii``; a
        fault is named at the first faulty site in that order, and a site
        listed twice is refused.  A caller that has formed them already
        (a ``GeneratorSpec`` of an int64 table) passes ``walk``: the walk
        order, each row's distance, and the map of the sites' keys, in
        walk order, to their rows, so that no key is hashed again.
        """
        if self.table is not None:
            raise ValidationError("a family takes one table, and this one has it")
        v = np.asarray(stack, dtype=np.complex128)
        if v.shape != (len(sites), self.d_I, self.d):
            raise DimensionError(
                f"preloaded vectors have shape {v.shape}, "
                f"expected {(len(sites), self.d_I, self.d)}"
            )
        if walk is None:  # check the sites and form their walk here
            coords = None
            if isinstance(sites, np.ndarray) and sites.ndim == 2 and not self.geometry.finite:
                whole = sites.dtype.kind == "i" and sites.shape[1] == self.geometry.nu
                coords, sites = sites, list(map(tuple, sites.tolist()))
            else:
                whole, sites = False, list(sites)
            if not whole:
                for site in sites:
                    self.geometry.check(site)
            order = radii = None
            if not self.geometry.finite:
                order, radii = self.geometry.walk_order(coords if whole else sites)
                sites = [sites[k] for k in order.tolist()]
            rows = dict(zip(sites, range(len(sites))))
            if len(rows) < len(sites):
                repeated = next(s for s, n in Counter(sites).items() if n > 1)
                raise ValidationError(f"site {repeated!r} is preloaded twice")
            walk = order, radii, rows
        order, radii, rows = walk
        if order is not None:
            v, radii = v[order], radii[order]
        self.table = Table(rows, v, self._squared(v, lambda k: f"site {list(rows)[k]!r}"), radii)

    def vectors(self, site) -> np.ndarray:
        """The (d_I, d) array whose row i is h(site, i)."""
        return (self._by_site.get(site) or self._entry(site))[0]

    def gram(self, site) -> np.ndarray:
        """Overlap matrix G[i, j] = Tr(h_i h_j*) = <h_j, h_i> at one site."""
        return (self._by_site.get(site) or self._entry(site))[1]

    def shell_gram_run(self, k: int, n: int) -> np.ndarray:
        """Build radial blocks k, ..., k + n - 1 from one ``radial`` call,
        validated and squared in one pass, and keep each block as
        read-only views of the run's stacks; returns the run's
        (n * SHELL_BLOCK, d_I, d_I) Gram stack, radius by radius (radial
        families only).  A block asked for here is built again, so a
        caller asks only for blocks not yet built."""
        start, stop = k * SHELL_BLOCK, (k + n) * SHELL_BLOCK
        v = np.asarray(self.radial(start, stop), dtype=np.complex128)
        if v.shape != (stop - start, self.d_I, self.d):
            raise DimensionError(
                f"radii {start} to {stop - 1}: vectors have shape "
                f"{v.shape}, expected {(stop - start, self.d_I, self.d)}"
            )
        if v.strides[0] == 0:  # one tuple at every radius: checked and squared once
            g = self._squared(v[0], lambda j: f"radius {start}")
            g = np.broadcast_to(g, (stop - start,) + g.shape)
        else:
            g = self._squared(v, lambda j: f"radius {start + j}")
        for j in range(n):
            rows = slice(j * SHELL_BLOCK, (j + 1) * SHELL_BLOCK)
            self._blocks[k + j] = (v[rows], g[rows])
        return g

    def _block(self, k: int) -> tuple:
        """The read-only (vectors, Grams) stacks of radial block k, built
        alone if it is missing."""
        block = self._blocks.get(k)
        if block is None:
            self.shell_gram_run(k, 1)
            block = self._blocks[k]
        return block

    def shell_grams(self, k: int) -> np.ndarray:
        """The (SHELL_BLOCK, d_I, d_I) Gram matrices of the radii of block
        k, row j shared by every site of 1-norm k * SHELL_BLOCK + j off
        the table (radial families only)."""
        return self._block(k)[1]

    def shell_gram(self, r: int) -> np.ndarray:
        """The Gram matrix shared by every site of 1-norm r off the table
        (radial families only)."""
        return self.shell_grams(r // SHELL_BLOCK)[r % SHELL_BLOCK]

    def shell_powers(self, k: int) -> np.ndarray:
        """The read-only (SHELL_BLOCK, d_I, d_I) stack whose row j is
        ``shell_grams(k)[j]`` to the power of the geometry's size of
        sphere k * SHELL_BLOCK + j: each whole shell's product, formed
        the first time it is asked for and kept (radial families only)."""
        powers = self._powers.get(k)
        if powers is None:
            start = k * SHELL_BLOCK
            sizes = self.geometry.sphere_sizes(start, start + SHELL_BLOCK)
            powers = self._powers[k] = _frozen(self.shell_grams(k) ** sizes[:, None, None])
        return powers

    # -- constructors -------------------------------------------------

    @classmethod
    def explicit(cls, vectors_by_site: dict, label: str = "") -> "FiberFamily":
        """Finite family from a site -> (d_I, d) array mapping, its sites in
        the mapping's order.  Every array goes into one table (``preload``),
        so a zero or non-finite vector is refused here, named by its site."""
        if not vectors_by_site:
            raise ValidationError("explicit family needs at least one site")
        arrays = [np.asarray(a, dtype=np.complex128) for a in vectors_by_site.values()]
        if arrays[0].ndim != 2:
            raise DimensionError("per-site vectors must form a 2-D array")
        d_I, d = arrays[0].shape
        for s, a in zip(vectors_by_site, arrays):
            if a.shape != (d_I, d):
                raise DimensionError(
                    f"site {s!r}: vector block shape {a.shape} != {(d_I, d)}"
                )
        sites = lattice.Sites(tuple(vectors_by_site))
        # every site is on the table, so the provider is never asked
        family = cls(d, d_I, vectors_by_site.__getitem__, sites, label=label)
        family.preload(sites.sites, arrays)
        return family

    @classmethod
    def homogeneous(cls, vectors, geometry, label: str = "") -> "FiberFamily":
        """Same vector tuple at every site of ``geometry``.  On a site list
        it is the ``explicit`` family with that tuple at every site.  On a
        lattice every vector is divided by the largest norm, every shell
        carries that tuple (``radial``), and the certificate's pattern,
        exact from the empty walk on, is the tuple's exact ``dominance``
        pattern: the entries whose overlap is the largest squared norm.
        Where two largest-norm vectors differ by a factor c != 1 the
        product has no limit: the certificate's ``remaining`` raises
        ``ConvergenceError`` at its first call, so only a walk fails."""
        v = np.asarray(vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise DimensionError("homogeneous reference vectors must be a 2-D array")
        if geometry.finite:
            return cls.explicit(dict.fromkeys(geometry.sites, v), label=label)
        d_I, d = v.shape
        dom = dominance(v)
        unit = v / np.linalg.norm(v, axis=1).max()
        remaining = tail_remaining([])
        if dom.diverging is not None:
            i, j = dom.diverging
            g = unit @ unit.conj().T

            def remaining(r):
                raise ConvergenceError(
                    f"constant tail factor {g[i, j]} at entry ({i}, {j}) has "
                    "modulus 1 and is not 1: the tail product does not converge",
                    last_partial=g,
                    tail_estimate=float(abs(abs(g[i, j]) - 1.0)),
                )

        return cls(
            d, d_I, None, geometry, tail=FarFieldTail(dom.pattern, remaining, exact_beyond=-1), label=label,
            radial=lambda start, stop: np.broadcast_to(unit, (stop - start, d_I, d)),
        )


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------


def _check_local_operator(family: FiberFamily, b, name: str = "observable") -> np.ndarray:
    m = as_cmatrix(b, name)
    if m.shape != (family.d, family.d):
        raise DimensionError(
            f"{name}: shape {m.shape}, expected {(family.d, family.d)}"
        )
    return m


def _kernel_stack(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The kernel of one site on a stack of observables.

    ``v`` is the site's (d_I, d) vector array and ``m`` has shape
    (..., d, d); the result has shape (..., d_I, d_I), and its entry
    [..., i, j] is Tr(h_i h_j* m[...]).  No input is checked here.
    """
    # rows are h_i:  (v* m v^T)[..., j, i] = <h_j, m h_i>  ->  swap the last two
    return (v.conj() @ m @ v.T).swapaxes(-1, -2)


def kernel_matrix(family: FiberFamily, site, b) -> np.ndarray:
    """The d_I x d_I matrix with (i, j) entry Tr(h_i h_j* b).

    Linear in b; at b = identity it reduces to ``family.gram(site)``.
    """
    m = _check_local_operator(family, b)
    return _kernel_stack(family.vectors(site), m)


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


def choi_matrix(family: FiberFamily, site) -> np.ndarray:
    """Choi matrix of the per-site kernel map on the standard fiber basis.

    The output is (d*d_I) x (d*d_I) with row index (p, i) and column
    index (q, j), entry Tr(h_j h_i* e_p e_q*) — the index pairing under
    which positivity of this matrix is equivalent to complete positivity
    of the kernel map.  Built by evaluating the map on the d² matrix
    units e_p e_q*, not from a closed form, so it genuinely exercises the
    kernel; the units are stacked a few rows p at a time (at most
    ``CHOI_UNIT_ENTRIES`` entries, or one row), so that the memory a call
    takes beyond its result stays small at any d.
    """
    d, d_I = family.d, family.d_I
    v = family.vectors(site)
    out = np.empty((d, d_I, d, d_I), dtype=np.complex128)
    step = max(1, CHOI_UNIT_ENTRIES // d**3)  # rows p per stack
    for p in range(0, d, step):
        rows = min(step, d - p)
        # units[a, q] = e_{p+a} e_q*
        units = np.eye(rows * d, d * d, k=p * d).reshape(rows, d, d, d)
        # block (p, q) is the transpose of the kernel matrix at e_p e_q*
        out[p : p + rows] = _kernel_stack(v, units).transpose(0, 3, 1, 2)
    return out.reshape(d * d_I, d * d_I)


def certify_cp(family: FiberFamily, site, tol: float = 1e-10) -> PsdReport:
    """PSD-certify the Choi matrix of the site's kernel map: the map is
    completely positive when the report's ``is_psd`` holds."""
    return psd_report(choi_matrix(family, site), tol)


def kernel_gram_matrix(family: FiberFamily, site, bs) -> np.ndarray:
    """Positivity matrix of the kernel over a tuple of observables.

    For observables b_1, ..., b_n returns the (d_I*n) x (d_I*n) matrix
    with entry at row (j, h), column (i, k) equal to
    Tr(h_i h_j* b_h* b_k), composite index (i, k) -> i*n + k.  It equals
    the Gram matrix of the vectors {b_k h_i} and is therefore PSD; it is
    the one-site case of ``product_kernel_gram_matrix``.
    """
    bs = list(bs)
    if not bs:
        raise ValidationError("kernel_gram_matrix: empty observable list")
    return product_kernel_gram_matrix(family, [site], [(b,) for b in bs])


def schur_product(seed: np.ndarray, factors) -> np.ndarray:
    """``seed`` times each of ``factors`` in turn, entrywise: the one
    running site product.  ``product_kernel_matrix`` and
    ``transfer_matrix`` are its all-ones-seeded forms, so a caller that
    holds a region's site kernels gets their product bit for bit, and
    the product of a larger region by seeding with a smaller one's."""
    for f in factors:
        seed = seed * f
    return seed


def product_kernel_matrix(family: FiberFamily, sites, bs) -> np.ndarray:
    """Entrywise product of per-site kernel matrices over distinct sites.

    This is the matrix form of the multi-site kernel on elementary
    tensor observables; a single site reduces to ``kernel_matrix`` and an
    empty site list gives the all-ones matrix (the empty product).
    """
    sites = list(sites)
    bs = list(bs)
    if len(sites) != len(bs):
        raise DimensionError(
            f"product_kernel_matrix: {len(sites)} sites vs {len(bs)} observables"
        )
    if len(set(sites)) != len(sites):
        raise ValidationError("product_kernel_matrix: duplicate sites")
    return schur_product(
        np.ones((family.d_I, family.d_I), dtype=np.complex128),
        (kernel_matrix(family, x, b) for x, b in zip(sites, bs)),
    )


def transfer_matrix(family: FiberFamily, region, subregion) -> np.ndarray:
    """Entrywise product of overlaps over region minus subregion.

    Equal regions give the all-ones matrix (empty product).
    """
    region = tuple(region)
    subregion = tuple(subregion)
    lattice.require_inside(subregion, region)
    sub = set(subregion)
    return schur_product(
        np.ones((family.d_I, family.d_I), dtype=np.complex128),
        (family.gram(x) for x in region if x not in sub),
    )


def product_kernel_gram_matrix(family: FiberFamily, sites, obs_tuples) -> np.ndarray:
    """Positivity matrix of a multi-site kernel over observable tuples.

    ``obs_tuples[h]`` holds one d x d factor per site in ``sites``; the
    entry at row (j, h), column (i, k) is the product over sites of
    Tr(h_i h_j* b_{x,h}* b_{x,k}).  Positivity of this matrix for every
    choice of tuples is what makes the multi-site map a kernel of the
    same class as its single-site factors.

    The tuples are stacked once; per site, in site order, all n² products
    b_{x,h}* b_{x,k} are formed in one broadcast matmul and the kernel is
    evaluated on that stack, so the running entrywise product takes the
    same factors in the same order as ``product_kernel_matrix`` would.
    """
    sites = list(sites)
    tuples = [
        [_check_local_operator(family, b, f"observable {k}") for b in t]
        for k, t in enumerate(obs_tuples)
    ]
    if not tuples:
        raise ValidationError("product_kernel_gram_matrix: empty tuple list")
    for t in tuples:
        if len(t) != len(sites):
            raise DimensionError(
                f"observable tuple has {len(t)} factors for {len(sites)} sites"
            )
    if len(set(sites)) != len(sites):
        raise ValidationError("product_kernel_gram_matrix: duplicate sites")
    n = len(tuples)
    d, d_I = family.d, family.d_I
    # the reshape gives an empty site list its (n, 0, d, d) shape
    stack = np.array(tuples, dtype=np.complex128).reshape(n, len(sites), d, d)
    prod = np.ones((n, n, d_I, d_I), dtype=np.complex128)
    for s, x in enumerate(sites):
        b = stack[:, s]
        # bs[h, k] = b_{x,h}* b_{x,k}
        bs = b.conj().swapaxes(-1, -2)[:, None] @ b[None, :]
        if not np.isfinite(bs).all():  # finite factors whose product overflows
            h, k = np.argwhere(~np.isfinite(bs).all(axis=(-2, -1)))[0].tolist()
            raise ValidationError(
                f"observable tuples ({h}, {k}): the product of their factors at site "
                f"{x!r} has non-finite entries"
            )
        prod = prod * _kernel_stack(family.vectors(x), bs)
    # prod[h, k, i, j] lands at row (j, h), column (i, k)
    return prod.transpose(3, 0, 2, 1).reshape(d_I * n, d_I * n)
