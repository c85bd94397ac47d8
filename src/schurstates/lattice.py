"""Site geometries, and integer-lattice shells in the 1-norm.

A geometry owns what depends on what a site is: checking it, parsing it
from ``--region``, and the order in which boundary products walk the
sites (``blocks``).  ``Zd(nu)`` is the
integer lattice, walked in 1-norm shells from the empty shell at radius
-1; ``Sites`` is a finite list, walked one site per block as declared.
An infinite geometry is its spheres, all that the walk, radial families,
embeddings and samplers read of it: ``distance(site)``, ``sphere(r)`` and
``sphere_sizes``, which ``Zd`` serves from this module's 1-norm primitives.

Shells are lexicographically ordered and emitted directly (first
coordinate, then the shell of the remaining norm in one dimension less),
never by filtering the (2r+1)^nu cube.  Each (nu, r) shell is built once
per process and kept, as an immutable tuple, in the cache of ``shell``,
which this module owns (at most ``SHELL_CACHE_SIZE`` shells, least
recently used first out); ``Zd.blocks`` reads it.

``require_inside`` is the one check that a region holds the sites an
operation places in it, whatever the geometry.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import re
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GeometryError, ValidationError

#: Most (nu, r) shells ``shell`` keeps at once, and most ranges of
#: shell sizes ``shell_sizes`` keeps.
SHELL_CACHE_SIZE = 1024

#: Per lattice dimension nu, the furthest radius r that ``shell_sizes``
#: has counted to within the float range, as (r, S(r - 1), S(r)), where
#: its recurrence resumes, so that a walk outward counts each radius once.
_RESUME: dict = {}

#: A ``--region`` coordinate: optional sign, then ASCII digits.
INTEGER = re.compile(r"[+-]?[0-9]+")

#: Site coordinate types; ``int`` first, as the common case.
INTEGRAL = (int, numbers.Integral)


def require_inside(sites, region) -> None:
    """``GeometryError`` naming every site of ``sites`` that ``region`` lacks."""
    inside = set(region)
    missing = [s for s in sites if s not in inside]
    if missing:
        raise GeometryError(f"observable sites {missing!r} outside region")


def norm1(site) -> int:
    return sum(abs(int(c)) for c in site)


@functools.lru_cache(maxsize=SHELL_CACHE_SIZE)
def shell_sizes(nu: int, start: int, stop: int) -> np.ndarray:
    """The numbers S(r) of sites of Z^nu with 1-norm r, for r = start, ...,
    stop - 1, as one read-only float64 array (cached): 0 at a negative r,
    exact below 2**53, and ``inf`` from the first count past the float
    range on, since the counts grow with r.  Python ints from the exact
    recurrence r S(r) = 2 nu S(r - 1) + (r - 2) S(r - 2), S(0) = 1 and
    S(-1) = 0, resumed at ``_RESUME`` if that is no further out than start."""
    r, before, size = _RESUME.get(nu, (0, 0, 1))
    if r > max(start, 0):
        r, before, size = 0, 0, 1
    sizes = np.full(stop - start, math.inf)
    sizes[: max(0, -start)] = 0.0
    while r < stop and size <= sys.float_info.max:
        if r >= start:
            sizes[r - start] = size
        r += 1
        before, size = size, (2 * nu * size + (r - 2) * before) // r
    if r > _RESUME.get(nu, (0,))[0]:
        _RESUME[nu] = (r, before, size)
    sizes.setflags(write=False)
    return sizes


@functools.lru_cache(maxsize=SHELL_CACHE_SIZE)
def shell(nu: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Sites with 1-norm exactly r, lexicographically ordered (cached)."""
    if nu < 1:
        raise ValueError(f"lattice dimension must be >= 1, got {nu}")
    if r < 0:
        return ()
    if nu == 1:
        return ((0,),) if r == 0 else ((-r,), (r,))
    return tuple(
        (c,) + rest
        for c in range(-r, r + 1)
        for rest in shell(nu - 1, r - abs(c))
    )


@dataclass(frozen=True)
class Zd:
    """The nu-dimensional integer lattice."""

    nu: int
    finite = False

    def __post_init__(self):
        if self.nu < 1:
            raise ValidationError(f"lattice dimension must be >= 1, got {self.nu}")

    def check(self, site) -> None:
        """Refuse anything but a nu-tuple of integers (numpy's included)."""
        if not (
            isinstance(site, tuple)
            and len(site) == self.nu
            and all(map(isinstance, site, itertools.repeat(INTEGRAL, self.nu)))
        ):
            raise ValidationError(f"site {site!r} is not a {self.nu}-tuple of ints")

    def parse(self, text: str) -> tuple:
        """A site from comma-separated coordinates, as in ``--region``."""
        coords = [c.strip() for c in text.split(",")]
        if len(coords) != self.nu or not all(INTEGER.fullmatch(c) for c in coords):
            raise ValidationError(
                f"region site {text!r}: expected {self.nu} integer coordinates"
            )
        return tuple(int(c) for c in coords)

    def distance(self, site):
        """The 1-norm of a site, or of each row of an (N, nu) integer array."""
        return np.abs(site).sum(axis=-1) if isinstance(site, np.ndarray) else norm1(site)

    def sphere(self, r: int) -> tuple:
        """``shell(nu, r)``, looked up as a module attribute at each call."""
        return shell(self.nu, r)

    def sphere_sizes(self, start: int, stop: int) -> np.ndarray:
        """The site counts of spheres start, ..., stop - 1 (``shell_sizes``)."""
        return shell_sizes(self.nu, start, stop)

    def walk_order(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """(order, radii) of sites given as (N, nu) array rows or a list: each
        site's 1-norm, as int64 (a coordinate clipped where it would leave
        int64 lies beyond any walk), and the sites by 1-norm, then in each
        shell's lexicographic order (one ``np.lexsort``)."""
        if not isinstance(coords, np.ndarray):
            coords = np.array(coords, dtype=object).reshape(len(coords), self.nu)
        bound = np.iinfo(np.int64).max // self.nu
        clipped = np.clip(coords, -bound, bound).astype(np.int64)
        radii = self.distance(clipped)
        return np.lexsort((*clipped.T[::-1], radii)), radii

    def blocks(self) -> Iterator[tuple[int, tuple]]:
        """(radius, sphere) pairs from radius -1 (the empty sphere) up."""
        for r in itertools.count(-1):
            yield r, self.sphere(r)

    def first(self, n: int) -> list:
        """The first n sites in walk order."""
        sites = itertools.chain.from_iterable(block for _, block in self.blocks())
        return list(itertools.islice(sites, n))


@dataclass(frozen=True)
class Sites:
    """A finite site list; site names are strings or ints."""

    sites: tuple
    finite = True

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "site_set", frozenset(self.sites))
        if len(self.site_set) != len(self.sites):
            raise ValidationError("site list contains duplicates")

    def check(self, site) -> None:
        if site not in self.site_set:
            raise ValidationError(f"unknown site {site!r}")

    def parse(self, text: str):
        """A declared site from ``--region``: a string site by its text, an
        int site by its digits."""
        if text in self.site_set:
            return text
        site = next((s for s in self.sites if str(s) == text), text)
        self.check(site)
        return site

    def blocks(self) -> Iterator[tuple[int, tuple]]:
        """(position, (site,)) pairs in declared order."""
        return ((k, (s,)) for k, s in enumerate(self.sites))

    def first(self, n: int) -> list:
        """The first n sites (all of them if there are fewer)."""
        return list(self.sites[:n])
