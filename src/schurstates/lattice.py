"""Integer-lattice geometry in the 1-norm.

Sites of the nu-dimensional lattice are tuples of ints; the metric is
|z| = |z_1| + ... + |z_nu|.  Shells and balls are enumerated in a fixed
lexicographic order so every caller sees the same site sequence.

Shells are emitted directly (first coordinate, then the shell of the
remaining norm in one dimension less), never by filtering the
(2r+1)^nu cube.  Each (nu, r) shell is built once per process and kept
as a tuple in the cache of ``shell_sites``, which this module owns; the
cache holds at most ``SHELL_CACHE_SIZE`` shells, least recently used
first out.  ``shell`` and ``ball`` hand out fresh lists built from it.
"""

from __future__ import annotations

import functools
import itertools
import math

#: Most (nu, r) shells ``shell_sites`` keeps at once.
SHELL_CACHE_SIZE = 1024


def norm1(site) -> int:
    return sum(abs(int(c)) for c in site)


def shell_size(nu: int, r: int) -> int:
    """Number of lattice sites with 1-norm exactly r (exact count)."""
    if r < 0:
        return 0
    if r == 0:
        return 1
    # choose k nonzero coordinates, sign them, compose r into k positive parts
    return sum(
        (2**k) * math.comb(nu, k) * math.comb(r - 1, k - 1)
        for k in range(1, min(nu, r) + 1)
    )


@functools.lru_cache(maxsize=SHELL_CACHE_SIZE)
def shell_sites(nu: int, r: int) -> tuple[tuple[int, ...], ...]:
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
        for rest in shell_sites(nu - 1, r - abs(c))
    )


def shell(nu: int, r: int) -> list[tuple[int, ...]]:
    """Sites with 1-norm exactly r, lexicographically ordered."""
    return list(shell_sites(nu, r))


def ball(nu: int, r: int) -> list[tuple[int, ...]]:
    """Sites with 1-norm at most r, lexicographically ordered."""
    return sorted(itertools.chain.from_iterable(shell_sites(nu, k) for k in range(r + 1)))


def ball_size(nu: int, r: int) -> int:
    return sum(shell_size(nu, k) for k in range(r + 1))
