"""A boundary walk reads an infinite geometry only through its spheres:
``check``, ``distance``, ``sphere``, ``sphere_sizes`` and ``blocks``.
A k-armed star, which is no integer lattice, carries a radial family
here, and its shell walk is checked against the site walk and against
the closed-form product of its sphere Gram matrices."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from schurstates.errors import ValidationError
from schurstates.kernel import FarFieldTail, FiberFamily, tail_remaining
from schurstates.limit import boundary_matrix

SRC = Path(__file__).resolve().parent.parent / "src" / "schurstates"

#: The 1-norm primitives that ``lattice.Zd`` serves its spheres from.
PRIMITIVES = {"norm1", "shell", "shell_sizes"}

#: Past this radius every fiber tuple is exactly the base tuple, so its
#: Gram matrix is exactly all ones and the certificate's mass ends there.
QUIET = 60


class Star:
    """The star graph with k arms of unbounded length: the centre (0, 0)
    is sphere 0, and sphere r >= 1 holds the k sites (arm, r)."""

    finite = False

    def __init__(self, k: int):
        self.k = k

    def check(self, site) -> None:
        if not (
            isinstance(site, tuple)
            and len(site) == 2
            and all(isinstance(c, int) for c in site)
            and 0 <= site[0] < self.k
            and site[1] >= 0
            and (site[1] > 0 or site[0] == 0)
        ):
            raise ValidationError(f"site {site!r} is not on the {self.k}-armed star")

    def distance(self, site) -> int:
        return site[1]

    def sphere(self, r: int) -> tuple:
        if r < 0:
            return ()
        return ((0, 0),) if r == 0 else tuple((arm, r) for arm in range(self.k))

    def sphere_sizes(self, start: int, stop: int) -> np.ndarray:
        return np.array([len(self.sphere(r)) for r in range(start, stop)], dtype=float)

    def blocks(self):
        for r in itertools.count(-1):
            yield r, self.sphere(r)


BASE = np.array([1.0, 0.0], dtype=complex)
DIRECTIONS = np.array([[1j, 1.0], [-0.6j, 0.25]])


def star_vectors(start: int, stop: int) -> np.ndarray:
    """The unit fiber tuples of radii start, ..., stop - 1: the base
    perturbed by 0.4 * 0.5^r along each direction, and the base itself
    past ``QUIET``."""
    eps = np.array([0.4 * 0.5**r if r <= QUIET else 0.0 for r in range(start, stop)])
    vecs = BASE + eps[:, None, None] * DIRECTIONS
    return vecs / np.linalg.norm(vecs, axis=2)[:, :, None]


def star_grams(stop: int) -> np.ndarray:
    v = star_vectors(0, stop)
    return v @ v.conj().swapaxes(-1, -2)


def star_family(k: int) -> FiberFamily:
    star = Star(k)
    masses = star.sphere_sizes(0, QUIET + 1) * np.abs(star_grams(QUIET + 1) - 1.0).max(axis=(-2, -1))
    tail = FarFieldTail(np.ones((2, 2), dtype=bool), tail_remaining(masses.tolist()))
    return FiberFamily(2, 2, None, star, tail=tail, radial=star_vectors)


def closed_form(star: Star, region) -> np.ndarray:
    """prod_r G_r^(n_r), n_r the sites of sphere r outside ``region``."""
    grams = star_grams(QUIET + 1)
    p = np.ones((2, 2), dtype=complex)
    for r in range(QUIET + 1):
        n = len([x for x in star.sphere(r) if x not in region])
        p = p * grams[r] ** n
    return p


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize(
    "region",
    [(), ((0, 0),), ((0, 1),), ((0, 0), (0, 2), (0, 7)), ((0, 3), (0, 70))],
    ids=["empty", "centre", "arm0-r1", "arm0-spread", "past-quiet"],
)
def test_shell_walk_needs_only_spheres(k, region):
    family = star_family(k)
    star = family.geometry
    region = tuple((arm % k, r) for arm, r in region)
    shells = boundary_matrix(family, region, tail_tol=1e-14)
    sites = boundary_matrix(family, region, exhaustion=star, tail_tol=1e-14)
    assert shells.rigorous and sites.rigorous
    assert shells.sites_consumed == sites.sites_consumed
    assert np.max(np.abs(shells.matrix - sites.matrix)) <= 1e-12
    assert np.max(np.abs(shells.matrix - closed_form(star, region))) <= 1e-12


def test_star_sites_are_checked():
    family = star_family(3)
    assert np.allclose(family.gram((2, 4)), star_grams(5)[4])
    for site in [(3, 1), (1, 0), (0, -1), (0,)]:
        with pytest.raises(ValidationError, match="is not on the 3-armed star"):
            family.gram(site)
    with pytest.raises(ValidationError, match="is not on the 3-armed star"):
        boundary_matrix(family, ((3, 1),))


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "lattice.py"))
def test_only_lattice_reads_the_shell_primitives(module):
    # every other module asks a geometry for its spheres
    tree = ast.parse((SRC / module).read_text())
    used = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "lattice" and node.attr in PRIMITIVES
    ] + [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("lattice")
        for alias in node.names if alias.name in PRIMITIVES
    ]
    assert used == []
