"""Shells, and the test helpers' balls, against the cube filter they
replaced, kept here as the oracle: every site of the (2r+1)^nu cube,
filtered by 1-norm and sorted."""

import itertools

import pytest

from schurstates import lattice
from schurstates.errors import GeometryError, ValidationError

from conftest import ball, ball_size


def cube_filter(nu, r, keep):
    if r < 0:
        return []
    return sorted(
        z for z in itertools.product(range(-r, r + 1), repeat=nu) if keep(lattice.norm1(z))
    )


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
@pytest.mark.parametrize("r", range(-1, 9))
class TestAgainstCubeFilter:
    def test_shell(self, nu, r):
        sites = lattice.shell(nu, r)
        assert sites == tuple(cube_filter(nu, r, lambda n: n == r))
        assert len(sites) == lattice.shell_size(nu, r)

    def test_ball(self, nu, r):
        sites = ball(nu, r)
        assert sites == cube_filter(nu, r, lambda n: n <= r)
        assert len(sites) == ball_size(nu, r)


def test_negative_radius_is_empty():
    assert lattice.shell(1, -1) == ()
    assert lattice.shell(3, -2) == ()
    assert ball(2, -1) == []


def test_dimension_below_one_is_rejected():
    with pytest.raises(ValueError, match="dimension"):
        lattice.shell(0, 1)


def test_lattice_dimension_below_one_is_refused():
    with pytest.raises(ValidationError, match=r"^lattice dimension must be >= 1, got 0$"):
        lattice.Zd(0)


class TestRequireInside:
    def test_contained_sites_pass(self):
        lattice.require_inside(("b", "a"), ("a", "b", "c"))
        lattice.require_inside((), ())
        lattice.require_inside([(0, 1)], iter([(1, 0), (0, 1)]))

    def test_names_every_missing_site_in_order(self):
        with pytest.raises(
            GeometryError, match=r"^observable sites \['d', 'b'\] outside region$"
        ):
            lattice.require_inside(("d", "a", "b"), ("a", "c"))
        with pytest.raises(GeometryError, match=r"^observable sites \[\(0,\)\] outside region$"):
            lattice.require_inside([(0,), (1,)], [(1,), (2,)])


def test_shell_cache_is_bounded():
    assert lattice.shell.cache_info().maxsize == lattice.SHELL_CACHE_SIZE
    # every caller shares one immutable tuple per (nu, r), so none of them
    # can change what the next one reads
    first = lattice.shell(2, 5)
    assert first is lattice.shell(2, 5)
    assert isinstance(first, tuple) and all(isinstance(s, tuple) for s in first)
