"""Shells and balls against the cube filter they replaced, kept here as
the oracle: every site of the (2r+1)^nu cube, filtered by 1-norm and
sorted."""

import itertools

import pytest

from schurstates import lattice


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
        assert sites == cube_filter(nu, r, lambda n: n == r)
        assert len(sites) == lattice.shell_size(nu, r)

    def test_ball(self, nu, r):
        sites = lattice.ball(nu, r)
        assert sites == cube_filter(nu, r, lambda n: n <= r)
        assert len(sites) == lattice.ball_size(nu, r)


def test_negative_radius_is_empty():
    assert lattice.shell(1, -1) == []
    assert lattice.shell(3, -2) == []
    assert lattice.ball(2, -1) == []


def test_dimension_below_one_is_rejected():
    with pytest.raises(ValueError, match="dimension"):
        lattice.shell(0, 1)


def test_shell_hands_out_fresh_lists():
    first = lattice.shell(2, 3)
    first.clear()
    assert len(lattice.shell(2, 3)) == lattice.shell_size(2, 3)


def test_shell_cache_is_bounded():
    assert lattice.shell_sites.cache_info().maxsize == lattice.SHELL_CACHE_SIZE
    assert lattice.shell_sites(2, 5) is lattice.shell_sites(2, 5)
