"""Shells, and the test helpers' balls, against the cube filter they
replaced, kept here as the oracle: every site of the (2r+1)^nu cube,
filtered by 1-norm and sorted."""

import itertools
import math
import sys
import time

import pytest

from schurstates import lattice
from schurstates.errors import GeometryError, ValidationError

from conftest import ball, ball_size
from oracles import shell_size


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
        assert len(sites) == shell_size(nu, r)

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


@pytest.mark.parametrize("nu", [1, 2, 3, 7, 50, 400])
def test_shell_sizes_are_the_closed_form(nu):
    # the recurrence, cold and resumed at any start, against the closed
    # form; a count past the float range reads as inf
    def want(start, stop):
        counts = (shell_size(nu, r) for r in range(start, stop))
        return [float(n) if n <= sys.float_info.max else math.inf for n in counts]

    lattice.shell_sizes.cache_clear()
    lattice._RESUME.pop(nu, None)
    assert lattice.shell_sizes(nu, -2, 300).tolist() == want(-2, 300)
    for start, stop in ((0, 1), (5, 64), (64, 128), (250, 300), (299, 299)):
        lattice.shell_sizes.cache_clear()
        assert lattice.shell_sizes(nu, start, stop).tolist() == want(start, stop)
    assert not lattice.shell_sizes(nu, 0, 10).flags.writeable


def test_cold_shell_sizes_past_the_float_range_are_fast():
    lattice.shell_sizes.cache_clear()
    lattice._RESUME.pop(400, None)
    t0 = time.perf_counter()
    sizes = lattice.shell_sizes(400, 0, 512)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 0.01
    assert sizes.tolist() == [
        float(n) if n <= sys.float_info.max else math.inf for n in map(shell_size, [400] * 512, range(512))
    ]
