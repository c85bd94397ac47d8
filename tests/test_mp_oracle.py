"""The README mixing scan and limit against a 50-digit recomputation.

The oracle takes the family's own float64 vectors, one array per 1-norm
radius, and forms every product in 50-digit arithmetic: the complement
product of a region is prod_r G_r^(n_r - k_r) with k_r the region's
sites in shell r, and the state is normalized by dividing every value by
the 50-digit total weight, as the engine divides by its walked one.  So
it measures the float64 rounding and the walk's truncation error of the
engine, not a model error.
"""

from pathlib import Path

import json

import numpy as np
import pytest

from schurstates import lattice
from schurstates.cli import main
from schurstates.limit import boundary_matrix
from schurstates.mixing import decaying_perturbation_family
from schurstates.modelfile import load_model, load_observable

from conftest import ball_size

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"
GOLDEN = REPO / "tests" / "data" / "mixing_scan_perturbed_z2.csv"

T_LIST = (5, 10, 20, 40)
TAIL_TOL = 1e-14
DIGITS = 50
#: Past this radius every overlap is 1 to 60 digits (eps_r = 6e-7 * 0.78^r).
R_EXACT = 600


def mp_matrix(a) -> list:
    """A numpy complex array as nested lists of exact mpc values."""
    return [[mpmath.mpc(complex(z)) for z in row] for row in np.atleast_2d(a)]


def mp_gram(v) -> list:
    """G[i][j] = <v_j, v_i>, exact for float64 rows at 50 digits."""
    return [[mpmath.fsum(a * mpmath.conj(b) for a, b in zip(vi, vj)) for vj in v] for vi in v]


def entrywise(a, b) -> list:
    return [[x * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ball_product(grams, nu: int) -> list:
    """prod_r G_r^(n_r) entrywise over the shells r = 0, 1, ... of ``grams``."""
    d_I = len(grams[0])
    out = [[mpmath.mpc(1)] * d_I for _ in range(d_I)]
    for r, g in enumerate(grams):
        n = lattice.shell_size(nu, r)
        out = entrywise(out, [[z**n for z in row] for row in g])
    return out


def total(m) -> "mpmath.mpc":
    return mpmath.fsum(x for row in m for x in row)


def read_observable(name):
    obs = load_observable(MODELS / name, lattice.Zd(2))
    return list(obs.region), [mp_matrix(f) for f in obs.factors]


class ExactScan:
    """50-digit limit values of a radial family, exactly normalized."""

    def __init__(self, family, radius: int):
        self.nu = family.geometry.nu
        pad = (0,) * (self.nu - 1)
        # the family's own vectors
        self.vectors = [mp_matrix(family.vectors((r,) + pad)) for r in range(radius + 1)]
        self.grams = [mp_gram(v) for v in self.vectors]
        self.everything = ball_product(self.grams, self.nu)
        self.total = total(self.everything)

    def complement(self, region) -> list:
        """prod_r G_r^(n_r - k_r): the full product with each region
        site's overlap divided out (no overlap here is zero)."""
        out = self.everything
        for site in region:
            out = [
                [x / g for x, g in zip(row, grow)]
                for row, grow in zip(out, self.grams[lattice.norm1(site)])
            ]
        return out

    def local(self, region, factors) -> list:
        """prod_x Tr(h_i h_j* b_x) over the region."""
        d_I = len(self.grams[0])
        out = [[mpmath.mpc(1)] * d_I for _ in range(d_I)]
        for site, b in zip(region, factors):
            v = self.vectors[lattice.norm1(site)]
            k = [
                [
                    mpmath.fsum(
                        mpmath.conj(v[j][p]) * b[p][q] * v[i][q]
                        for p in range(len(b))
                        for q in range(len(b))
                    )
                    for j in range(d_I)
                ]
                for i in range(d_I)
            ]
            out = entrywise(out, k)
        return out

    def value(self, region, factors):
        """The normalized limit value and the sum of |local| entries."""
        m = self.local(region, factors)
        raw = mpmath.fsum(
            x * y for rm, rc in zip(m, self.complement(region)) for x, y in zip(rm, rc)
        )
        return raw / self.total, float(sum(abs(x) for row in m for x in row))


@pytest.fixture(scope="module")
def exact():
    with mp.workdps(DIGITS):
        return ExactScan(load_model(MODELS / "perturbed_z2.json").family(), R_EXACT)


def exact_gaps(exact):
    """(t, exact gap, tolerance) per clearance; the tolerance is the error
    the scan certifies: every boundary entry of the three limit values
    and of the normalization weight within the tail tolerance, weighted
    by the local products, plus 1e-15 roundoff."""
    a_region, a_factors = read_observable("observable_near.json")
    b_region, b_factors = read_observable("observable_far.json")
    radius = max(lattice.norm1(s) for s in b_region)
    d_I = len(exact.grams[0])
    out = []
    with mp.workdps(DIGITS):
        v_a, w_a = exact.value(a_region, a_factors)
        norm_err = d_I**2 * TAIL_TOL / abs(complex(exact.total))
        for t in T_LIST:
            moved = [(s[0] + t + 1 + radius,) + s[1:] for s in b_region]
            v_b, w_b = exact.value(moved, b_factors)
            v_j, w_j = exact.value(a_region + moved, a_factors + b_factors)
            tol = (
                TAIL_TOL * (w_j + abs(complex(v_a)) * w_b + abs(complex(v_b)) * w_a)
                + norm_err * (abs(complex(v_j)) + 2 * abs(complex(v_a * v_b)))
                + 1e-15
            )
            out.append((t, float(abs(v_j - v_a * v_b)), tol))
    return out


def test_golden_scan_within_certified_error_of_exact_gaps(exact):
    rows = GOLDEN.read_text().splitlines()[1:]
    golden = {int(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    for t, gap, tol in exact_gaps(exact):
        assert abs(golden[t] - gap) <= tol, (t, golden[t], gap, tol)


def test_golden_t40_gap_is_the_exact_one_to_four_digits(exact):
    # 50-digit t=40 gap 2.72533e-14: the scan cancels about 13 digits, and
    # the walked values keep 4 of the remaining ones
    rows = GOLDEN.read_text().splitlines()[1:]
    golden = {int(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    assert abs(golden[40] - 2.72533e-14) <= 1e-4 * 2.72533e-14


def test_limit_weight_and_psi_within_certified_error_of_exact(exact, tmp_path):
    # the README limit form on the perturbed model: Z within the d_I² tail
    # bounds of the empty region's entries, and psi = value / Z within the
    # observable's and Z's errors over Z, plus 1e-15 roundoff
    out = tmp_path / "limit.json"
    code = main([
        "limit", "--model", str(MODELS / "perturbed_z2.json"),
        "--observable", str(MODELS / "observable_near.json"), "--output", str(out),
    ])
    assert code == 0
    results = json.loads(out.read_text())["results"]
    tail_tol = 1e-12  # the limit command's default
    region, factors = read_observable("observable_near.json")
    d_I = len(exact.grams[0])
    with mp.workdps(DIGITS):
        psi, weight = exact.value(region, factors)
        z, psi = complex(exact.total), complex(psi)
    z_tol = d_I**2 * tail_tol
    assert abs(results["Z"] - z) <= z_tol
    psi_tol = (tail_tol * weight + abs(psi) * z_tol) / abs(z) + 1e-15
    assert abs(complex(*results["psi"]) - psi) <= psi_tol
    # the 50-digit values, recorded when this check was written
    assert [z, psi] == pytest.approx([2.5389997294223914, 0.7394870657107167], rel=1e-14)


def test_exact_gaps_reproduce(exact):
    # the 50-digit gaps of this oracle, recorded when it was written; a
    # change here means the oracle or the model file changed
    want = [
        1.6297034621940935e-10,
        4.7052372597126135e-11,
        3.9221800536807653e-12,
        2.725333019494936e-14,
    ]
    assert [gap for _, gap, _ in exact_gaps(exact)] == pytest.approx(want, rel=1e-12)


def test_shell_walk_total_is_closer_than_site_walk():
    # both walks multiply the same float64 Gram matrices over the same
    # ball; the 50-digit product of those matrices isolates the rounding
    # of the products themselves
    family = decaying_perturbation_family()
    shells = boundary_matrix(family, (), tail_tol=TAIL_TOL)
    sites = boundary_matrix(family, (), exhaustion=lattice.Zd(2), tail_tol=TAIL_TOL)
    assert shells.sites_consumed == sites.sites_consumed
    radius = next(r for r in range(1000) if ball_size(2, r) == shells.sites_consumed)
    with mp.workdps(DIGITS):
        grams = [mp_matrix(family.shell_gram(r)) for r in range(radius + 1)]
        exact = ball_product(grams, 2)
        exact_matrix = np.array([[complex(z) for z in row] for row in exact])
        errors = [
            abs(complex(complex(walk.matrix.sum()) - total(exact))) for walk in (shells, sites)
        ]
    assert errors[0] < errors[1], errors
    entry_errors = [np.max(np.abs(walk.matrix - exact_matrix)) for walk in (shells, sites)]
    assert entry_errors[0] < entry_errors[1], entry_errors
