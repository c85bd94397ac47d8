import inspect
import itertools
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schurstates import kernel as kernel_module
from schurstates import cli, lattice, limit, mixing
from schurstates.errors import (
    ConvergenceError,
    GeometryError,
    PreconditionError,
    ValidationError,
)
from schurstates.kernel import (
    SHELL_BLOCK,
    FiberFamily,
    kernel_matrix,
    product_kernel_matrix,
    tail_remaining,
)
from schurstates.limit import SITE_CAP, boundary_matrix, limit_state_eval, total_weight
from schurstates.modelfile import load_model, parse_model
from schurstates.mixing import (
    alpha_limit,
    decaying_perturbation_family,
    embed,
    mixing_gap,
    mixing_scan,
)
from schurstates.sampling import complex_gaussian, rng_from_seed
from schurstates.state import LocalObservable

from conftest import (
    ball,
    ball_size,
    gram_psd_matrix,
    perturbed_ball_product,
    rescaled_origin_family,
    shell_loop,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="module")
def eps_family():
    return decaying_perturbation_family()


@pytest.fixture(scope="module")
def obs_pair():
    a = LocalObservable(((0, 0),), (np.array([[0.7, 0.2], [0.2, 0.1]], dtype=complex),))
    b = LocalObservable(
        ((0, 0), (1, 0)),
        (
            np.array([[0.3, 0.1j], [-0.1j, 0.9]], dtype=complex),
            np.array([[1.0, 0.4], [0.4, 0.2]], dtype=complex),
        ),
    )
    return a, b


def orthonormal_homogeneous(nu=2):
    return FiberFamily.homogeneous(np.eye(2, dtype=complex), lattice.Zd(nu))


def alpha_gap(family, a, b, t, alpha, strategy="translate", seed=0):
    """|psi(a . transported b) - psi(a) alpha|, both values one-region
    ``limit_state_eval`` calls at the scan's tail tolerance, divided by
    the total weight Z."""
    far = LocalObservable.of_checked(embed(b.region, t, family.geometry, strategy=strategy, seed=seed), b.factors)
    joint = LocalObservable(a.region + far.region, a.factors + far.factors)
    z = total_weight(boundary_matrix(family, (), tail_tol=1e-14))
    return abs(limit_state_eval(family, joint, 1e-14) / z - limit_state_eval(family, a, 1e-14) / z * alpha)


class TestBall:
    def test_radius_zero(self):
        assert ball(2, 0) == [(0, 0)]

    def test_radius_one_z2(self):
        sites = ball(2, 1)
        assert len(sites) == 5
        assert sites == sorted(sites)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2, 4, 6])
    def test_counts_match_enumeration(self, nu, r):
        # brute-force count over the enclosing cube
        import itertools

        brute = sum(
            1
            for z in itertools.product(range(-r, r + 1), repeat=nu)
            if sum(abs(c) for c in z) <= r
        )
        assert len(ball(nu, r)) == brute
        assert ball_size(nu, r) == brute


class TestEmbed:
    def test_translate_single_site(self):
        image = embed([(0, 0)], 3, lattice.Zd(2), strategy="translate")
        assert image == ((4, 0),)

    def test_image_clears_ball(self):
        for t in (1, 4, 9):
            for strategy in ("translate", "random"):
                image = embed([(0, 0), (1, 0), (0, -1)], t, lattice.Zd(2), strategy=strategy, seed=7)
                assert min(lattice.norm1(z) for z in image) > t

    @seed(35)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        strategy=st.sampled_from(["translate", "random"]),
        nu=st.integers(1, 3),
        t=st.integers(0, 40),
        data=st.data(),
    )
    def test_image_is_a_placement_outside_the_ball(self, strategy, nu, t, data):
        # the image has the source's length, repeats no site and clears
        # the t-ball: what ``embed`` promises without checking it at run time
        coords = st.tuples(*[st.integers(-6, 6)] * nu)
        region = data.draw(st.lists(coords, min_size=1, max_size=6, unique=True))
        image = embed(region, t, lattice.Zd(nu), strategy=strategy, seed=data.draw(st.integers(0, 99)))
        assert len(image) == len(region)
        assert len(set(image)) == len(image)
        assert all(lattice.norm1(z) > t for z in image)

    def test_random_is_seed_deterministic(self):
        a = embed([(0, 0), (1, 0)], 5, lattice.Zd(2), strategy="random", seed=3)
        b = embed([(0, 0), (1, 0)], 5, lattice.Zd(2), strategy="random", seed=3)
        assert a == b

    def test_transport_carries_factors(self, obs_pair):
        _, b = obs_pair
        image = embed(b.region, 6, lattice.Zd(2))
        far = LocalObservable.of_checked(image, b.factors)
        assert far.region == image
        np.testing.assert_allclose(far.factors[0], b.factors[0])

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            embed([(0, 0)], 2, lattice.Zd(2), strategy="spiral")

    @pytest.mark.parametrize(
        "region, t, message",
        [
            ((), 2, "cannot embed an empty region"),
            (((0, 0), (1,)), 2, "site (1,) is not a 2-tuple of ints"),
            (((0, 0),), -1, "clearance must be nonnegative, got -1"),
        ],
    )
    def test_refused_input(self, region, t, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            embed(region, t, lattice.Zd(2))


class TestAlphaLimit:
    def test_eps_family_independent(self, eps_family, obs_pair):
        _, b = obs_pair
        rep = alpha_limit(eps_family, b)
        assert rep.independent
        assert rep.last_step <= 1e-8
        assert rep.spread <= 1e-8
        # base vector is e1: the limit factors are <h, b_y h> = b[0, 0]
        expected = complex(b.factors[0][0, 0] * b.factors[1][0, 0])
        assert rep.value == pytest.approx(expected, rel=1e-6)

    def test_identity_limit_is_one(self, eps_family):
        obs = LocalObservable.identity((((0, 0)), ((1, 0))), 2)
        rep = alpha_limit(eps_family, obs)
        assert rep.independent
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_non_cauchy_raises(self):
        # vectors flip with the first coordinate mod 3, so the transported
        # products at the default clearances (sites 21 and 41) disagree
        rot = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

        def provider(site):
            return np.eye(2, dtype=complex) if site[0] % 3 == 0 else rot

        fam = FiberFamily(2, 2, provider, lattice.Zd(2), tail=None)
        proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        obs = LocalObservable(((0, 0),), (proj,))
        from schurstates.errors import ConvergenceError

        with pytest.raises(ConvergenceError, match="not Cauchy"):
            alpha_limit(fam, obs)

    def test_orthonormal_model_dependent(self):
        fam = orthonormal_homogeneous()
        proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        obs = LocalObservable(((0, 0),), (proj,))
        rep = alpha_limit(fam, obs)
        assert not rep.independent
        assert rep.value is None

    def test_tolerance_scales_with_the_far_factors(self, obs_pair):
        # seeded PSD far factors at (0,0) and (1,0) scaled to operator
        # norm 3: the final Cauchy step is above the absolute 1e-8, and the
        # scan's alpha column is finite only because the tolerance is
        # 1e-8 times the product of the norms, 9; at norm 2 the step is
        # below 1e-8 either way
        fam = load_model(MODELS / "perturbed_z2.json").family()
        rng = rng_from_seed(1)
        factors = [gram_psd_matrix(rng, 2) for _ in range(2)]
        for norm, absolute in ((2, True), (3, False)):
            b = LocalObservable(
                ((0, 0), (1, 0)), tuple(norm * f / np.linalg.norm(f, 2) for f in factors)
            )
            rep = alpha_limit(fam, b)
            assert (rep.last_step <= mixing.DEFAULT_ALPHA_TOL) == absolute
            assert rep.last_step <= mixing.DEFAULT_ALPHA_TOL * norm**2
            assert rep.independent and rep.spread <= mixing.DEFAULT_ALPHA_TOL
            scan = mixing_scan(fam, obs_pair[0], b)
            assert scan.alpha_independent
            assert all(math.isfinite(row.alpha_mixing_gap) for row in scan.rows)

    def test_positive_on_positive(self, eps_family, rng):
        c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        square = c.conj().T @ c
        square = square / np.linalg.norm(square)
        obs = LocalObservable(((0, 0),), (square,))
        rep = alpha_limit(eps_family, obs)
        assert rep.independent
        assert rep.value.real >= -1e-10
        assert abs(rep.value.imag) <= 1e-8


class TestMixingGap:
    def test_single_index_family_factorizes(self):
        # one fiber vector per site, normalized total weight: the state
        # is a pure product state and every gap vanishes
        base = np.array([[1.0, 0.0]], dtype=complex)
        fam = FiberFamily.homogeneous(base, lattice.Zd(2))
        a = LocalObservable(((0, 0),), (np.array([[0.5, 0.1], [0.1, 0.25]], dtype=complex),))
        b = LocalObservable(((0, 0),), (np.array([[0.3, 0.0], [0.0, 0.8]], dtype=complex),))
        for t in (3, 8):
            assert mixing_gap(fam, a, b, t) <= 1e-12

    def test_identity_far_observable(self, eps_family, obs_pair):
        a, _ = obs_pair
        ident = LocalObservable.identity(((0, 0),), 2)
        assert mixing_gap(eps_family, a, ident, 8) <= 1e-10

    def test_near_region_must_fit(self, eps_family, obs_pair):
        a, b = obs_pair
        far_a = LocalObservable(((9, 9),), a.factors)
        with pytest.raises(GeometryError):
            mixing_gap(eps_family, far_a, b, 5)

    def test_gap_decreases(self, eps_family, obs_pair):
        a, b = obs_pair
        g5 = mixing_gap(eps_family, a, b, 5)
        g20 = mixing_gap(eps_family, a, b, 20)
        assert 0 < g20 < g5

    def test_strategy_independence(self, eps_family, obs_pair):
        a, b = obs_pair
        gt = mixing_gap(eps_family, a, b, 20, strategy="translate")
        gr = mixing_gap(eps_family, a, b, 20, strategy="random", seed=5)
        assert abs(gt - gr) <= 1e-8

    def test_site_list_family_refused(self):
        fam = FiberFamily.homogeneous(np.eye(2, dtype=complex), lattice.Sites(("a", "b")))
        a = LocalObservable.identity(("a",), 2)
        # the same refusal as the scan's
        for call in (lambda: mixing_gap(fam, a, a, 5), lambda: mixing_scan(fam, a, a, (5,))):
            with pytest.raises(PreconditionError, match="^tail limits require a lattice model$"):
                call()

    def test_triangle_inequality_vs_alpha(self, eps_family, obs_pair):
        a, b = obs_pair
        t = 10
        rep = alpha_limit(eps_family, b)
        g = mixing_gap(eps_family, a, b, t)
        ag = alpha_gap(eps_family, a, b, t, rep.value)
        far = LocalObservable.of_checked(embed(b.region, t, lattice.Zd(2)), b.factors)
        v_a = limit_state_eval(eps_family, a, tail_tol=1e-14)
        v_b = limit_state_eval(eps_family, far, tail_tol=1e-14)
        slack = abs(v_a) * abs(v_b - rep.value)
        assert abs(g - ag) <= slack + 1e-13


class TestAlphaMixingGap:
    def test_identity_far(self, eps_family, obs_pair):
        a, _ = obs_pair
        ident = LocalObservable.identity((((0, 0)), ((1, 0))), 2)
        (row,) = mixing_scan(eps_family, a, ident, t_list=(8,)).rows
        assert row.alpha_mixing_gap <= 1e-9


class TestBoundaryTailFactors:
    def test_embedded_region_boundary_approaches_plain(self, eps_family, obs_pair):
        # at large clearance, excluding the embedded region barely moves
        # the boundary of the near region, and the embedded region's own
        # boundary approaches the total weight
        a, b = obs_pair
        t = 40
        image = embed(b.region, t, lattice.Zd(2))
        joint_region = tuple(a.region) + image
        b_joint = boundary_matrix(eps_family, joint_region, tail_tol=1e-14).matrix
        b_near = boundary_matrix(eps_family, a.region, tail_tol=1e-14).matrix
        b_far = boundary_matrix(eps_family, image, tail_tol=1e-14).matrix
        b_total = boundary_matrix(eps_family, (), tail_tol=1e-14).matrix
        assert np.max(np.abs(b_joint - b_near)) <= 1e-8
        assert np.max(np.abs(b_far - b_total)) <= 1e-8
        # converged boundaries are entrywise limits of PSD products
        for m in (b_joint, b_near, b_far, b_total):
            eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            assert eigs[0] >= -1e-10 * max(1.0, float(np.max(np.abs(eigs))))


class TestMixingScan:
    def test_eps_family_profile(self, eps_family, obs_pair):
        a, b = obs_pair
        result = mixing_scan(eps_family, a, b, t_list=(5, 10, 20), strategies=("translate",))
        gaps = [r.mixing_gap for r in result.rows]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert result.alpha_independent
        assert result.decrease_fraction["translate"] == 1.0

    def test_non_cauchy_alpha_leaves_every_alpha_gap_missing(self, obs_pair):
        # a larger perturbation whose transported products are not Cauchy:
        # alpha has no limit, so every row's alpha gap is NaN
        fam = decaying_perturbation_family(nu=2, epsilon0=1e-3)
        a, b = obs_pair
        with pytest.raises(ConvergenceError, match="not Cauchy"):
            alpha_limit(fam, b)
        result = mixing_scan(fam, a, b)
        assert result.alpha_independent is False
        assert [r.t for r in result.rows] == list(mixing.DEFAULT_T_SEQUENCE)
        assert all(math.isnan(r.alpha_mixing_gap) for r in result.rows)
        assert all(math.isfinite(r.mixing_gap) for r in result.rows)

    def test_orthonormal_witness_constant(self):
        fam = orthonormal_homogeneous()
        proj0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        proj1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        a = LocalObservable(((0, 0),), (proj0,))
        b = LocalObservable(((0, 0),), (proj1,))
        result = mixing_scan(fam, a, b, t_list=(5, 10, 20), strategies=("translate",))
        gaps = [r.mixing_gap for r in result.rows]
        assert not result.alpha_independent
        assert all(np.isnan(r.alpha_mixing_gap) for r in result.rows)
        # the state is a correlated mixture at every distance: the gap
        # never decays
        assert min(gaps) >= 0.9 * max(gaps)
        assert min(gaps) > 0.1

    @pytest.mark.parametrize(
        "strategies, t_list, message",
        [
            (("translate", "translate"), (5, 10), "strategy 'translate' twice"),
            (("random", "translate", "random"), (5,), "strategy 'random' twice"),
            (("translate",), (5, 10, 5), "clearance 5 twice"),
        ],
    )
    def test_repeated_strategy_or_clearance_refused(self, eps_family, obs_pair, strategies, t_list, message):
        a, b = obs_pair
        with pytest.raises(ValidationError, match=message):
            mixing_scan(eps_family, a, b, t_list=t_list, strategies=strategies)

    @staticmethod
    def alpha_reference(family, obs, ts=mixing.DEFAULT_T_SEQUENCE):
        """The alpha report from the transported products at every
        clearance, each a ``product_kernel_matrix``, with the tolerance
        scaled by the product of the factors' operator norms past 1."""
        tol = mixing.DEFAULT_ALPHA_TOL * max(1.0, math.prod(np.linalg.norm(b, 2) for b in obs.factors))
        history = []
        for t in ts:
            history.append(product_kernel_matrix(family, embed(obs.region, t, family.geometry), obs.factors))
        steps = [float(np.max(np.abs(b - a))) for a, b in zip(history, history[1:])]
        assert steps[-1] <= tol
        limits = history[-1]
        spread = float(np.max(np.abs(limits - limits.ravel()[0])))
        return limits, spread <= tol, complex(limits.mean()), spread, steps[-1]

    def test_rows_match_one_region_evaluations(self, obs_pair):
        # the scan walks every region in one stacked call and forms each
        # kernel product once; a family that walks them one by one, with
        # every product formed afresh, must give the same gaps, bit for
        # bit, on Z^1 to Z^3, with and without alpha's clearances among
        # the rows, on both strategies: the gap column against
        # ``mixing_gap``, the alpha column against |psi(joint) - psi(a) alpha|
        a2, b2 = obs_pair
        for nu, decay in ((1, 0.78), (2, 0.78), (3, 0.2)):
            pad = (0,) * (nu - 1)
            a = LocalObservable(((0,) + pad,), a2.factors)
            b = LocalObservable(((0,) + pad, (1,) + pad), b2.factors)
            for t_list in ((5, 10, 20), (5, 10)):
                result = mixing_scan(
                    decaying_perturbation_family(nu=nu, decay=decay), a, b,
                    t_list=t_list, strategies=("translate", "random"), seed=3,
                )
                fresh = decaying_perturbation_family(nu=nu, decay=decay)
                report = alpha_limit(fresh, b)
                limits, *fields = self.alpha_reference(fresh, b)
                assert np.array_equal(report.limits, limits)
                assert [report.independent, report.value, report.spread, report.last_step] == fields
                assert report.independent and result.alpha_independent
                assert [(r.strategy, r.t) for r in result.rows] == [
                    (strategy, t) for strategy in ("translate", "random") for t in t_list
                ]
                for row in result.rows:
                    assert row.mixing_gap == mixing_gap(fresh, a, b, row.t, row.strategy, seed=3)
                    assert row.alpha_mixing_gap == alpha_gap(
                        fresh, a, b, row.t, report.value, row.strategy, seed=3
                    )

    @pytest.mark.parametrize(
        "t_list, strategies, formed",
        [
            # psi(a)'s one site, then two far sites per row; alpha's regions
            # at t = 20 and 40 are the translate rows' own
            ((5, 10, 20, 40), ("translate",), 1 + 4 * 2),
            ((5, 10, 20, 40), ("translate", "random"), 1 + 8 * 2),
            # no row at alpha's clearances: alpha forms its own four
            ((5, 10), ("translate",), 4 + 1 + 2 * 2),
        ],
    )
    def test_each_kernel_is_formed_once(self, eps_family, obs_pair, monkeypatch, t_list, strategies, formed):
        calls = []
        kernel = mixing.kernel_matrix

        def counting(family, x, b):
            calls.append(x)
            return kernel(family, x, b)

        for module in (mixing, kernel_module):
            monkeypatch.setattr(module, "kernel_matrix", counting)
        a, b = obs_pair
        mixing_scan(eps_family, a, b, t_list=t_list, strategies=strategies)
        assert len(calls) == formed
        if strategies == ("translate",):
            assert set(Counter(calls).values()) == {1}

    def test_alpha_reads_and_keeps_shared_kernels(self, eps_family, obs_pair):
        # the kernels of alpha's last two translated regions are formed
        # once and kept for the caller; those the caller holds are read
        _, b = obs_pair
        kernels = {}
        report = alpha_limit(eps_family, b, kernels=kernels)
        fars = [LocalObservable.of_checked(embed(b.region, t, lattice.Zd(2)), b.factors) for t in (20, 40)]
        assert list(kernels) == [far.region for far in fars]
        for far in fars:
            assert all(
                np.array_equal(k, kernel_matrix(eps_family, x, f))
                for k, x, f in zip(kernels[far.region], far.region, far.factors)
            )
        held = {region: [2 * k for k in ks] for region, ks in kernels.items()}
        doubled = alpha_limit(eps_family, b, kernels=held)
        assert np.array_equal(doubled.limits, 4 * report.limits)

    def test_later_row_geometry_fails_before_any_walk(self, obs_pair):
        # the near region fits the ball at t = 5 but not at t = 2
        fam = decaying_perturbation_family()
        a = LocalObservable(((3, 0),), obs_pair[0].factors)
        with pytest.raises(GeometryError, match="not inside the ball of radius 1"):
            mixing_scan(fam, a, obs_pair[1], t_list=(5, 2))
        assert fam._boundary_cache == {}


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"decay": 0.0}, "decay must lie in (0, 1), got 0.0"),
        ({"decay": 1.0}, "decay must lie in (0, 1), got 1.0"),
        ({"epsilon0": 0.0}, "epsilon0 must be positive, got 0.0"),
        ({"epsilon0": -1e-3}, "epsilon0 must be positive, got -0.001"),
        (
            {"base": np.ones(3), "directions": np.eye(2)},
            "base vector has shape (3,), directions expect dim 2",
        ),
        ({"directions": [1.0, 0.0]}, "directions form an array of shape (2,), expected (d_I, d)"),
        ({"epsilon0": math.inf}, "epsilon0 must be finite, got inf"),
        ({"near_amplitude": math.inf}, "near_amplitude must be finite, got inf"),
    ],
)
def test_perturbation_family_refuses(kwargs, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        decaying_perturbation_family(**kwargs)


class TestPerturbationFamilyCaches:
    """A fresh family with empty caches and the same radial data is the
    oracle of the family the constructor returns."""

    REGIONS = ((), ((0, 0),), ((0, 0), (1, 0)))

    def test_shared_caches_match_fresh_family(self):
        fam = decaying_perturbation_family()
        assert fam.table is None
        fresh = FiberFamily(fam.d, fam.d_I, None, fam.geometry, tail=fam.tail, radial=fam.radial)
        for region in self.REGIONS:
            got = boundary_matrix(fam, region, tail_tol=1e-14)
            want = boundary_matrix(fresh, region, tail_tol=1e-14)
            assert np.array_equal(got.matrix, want.matrix)
            assert (got.tail_bound, got.sites_consumed, got.rigorous) == (
                want.tail_bound, want.sites_consumed, want.rigorous,
            )
        for site in ((0, 0), (1, 0), (0, -7), (30, 2)):
            assert np.array_equal(fam.gram(site), fresh.gram(site))

    @pytest.fixture
    def builds(self, monkeypatch):
        """Per family constructed from here on: the (start, stop) of each
        ``radial`` call, in order, and how often each radius was
        validated (one row of a ``_squared`` stack)."""
        builds = []
        init = FiberFamily.__init__
        squared = FiberFamily._squared
        signature = inspect.signature(init)

        def counting_init(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            radial = bound.arguments["radial"]
            calls, validated = [], Counter()
            builds.append((calls, validated))
            bound.arguments["self"]._counts = validated

            def build_block(start, stop):
                calls.append((start, stop))
                return radial(start, stop)

            bound.arguments["radial"] = build_block
            init(*bound.args, **bound.kwargs)

        def counting_squared(self, stack, where):
            self._counts.update(where(k) for k in range(len(stack)))
            return squared(self, stack, where)

        monkeypatch.setattr(FiberFamily, "__init__", counting_init)
        monkeypatch.setattr(FiberFamily, "_squared", counting_squared)
        return builds

    def test_normalized_family_builds_each_radius_once(self, builds, monkeypatch):
        # loading the README model, which declares no normalization, walks
        # nothing and builds one family with no table; its mass table reads
        # the family's own first four blocks, built by one ``radial`` call
        # and validated once per radius, and is tabulated once
        walks = []
        walk = limit._walk

        def counting_walk(family, regions, *args):
            walks.append(list(regions))
            return walk(family, regions, *args)

        tables = []
        remaining_of = mixing.tail_remaining

        def counting_table(masses, beyond=0.0):
            tables.append(len(masses))
            return remaining_of(masses, beyond)

        monkeypatch.setattr(limit, "_walk", counting_walk)
        monkeypatch.setattr(mixing, "tail_remaining", counting_table)
        fam = load_model(MODELS / "perturbed_z2.json").family()
        assert walks == [] and len(tables) == 1 and fam.table is None
        ((calls, validated),) = builds
        first = range(4 * SHELL_BLOCK)
        assert calls == [(0, len(first))]
        assert validated == Counter(f"radius {r}" for r in first)
        # scan-like walks read those blocks and list no site of them
        region = ((1, 0), (0, -2))
        near = boundary_matrix(fam, region, tail_tol=1e-14)
        assert not fam._by_site
        other = boundary_matrix(fam, ((0, 0),), tail_tol=1e-14)
        for site in region:
            r = lattice.norm1(site)
            assert np.array_equal(fam.gram(site), fam.shell_grams(r // SHELL_BLOCK)[r % SHELL_BLOCK])
            assert np.shares_memory(fam.gram(site), fam.shell_grams(r // SHELL_BLOCK))
        assert set(fam._by_site) == set(region)
        # nothing is built again, and each walked block's powers once
        radius = max(
            next(r for r in range(1000) if ball_size(2, r) == w.sites_consumed + held)
            for w, held in ((near, len(region)), (other, 1))
        )
        assert radius < len(first)
        assert calls == [(0, len(first))]
        assert validated == Counter(f"radius {r}" for r in first)
        assert sorted(fam._powers) == list(range(radius // SHELL_BLOCK + 1))
        assert len(walks) == 2

    def test_readme_scan_builds_no_block(self, builds, monkeypatch, tmp_path):
        # after the load's one ``radial`` call, for radii 0-255, the README
        # scan builds no block, and the full-shell powers of blocks 0 and
        # 1 only, the blocks its walks reach
        spec = load_model(MODELS / "perturbed_z2.json")
        ((calls, _),) = builds
        assert calls == [(0, 4 * SHELL_BLOCK)]
        monkeypatch.setattr(cli, "load_model", lambda path: spec)
        code = cli.main(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--format", "csv", "--tmax", "40", "--tail-tol", "1e-14",
                "--output", str(tmp_path / "scan.csv"),
            ]
        )
        assert code == 0 and len(builds) == 1
        assert calls == [(0, 4 * SHELL_BLOCK)]
        assert sorted(spec.family()._powers) == [0, 1]

    def test_remaining_does_not_depend_on_call_order(self):
        fam = decaying_perturbation_family()
        radii = (60, 0, 30, 60)
        got = [fam.tail.remaining(r) for r in radii]
        want = [decaying_perturbation_family().tail.remaining(r) for r in radii]
        assert got == want


def _bits(a: np.ndarray) -> tuple:
    return a.shape, a.tobytes()


def _one_block_family(fam: FiberFamily) -> FiberFamily:
    """The oracle of a run build: a fresh family with the same radial
    data, whose blocks are built one at a time as a walk asks for them."""
    return FiberFamily(fam.d, fam.d_I, None, fam.geometry, tail=fam.tail, radial=fam.radial)


def _one_block_remaining(fam: FiberFamily):
    """A perturbed family's ``remaining`` from masses read one block at a
    time off a one-block family, outward to the first quiet shell past
    radius 3, the default near zone's edge."""
    ref, nu, masses = _one_block_family(fam), fam.geometry.nu, []
    for k in itertools.count():
        start = k * SHELL_BLOCK
        chunk = lattice.shell_sizes(nu, start, start + SHELL_BLOCK) * np.abs(
            ref.shell_grams(k) - 1.0
        ).max(axis=(-2, -1))
        radii = np.arange(start, start + SHELL_BLOCK)
        quiet = np.flatnonzero((radii > 3) & (chunk < 1e-30))
        if quiet.size:
            return tail_remaining(masses + chunk[: quiet[0] + 1].tolist(), 1e-28)
        masses += chunk.tolist()


class TestRunBuild:
    """Radial blocks built as one run are the blocks built one at a time,
    bit for bit."""

    RUN = 4

    @staticmethod
    def assert_blocks_match(fam, ref, blocks):
        for k in blocks:
            for got, want in zip(fam._block(k), ref._block(k)):
                assert _bits(got) == _bits(want)
                assert not got.flags.writeable
            assert _bits(fam.shell_powers(k)) == _bits(ref.shell_powers(k))

    @pytest.mark.parametrize("near_amplitude", [0.3, None])
    @pytest.mark.parametrize("decay", [0.5, 0.78, 0.95])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_perturbed_family(self, nu, decay, near_amplitude):
        fam = decaying_perturbation_family(nu=nu, decay=decay, near_amplitude=near_amplitude)
        assert sorted(fam._blocks) == list(range(self.RUN))
        ref = _one_block_family(fam)
        self.assert_blocks_match(fam, ref, range(self.RUN + 1))
        radii = np.arange(-1, 5001)
        want = _one_block_remaining(fam)(radii)
        assert _bits(fam.tail.remaining(radii)) == _bits(want)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: load_model(MODELS / "generator_decay.json").family(),
            lambda: orthonormal_homogeneous(nu=2),
        ],
        ids=["generators", "homogeneous"],
    )
    def test_stride_zero_family(self, make):
        fam = make()
        ref = _one_block_family(fam)
        run = fam.shell_gram_run(0, self.RUN)
        assert run.shape == (self.RUN * SHELL_BLOCK, fam.d_I, fam.d_I)
        assert run.strides[0] == 0  # one tuple, squared once
        assert sorted(fam._blocks) == list(range(self.RUN))
        assert _bits(np.ascontiguousarray(run)) == _bits(
            np.concatenate([ref.shell_grams(k) for k in range(self.RUN)])
        )
        self.assert_blocks_match(fam, ref, range(self.RUN))

    def test_far_site_builds_its_block_alone(self):
        fam = load_model(MODELS / "perturbed_z2.json").family()
        before = set(fam._blocks)
        fam.vectors((10**5, 0))
        assert set(fam._blocks) - before == {10**5 // SHELL_BLOCK}
        assert len(fam._blocks) == len(before) + 1


class TestTailTable:
    """The perturbed family's ``remaining`` against its shell masses,
    recomputed one radius at a time from the family's own vectors."""

    SHELL_SIZE = {1: lambda r: 2, 2: lambda r: 4 * r, 3: lambda r: 4 * r * r + 2}
    # a "normalized" case loads the family from a model file, whose every
    # value is divided by its walked weight Z; a "raw" case builds it
    CASES = [
        pytest.param(
            nu, decay, near, from_file,
            id=f"{nu}-{decay}-{'normalized' if from_file else 'raw'}" + ("" if near else "-no-near"),
        )
        for nu, decay, near, from_file in itertools.product(
            [1, 2, 3], [0.3, 0.78, 0.95, 0.99], [0.3, None], [False, True]
        )
    ]

    @staticmethod
    def model_family(nu, decay, near):
        """The family of a perturbed model file with default base and
        directions."""
        return parse_model({
            "lattice": {"kind": "zd", "nu": nu},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {
                "mode": "perturbed",
                "base": [[1.0, 0.0], [0.0, 0.0]],
                "directions": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -0.6], [0.25, 0.0]]],
                "decay": decay,
                "near_amplitude": near,
            },
        }).family()

    @pytest.mark.parametrize("nu, decay, near, from_file", CASES)
    def test_remaining_is_the_sum_of_later_shell_masses(self, nu, decay, near, from_file):
        # a model file loads the raw family without a walk, so its table
        # is the raw one, also where the empty region's walk needs more
        # sites than the cap (Z^3 at decay 0.99)
        if from_file:
            fam = self.model_family(nu, decay, near)
        else:
            fam = decaying_perturbation_family(nu=nu, decay=decay, near_amplitude=near)
        masses = []
        for r in itertools.count():
            v = fam.vectors((r,) + (0,) * (nu - 1))
            size = self.SHELL_SIZE[nu](r) if r else 1
            assert size == lattice.shell_size(nu, r)
            masses.append(size * float(np.max(np.abs(v @ v.conj().T - 1.0))))
            if r > 3 and masses[-1] < 1e-30:
                break
        # the stacked table holds these masses to the last bit, and ends
        # at the same radius
        oracle = tail_remaining(masses, 1e-28)
        radii = range(-1, len(masses) + 3)
        assert [fam.tail.remaining(r) for r in radii] == [oracle(r) for r in radii]
        assert fam.tail.remaining(len(masses) - 1) == 1e-28
        for r in range(-1, 301):
            # every shell past the last mass counts as the declared 1e-28
            want = math.fsum(masses[r + 1:] + [1e-28])
            got = fam.tail.remaining(r)
            assert got >= want
            if got > 1e-26:
                assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("near_radius", [SITE_CAP, 10**9])
    def test_near_zone_past_the_cap_takes_no_table(self, monkeypatch, near_radius):
        # no shell within the cap can be quiet, so the certificate is inf
        # from the start and no mass is tabulated
        tables = []

        def recording(masses, beyond=0.0):
            tables.append((list(masses), beyond))
            return tail_remaining(masses, beyond)

        monkeypatch.setattr(mixing, "tail_remaining", recording)
        fam = decaying_perturbation_family(near_radius=near_radius)
        assert tables == [([], math.inf)]
        assert fam.tail.remaining(np.array([-1, 0, SITE_CAP])).tolist() == [math.inf] * 3
        # so every walk, the empty region's for Z included, stops at the site cap
        with pytest.raises(ConvergenceError, match=f"within {SITE_CAP} sites"):
            boundary_matrix(fam, ())

    def test_quiet_near_zone_is_certified_past_it(self):
        # all-ones shells out to radius 10 must not end the mass table:
        # the perturbed shells past them carry an off-diagonal of 1.65e-5
        fam = decaying_perturbation_family(near_amplitude=0.0, near_radius=10)
        bm = boundary_matrix(fam, ())
        want = perturbed_ball_product(2, 0, 200, near_amplitude=0.0, near_radius=10)
        assert abs(want[0, 1] - 1.0) > 1e-5
        assert bm.rigorous
        assert np.max(np.abs(bm.matrix - want)) <= bm.tail_bound + 1e-13


class TestRadialWalk:
    """The shell walk of a radial family against its oracle, the site
    walk over an explicit lattice exhaustion."""

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_matches_site_walk(self, nu, normalize):
        fam = rescaled_origin_family(nu) if normalize else decaying_perturbation_family(nu=nu)
        origin = (0,) * nu
        e1 = (1,) + origin[1:]
        far = embed((origin, e1), 40, lattice.Zd(nu))
        for region in ((), (origin,), (e1, origin), far):
            shells = boundary_matrix(fam, region, tail_tol=1e-14)
            sites = boundary_matrix(fam, region, exhaustion=lattice.Zd(nu), tail_tol=1e-14)
            gap = float(np.max(np.abs(shells.matrix - sites.matrix)))
            assert gap <= shells.tail_bound + 1e-13, (region, gap)
            assert (shells.sites_consumed, shells.rigorous) == (
                sites.sites_consumed, sites.rigorous,
            )

    @pytest.mark.parametrize("region", [(), ((1, 0), (SHELL_BLOCK + 1, 0))], ids=["empty", "two-blocks"])
    @pytest.mark.parametrize(
        "stop", ["last-of-block", "first-of-next", "past-table"],
    )
    def test_stops_where_the_shell_loop_stops(self, region, stop):
        fam = decaying_perturbation_family()
        if stop == "past-table":
            # the first radius whose remaining mass is the table's beyond
            radius = next(r for r in itertools.count() if fam.tail.remaining(r) == 1e-28)
        else:
            radius = SHELL_BLOCK - (stop == "last-of-block")
        # a tolerance between the bounds of the shell loop at radius - 1
        # and radius, far from both against rounding
        before = shell_loop(fam, region, 0.0, site_cap=ball_size(2, radius - 1))[4]
        at = shell_loop(fam, region, 0.0, site_cap=ball_size(2, radius))[4]
        assert at < before * (1 - 1e-6)
        tol = math.sqrt(at * before)
        kind, r, sites, p, bound = shell_loop(fam, region, tol)
        assert (kind, r) == ("stop", radius)
        got = boundary_matrix(fam, region, tail_tol=tol)
        assert (got.sites_consumed, got.rigorous) == (sites, True)
        # the shell loop multiplies as the walk does, so to the last bit
        assert got.tail_bound == bound
        assert np.array_equal(got.matrix, p)
        oracle = boundary_matrix(fam, region, exhaustion=lattice.Zd(2), tail_tol=tol)
        assert (oracle.sites_consumed, oracle.rigorous) == (sites, True)

    @pytest.mark.parametrize("region", [(), ((1, 0), (SHELL_BLOCK + 1, 0))], ids=["empty", "two-blocks"])
    @pytest.mark.parametrize("shell", [0, SHELL_BLOCK, SHELL_BLOCK + 9], ids=["shell-0", "first-of-block", "mid-block"])
    def test_cap_trips_where_the_shell_loop_trips(self, region, shell):
        fam = decaying_perturbation_family()
        # one site short of the shell, whatever the region holds of it
        held = sum(lattice.norm1(x) <= shell for x in region)
        cap = ball_size(2, shell) - held - 1
        kind, r, sites, p, bound = shell_loop(fam, region, 1e-14, site_cap=cap)
        assert (kind, r) == ("cap", shell)
        for exhaustion in (None, lattice.Zd(2)):
            with pytest.raises(ConvergenceError, match=f"within {cap} sites") as info:
                boundary_matrix(fam, region, exhaustion=exhaustion, site_cap=cap)
            assert np.max(np.abs(info.value.last_partial - p)) <= 1e-13
            assert info.value.tail_estimate == pytest.approx(bound, rel=1e-12)
            if exhaustion is None:  # the shell walk, to the last bit
                assert np.array_equal(info.value.last_partial, p)
                assert info.value.tail_estimate == bound
        if shell == 0:
            # the cap refuses the origin: the product is empty, and the bound
            # is the certificate's on the empty shell at radius -1
            assert np.array_equal(info.value.last_partial, np.ones((2, 2)))
            assert bound == math.expm1(fam.tail.remaining(-1))

    def test_site_cap_counts_sites(self):
        fam = decaying_perturbation_family(nu=2)
        needed = boundary_matrix(fam, ()).sites_consumed
        assert boundary_matrix(fam, (), site_cap=needed).sites_consumed == needed
        for exhaustion in (None, lattice.Zd(2)):
            with pytest.raises(ConvergenceError, match=f"within {needed - 1} sites"):
                boundary_matrix(fam, (), exhaustion=exhaustion, site_cap=needed - 1)

    def test_capped_routes_report_the_same_partial(self, eps_family):
        # a block that would cross the cap is refused whole on both
        # routes: each reports the product through the last whole shell
        # and the certificate's bound there
        needed = boundary_matrix(eps_family, ()).sites_consumed
        errors = []
        for exhaustion in (None, lattice.Zd(2)):
            with pytest.raises(ConvergenceError) as info:
                boundary_matrix(eps_family, (), exhaustion=exhaustion, site_cap=needed - 1)
            errors.append(info.value)
        shells, sites = errors
        assert np.max(np.abs(shells.last_partial - sites.last_partial)) <= 1e-13
        assert 0 < shells.tail_estimate < math.inf
        assert sites.tail_estimate == pytest.approx(shells.tail_estimate, rel=1e-12)

    def test_capped_finite_walk_reports_no_bound(self, rng):
        # a finite walk never settles: a refused block leaves the bound
        # at inf, and the product runs through the last whole block
        fam = FiberFamily.explicit({s: complex_gaussian(rng, (2, 2)) for s in "uvw"})
        with pytest.raises(ConvergenceError, match="within 1 sites") as info:
            boundary_matrix(fam, ("u",), site_cap=1)
        assert info.value.tail_estimate == math.inf
        np.testing.assert_array_equal(info.value.last_partial, fam.gram("v"))

    @pytest.mark.parametrize("site", [(1,), (0, 0, 0), "a", ("a", "b"), (0.0, 1)])
    def test_malformed_region_site_rejected_on_both_routes(self, eps_family, site):
        for exhaustion in (None, lattice.Zd(2)):
            with pytest.raises(ValidationError, match="not a 2-tuple"):
                boundary_matrix(eps_family, ((0, 1), site), exhaustion=exhaustion)

    def test_numpy_integer_region_site_accepted(self, eps_family):
        site = (np.int64(0), np.int32(1))
        got = boundary_matrix(eps_family, (site,))
        want = boundary_matrix(eps_family, ((0, 1),))
        assert np.array_equal(got.matrix, want.matrix)
        assert got.sites_consumed == want.sites_consumed

    def test_undeclared_region_site_rejected_on_both_routes(self):
        fam = FiberFamily.explicit({"u": np.eye(2), "v": np.eye(2)})
        for exhaustion in (None, lattice.Sites(("v", "u"))):
            with pytest.raises(ValidationError, match="unknown site 'zz'"):
                boundary_matrix(fam, ("zz",), exhaustion=exhaustion)
