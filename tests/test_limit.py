import math
from pathlib import Path

import numpy as np
import pytest

from schurstates.errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    GeometryError,
    PreconditionError,
    ValidationError,
)
from schurstates import lattice, limit
from schurstates.lattice import Sites, Zd
from schurstates.kernel import SHELL_BLOCK, FarFieldTail, FiberFamily, transfer_matrix
from schurstates.limit import (
    SITE_CAP,
    _boundary_walk,
    boundary_matrices,
    boundary_matrix,
    build_from_generators,
    check_projectivity,
    limit_state_eval,
)
from schurstates.mixing import decaying_perturbation_family
from schurstates.modelfile import encode_matrix, load_model, parse_model
from schurstates.sampling import (
    complex_gaussian,
    decaying_generator_spec,
    random_observable,
    rng_from_seed,
)
from schurstates.state import LocalObservable, expectation_extended

from conftest import ball, ball_size, rescaled_origin_family, shell_loop
from oracles import (
    matrix_exp,
    matrix_log,
    random_positive_definite,
    random_unitary,
    right_square_root,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="module")
def generator_family():
    return build_from_generators(decaying_generator_spec(seed=3, radius=6, d=2, nu=1))


def orthonormal_lattice_family(nu=1, d=2):
    return FiberFamily.homogeneous(np.eye(d, dtype=complex), Zd(nu))


class TestExhaustion:
    def test_lattice_prefix_absorbs_shells(self):
        pre = Zd(2).first(5)
        assert pre[0] == (0, 0)
        assert set(pre[1:]) == {(-1, 0), (0, -1), (0, 1), (1, 0)}

    def test_lattice_order_is_deterministic(self):
        a = Zd(2).first(30)
        b = Zd(2).first(30)
        assert a == b
        assert len(set(a)) == 30

    def test_from_sites(self):
        ex = Sites(("u", "v", "w"))
        assert ex.first(2) == ["u", "v"]
        # asking for more sites than there are gives all of them
        assert ex.first(4) == ["u", "v", "w"]

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValidationError):
            Sites(("u", "u"))


class TestTransferMatrix:
    def test_equal_regions_all_ones(self, rng):
        fam = FiberFamily.explicit({0: complex_gaussian(rng, (2, 2))})
        np.testing.assert_allclose(transfer_matrix(fam, (0,), (0,)), np.ones((2, 2)))

    def test_single_difference_is_gram(self, rng):
        fam = FiberFamily.explicit(
            {k: complex_gaussian(rng, (2, 2)) for k in range(2)}
        )
        np.testing.assert_allclose(transfer_matrix(fam, (0, 1), (0,)), fam.gram(1))

    def test_subregion_must_be_inside(self, rng):
        fam = FiberFamily.explicit({0: complex_gaussian(rng, (2, 2))})
        with pytest.raises(GeometryError):
            transfer_matrix(fam, (0,), (1,))


def _shuffle_cases():
    yield "generator", 1, False, ((0,),)
    for nu in (1, 2):
        origin = (0,) * nu
        e1 = (1,) + origin[1:]
        for normalize in (False, True):
            for region in ((), (origin,), (e1, origin)):
                yield "perturbed", nu, normalize, region


SHUFFLE_CASES = list(_shuffle_cases())


def shuffle_id(value):
    if isinstance(value, bool):
        return "normalized" if value else "raw"
    if isinstance(value, int):
        return f"nu{value}"
    if isinstance(value, tuple):
        return "region" + "".join(str(s).replace(" ", "") for s in value) if value else "empty"
    return str(value)


class TestBoundaryMatrix:
    def test_orthonormal_everywhere_gives_identity(self):
        fam = orthonormal_lattice_family()
        bm = boundary_matrix(fam, ((0,),))
        np.testing.assert_allclose(bm.matrix, np.eye(2))
        assert bm.tail_bound == 0.0
        assert bm.rigorous
        # the closed form settles on the empty shell, before any site
        assert bm.sites_consumed == 0

    def test_single_perturbed_site(self, rng):
        # complement consists of exactly one non-orthonormal site: the
        # boundary equals that site's Gram matrix
        block = complex_gaussian(rng, (2, 2))
        eye = np.eye(2, dtype=complex)
        fam = FiberFamily.explicit(
            {0: eye, 1: block, 2: eye, 3: eye}
        )
        bm = boundary_matrix(fam, (0, 2, 3))
        np.testing.assert_allclose(bm.matrix, block @ block.conj().T)
        assert bm.tail_bound == 0.0
        # with more orthonormal sites in the complement, their identity
        # factors annihilate the off-diagonal entries
        bm2 = boundary_matrix(fam, (0,))
        np.testing.assert_allclose(bm2.matrix, np.diag(np.diag(fam.gram(1))))

    def test_cached_matrix_is_read_only(self):
        fam = build_from_generators(decaying_generator_spec(seed=3, radius=6, d=2, nu=1))
        first = boundary_matrix(fam, ())
        want = first.matrix.copy()
        with pytest.raises(ValueError):
            first.matrix[0, 0] = 99
        again = boundary_matrix(fam, ())
        assert again is first
        assert np.array_equal(again.matrix, want)

    def test_cache_keeps_the_callers_region_order(self, generator_family):
        # either order of the caller's sites is one cache key, which
        # serves one shared result
        ab = boundary_matrix(generator_family, ((0,), (1,)))
        ba = boundary_matrix(generator_family, ((1,), (0,)))
        assert ba is ab

    def test_generator_model_converges(self, generator_family):
        bm = boundary_matrix(generator_family, ((0,),), tail_tol=1e-12)
        assert bm.tail_bound <= 1e-12
        assert bm.rigorous
        # off-diagonals annihilate exactly past the declared radius
        off = bm.matrix[~np.eye(2, dtype=bool)]
        np.testing.assert_allclose(off, 0.0)

    def test_homogeneous_unit_norm_boundary(self):
        # exactly unit-norm, non-orthogonal reference vectors: diagonal
        # tail factors are exactly 1, off-diagonal products collapse to 0
        fam = FiberFamily.homogeneous(
            np.array([[1.0, 0.0], [0.5 + 0.5j, 0.5 + 0.5j]]), Zd(1)
        )
        bm = boundary_matrix(fam, ((0,),))
        np.testing.assert_allclose(bm.matrix, np.eye(2))

    def test_homogeneous_diverging_rejected(self):
        # opposite vectors of the largest norm: the constant off-diagonal
        # factor is -1, whose powers alternate
        fam = FiberFamily.homogeneous(
            np.array([[2.0, 0.0], [-2.0, 0.0]]), Zd(1)
        )
        with pytest.raises(ConvergenceError, match="does not converge"):
            boundary_matrix(fam, ())

    def test_cocycle_identity(self, generator_family):
        rng = rng_from_seed(5)
        pool = Zd(1).first(9)
        for _ in range(20):
            k_small = int(rng.integers(1, 4))
            k_large = int(rng.integers(k_small + 1, 7))
            order = rng.permutation(len(pool))
            large = tuple(pool[i] for i in order[:k_large])
            small = tuple(large[:k_small])
            lhs = boundary_matrix(generator_family, large).matrix * transfer_matrix(
                generator_family, large, small
            )
            rhs = boundary_matrix(generator_family, small).matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_boundary_psd(self, generator_family):
        for region in [(), ((0,),), ((0,), (1,))]:
            m = boundary_matrix(generator_family, region).matrix
            eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            assert eigs[0] >= -1e-10 * max(1.0, float(np.max(np.abs(eigs))))

    def test_stopping_rule_validated_by_longer_run(self, generator_family):
        # walking 10x more sites may not move any entry by more than the
        # reported tail bound (+ roundoff)
        tail_tol = 1e-12
        bm = boundary_matrix(generator_family, ((0,),), tail_tol=tail_tol)
        longer = Sites(Zd(1).first(10 * bm.sites_consumed))
        ref = boundary_matrix(generator_family, ((0,),), exhaustion=longer)
        assert np.max(np.abs(ref.matrix - bm.matrix)) <= bm.tail_bound + 1e-13

    @pytest.mark.parametrize("family, nu, normalize, region", SHUFFLE_CASES, ids=shuffle_id)
    def test_shuffled_enumeration_agrees(self, generator_family, family, nu, normalize, region):
        # the limit may not depend on the walk order: a seeded shuffle of
        # the ball ten shells past the certified radius lands within the
        # reported tail bound (+ roundoff) of the canonical walk
        if family == "generator":
            fam = generator_family
        elif normalize:
            fam = rescaled_origin_family(nu)
        else:
            fam = decaying_perturbation_family(nu=nu)
        a = boundary_matrix(fam, region, tail_tol=1e-12)
        radius = max(map(lattice.norm1, Zd(nu).first(a.sites_consumed + len(region))))
        sites = ball(nu, radius + 10)
        order = rng_from_seed(11).permutation(len(sites))
        b = boundary_matrix(fam, region, exhaustion=Sites([sites[i] for i in order]))
        assert b.sites_consumed == len(sites) - len(region)
        assert np.max(np.abs(b.matrix - a.matrix)) <= a.tail_bound + 1e-13

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_ones_tail_validated_by_longer_run(self, nu, normalize):
        # walking ten more shells than the certificate needed may not move
        # any entry by more than the reported tail bound (+ roundoff); the
        # empty region puts the (rescaled, if normalized) origin in the walk
        fam = rescaled_origin_family(nu) if normalize else decaying_perturbation_family(nu=nu)
        region = ()
        bm = boundary_matrix(fam, region, tail_tol=1e-12)
        assert bm.rigorous and bm.tail_bound <= 1e-12
        walked = Zd(nu).first(bm.sites_consumed + 1)
        radius = max(lattice.norm1(s) for s in walked)
        longer = Sites(Zd(nu).first(ball_size(nu, radius + 10)))
        ref = boundary_matrix(fam, region, exhaustion=longer)
        assert ref.sites_consumed > bm.sites_consumed
        assert np.max(np.abs(ref.matrix - bm.matrix)) <= bm.tail_bound + 1e-13

    @pytest.mark.parametrize("nu", [1, 2])
    def test_normalized_tiny_perturbation_walks_origin(self, nu):
        # the certificate at radius -1 must count the rescaled origin: with
        # a negligible perturbation every other site is nearly all-ones,
        # but the origin carries the whole normalization
        fam = rescaled_origin_family(nu, epsilon0=1e-20, near_amplitude=None)
        bm = boundary_matrix(fam, ())
        assert bm.rigorous and bm.sites_consumed >= 1
        assert abs(complex(bm.matrix.sum()) - 1.0) <= 1e-12
        np.testing.assert_allclose(bm.matrix, np.full((2, 2), 0.25), atol=1e-12)

    def test_truncated_walk_not_rigorous(self, generator_family):
        # three sites of an infinite lattice leave the product unfinished
        prefix = Sites(Zd(1).first(3))
        bm = boundary_matrix(generator_family, (), exhaustion=prefix)
        assert not bm.rigorous
        assert bm.tail_bound == math.inf
        assert bm.sites_consumed == 3
        certified = boundary_matrix(generator_family, ())
        assert np.max(np.abs(bm.matrix - certified.matrix)) > 0.1

    def test_finite_walk_rigorous_only_when_complete(self, rng):
        fam = FiberFamily.explicit({k: complex_gaussian(rng, (2, 2)) for k in range(3)})
        full = boundary_matrix(fam, (0,), exhaustion=Sites((2, 0, 1)))
        assert full.rigorous and full.tail_bound == 0.0
        np.testing.assert_allclose(full.matrix, fam.gram(1) * fam.gram(2))
        part = boundary_matrix(fam, (0,), exhaustion=Sites((0, 1)))
        assert not part.rigorous and part.tail_bound == math.inf

    @pytest.mark.parametrize("exhaustion", [None, Zd(1)], ids=["shells", "sites"])
    def test_underflowed_off_diagonals_converge_to_zero(self, exhaustion):
        # G_r = [[1, e_r], [e_r, 1 + e_r^2]] with e_r = 2^-(r+1): the
        # off-diagonal product falls below the smallest subnormal near
        # radius 32, long before the diagonal certificate 2^-r meets the
        # tolerance near radius 40; an exact 0 there is the limit
        def radial(start, stop):
            return np.array([[[1.0, 0.0], [2.0 ** -(r + 1), 1.0]] for r in range(start, stop)])

        def remaining(r):
            # the origin's e_0 = 1/2 plus 2 e_k = 2^-k for each k >= 1
            return np.where(r < 0, 1.5, 2.0**-r)

        fam = FiberFamily(
            2, 2, None, Zd(1), tail=FarFieldTail(np.eye(2, dtype=bool), remaining), radial=radial
        )
        # each site of radius k deviates from the identity by exactly e_k
        for k in range(60):
            assert np.max(np.abs(fam.shell_gram(k) - np.eye(2))) == 2.0 ** -(k + 1)
        bm = boundary_matrix(fam, (), exhaustion=exhaustion, tail_tol=1e-12)
        assert bm.rigorous and bm.tail_bound <= 1e-12
        assert bm.matrix[0, 1] == 0.0 and bm.matrix[1, 0] == 0.0
        diag = 1.25 * math.prod((1.0 + 4.0 ** -(k + 1)) ** 2 for k in range(1, 60))
        assert bm.matrix[0, 0] == 1.0
        assert abs(bm.matrix[1, 1] - diag) <= bm.tail_bound + 1e-14
        # the walk went past the underflow radius before it stopped
        assert bm.sites_consumed > 2 * 33

    def test_uncertified_infinite_family_rejected(self):
        # no tail certificate: nothing can stop the walk rigorously
        def provider(site):
            eps = 0.25 ** (abs(site[0]) + 1)
            return np.array([[1.0, 0.0], [eps, np.sqrt(1 - eps**2)]])

        fam = FiberFamily(2, 2, provider, Zd(1), tail=None)
        with pytest.raises(PreconditionError, match="no tail certificate"):
            boundary_matrix(fam, ((0,),), tail_tol=1e-13)

    def test_site_cap_raises(self):
        # a certified family whose bound falls too slowly: unit vectors at
        # angle theta_r with 1 - cos(theta_r) = c / (r + 1)^2, so the mass
        # beyond radius r is 2 c sum_{k > r + 1} 1/k^2 <= 2 c / (r + 1)
        c = 0.1

        def provider(site):
            cos = 1.0 - c / (abs(site[0]) + 1) ** 2
            return np.array([[1.0, 0.0], [cos, math.sqrt(1.0 - cos**2)]])

        def remaining(r):
            # all sites: c at the origin plus 2 c sum_{k >= 2} 1/k^2 <= 2 c
            return np.where(r < 0, 3.0 * c, 2.0 * c / np.maximum(r + 1, 1))

        fam = FiberFamily(2, 2, provider, Zd(1), tail=FarFieldTail(np.ones((2, 2), dtype=bool), remaining))
        # the certificate is no lie: it bounds the deviation mass out to a
        # far radius for every r in a window
        far = 5000
        mass = {
            k: float(np.max(np.abs(fam.gram((k,)) - 1.0)))
            for k in range(-far, far + 1)
        }
        for r in range(-1, 40):
            assert sum(v for k, v in mass.items() if abs(k) > r) <= remaining(r)
        with pytest.raises(ConvergenceError, match="did not settle"):
            boundary_matrix(fam, (), site_cap=60)


class TestTailTolerance:
    """Every walk refuses a ``tail_tol`` that is not a finite number >= 0,
    the rule of ``--tail-tol``, before it walks: a finite walk would
    otherwise stop at inf with no matrix to report, and a shell walk
    never settle at NaN or below 0."""

    WALKS = {
        "finite": lambda tol: boundary_matrix(
            FiberFamily.explicit({"a": np.eye(2), "b": np.eye(2)}), ("a",), tail_tol=tol
        ),
        "shell": lambda tol: boundary_matrix(decaying_perturbation_family(), (), tail_tol=tol),
        "oracle": lambda tol: boundary_matrix(
            decaying_perturbation_family(), (), exhaustion=Zd(2), tail_tol=tol
        ),
    }

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, math.inf], ids=["nan", "negative", "inf"])
    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_refused(self, walk, tol):
        with pytest.raises(ValidationError) as exc:
            self.WALKS[walk](tol)
        assert str(exc.value) == f"tail_tol must be a finite number >= 0, got {tol}"


class TestLimitState:
    def test_orthonormal_reduction(self, rng):
        fam = orthonormal_lattice_family()
        b = complex_gaussian(rng, (2, 2))
        obs = LocalObservable(((0,),), (b,))
        val = limit_state_eval(fam, obs)
        expected = b[0, 0] + b[1, 1]
        assert val == pytest.approx(complex(expected))

    def test_normalized_identity(self, generator_family):
        # rescale one site so the total boundary weight is 1, then the
        # limit at identity factors is 1
        total = complex(boundary_matrix(generator_family, ()).matrix.sum())
        vec0 = generator_family.vectors((0,)) / np.sqrt(total.real)
        retuned = {}
        for site in Zd(1).first(13):
            retuned[site] = (
                vec0 if site == (0,) else generator_family.vectors(site)
            )
        # reuse the generator tail: beyond radius 6 everything is orthonormal
        fam = FiberFamily(
            2, 2,
            lambda s, _r=retuned: _r.get(s, np.eye(2, dtype=complex)),
            Zd(1),
            tail=generator_family.tail,
        )
        obs = LocalObservable.identity((((0,)), ((1,))), 2)
        assert limit_state_eval(fam, obs) == pytest.approx(1.0)

    def test_finite_volume_converges_to_limit(self, generator_family):
        rng = rng_from_seed(31)
        obs = LocalObservable(((0,),), (random_observable(rng, 2),))
        lim = limit_state_eval(generator_family, obs)
        gaps = []
        for n in (3, 7, 11, 15):
            v = expectation_extended(generator_family, Zd(1).first(n), obs)
            gaps.append(abs(v - lim))
        assert gaps[-1] <= 1e-8
        assert gaps[0] > gaps[-1]

    def test_positive_on_squares(self, generator_family):
        rng = rng_from_seed(33)
        for _ in range(10):
            c = complex_gaussian(rng, (2, 2))
            obs = LocalObservable(((0,), (1,)), (c.conj().T @ c, np.eye(2)))
            val = limit_state_eval(generator_family, obs)
            assert val.real >= -1e-10 * max(1.0, abs(val))
            assert abs(val.imag) <= 1e-10 * max(1.0, abs(val))


class TestProjectivity:
    def test_equal_regions_gap_zero(self, generator_family):
        rng = rng_from_seed(41)
        obs = LocalObservable(((0,),), (random_observable(rng, 2),))
        rep = check_projectivity(generator_family, ((0,),), obs)
        assert rep.gap == 0.0
        assert rep.passed

    def test_orthonormal_projective(self, rng):
        fam = orthonormal_lattice_family()
        obs = LocalObservable(((0,),), (complex_gaussian(rng, (2, 2)),))
        rep = check_projectivity(fam, ((0,), (1,), (-1,)), obs)
        assert rep.gap <= 1e-12

    def test_generator_random_regions(self, generator_family):
        rng = rng_from_seed(43)
        pool = Zd(1).first(9)
        for _ in range(10):
            k_small = int(rng.integers(1, 3))
            k_large = int(rng.integers(k_small + 1, 6))
            order = rng.permutation(len(pool))
            large = tuple(pool[i] for i in order[:k_large])
            small = tuple(large[:k_small])
            obs = LocalObservable(
                small, tuple(random_observable(rng, 2) for _ in small)
            )
            rep = check_projectivity(generator_family, large, obs, tol=1e-9)
            assert rep.passed, rep

    def test_observable_outside_region(self, generator_family):
        obs = LocalObservable(((5,),), (np.eye(2),))
        with pytest.raises(GeometryError):
            check_projectivity(generator_family, ((0,),), obs)


class TestRightSquareRoot:
    def test_identity(self):
        np.testing.assert_allclose(right_square_root(np.eye(3), np.eye(3)), np.eye(3))

    def test_diagonal(self):
        h = right_square_root(np.diag([4.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(h, np.diag([2.0, 1.0]))

    def test_random_pd(self):
        rng = rng_from_seed(51)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            t = random_positive_definite(rng, n, floor=0.2)
            w = random_unitary(rng, n)
            h = right_square_root(t, w)
            assert np.max(np.abs(h @ h.conj().T - t)) <= 1e-10 * np.linalg.norm(t)

    def test_row_overlaps_reproduce_input(self, rng):
        t = random_positive_definite(rng, 3, floor=0.3)
        h = right_square_root(t, random_unitary(rng, 3))
        fam = FiberFamily.explicit({0: h})
        np.testing.assert_allclose(fam.gram(0), t, atol=1e-10)

    def test_log_entry_bound(self):
        # |log(t)_{ij}| never exceeds the absolute eigenvalue-log mass
        rng = rng_from_seed(53)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            t = random_positive_definite(rng, n, floor=0.1)
            eigs = np.linalg.eigvalsh(t)
            trace_abs = float(np.sum(np.abs(np.log(eigs))))
            h_log = matrix_log(t)
            assert float(np.max(np.abs(h_log))) <= trace_abs + 1e-12

    def test_rejects_non_pd(self):
        with pytest.raises(DomainError):
            right_square_root(np.diag([1.0, 0.0]), np.eye(2))
        # the floor is relative: 1e-12 of the largest eigenvalue
        with pytest.raises(DomainError):
            right_square_root(np.diag([1e6, 1e-7]), np.eye(2))
        right_square_root(np.diag([1e6, 1e-5]), np.eye(2))

    def test_one_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        right_square_root(np.diag([4.0, 1.0]), np.eye(2))
        assert calls == ["eigh"]

    def test_rejects_non_isometry(self):
        with pytest.raises(PreconditionError):
            right_square_root(np.eye(2), 0.5 * np.eye(2))

    def test_rejects_isometry_of_the_wrong_shape(self):
        with pytest.raises(
            DimensionError,
            match=r"^isometry shape \(3, 3\) does not match matrix shape \(2, 2\)$",
        ):
            right_square_root(np.eye(2), np.eye(3))


class TestGeneratorBuild:
    def test_zero_diagonals_give_orthonormal(self, rng):
        from schurstates.limit import GeneratorSpec

        eye = np.eye(2, dtype=complex)
        spec = GeneratorSpec([(0,)], [np.zeros(2)], [eye], [eye], tail_radius=0, nu=1, d=2)
        fam = build_from_generators(spec)
        np.testing.assert_allclose(fam.vectors((0,)), np.eye(2))
        np.testing.assert_allclose(fam.gram((5,)), np.eye(2))
        # the limit state is the uniform (unnormalized) mixture of the
        # basis product states: at a single site it evaluates to Tr(b)
        b = complex_gaussian(rng, (2, 2))
        val = limit_state_eval(fam, LocalObservable(((2,),), (b,)))
        assert val == pytest.approx(complex(np.trace(b)))

    def test_gram_matches_exponential(self):
        spec = decaying_generator_spec(seed=7, radius=3, d=3, nu=1)
        fam = build_from_generators(spec)
        for site, diag, u in zip(spec.keys, spec.diag, spec.u):
            h = u.conj().T @ np.diag(diag) @ u
            np.testing.assert_allclose(fam.gram(site), matrix_exp(h), atol=1e-10)

    def test_summability_certificate(self):
        spec = decaying_generator_spec(seed=9, radius=4, d=2, nu=1)
        # one site at the origin plus two per shell, each with mass 2^-r
        expected = 1.0 + 2.0 * sum(2.0 ** (-r) for r in range(1, 5))
        assert spec.summability_certificate() == pytest.approx(expected)
        # the CLI reads it from the parsed model
        data = {
            "lattice": {"kind": "zd", "nu": 1},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {
                "mode": "generators",
                "sites": [
                    {
                        "site": list(site),
                        "D_H": diag.tolist(),
                        "U": encode_matrix(u),
                        "W": encode_matrix(w),
                    }
                    for site, diag, u, w in zip(spec.keys, spec.diag, spec.u, spec.w)
                ],
                "tail": {"beyond_radius": spec.tail_radius, "D_H": "zero"},
            },
        }
        assert parse_model(data).summability_certificate == spec.summability_certificate()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_tail_remaining_matches_brute_force(self, reverse):
        from schurstates import lattice
        from schurstates.limit import GeneratorSpec

        spec = decaying_generator_spec(seed=11, radius=4, d=2, nu=2)
        # declaration order must not matter, so also try outermost first
        order = slice(None, None, -1 if reverse else 1)
        columns = (spec.sites[order], spec.diag[order], spec.u[order], spec.w[order])
        spec = GeneratorSpec(*columns, tail_radius=spec.tail_radius, nu=spec.nu, d=spec.d)
        remaining = build_from_generators(spec).tail.remaining
        deviation = {
            site: math.expm1(float(np.sum(np.abs(diag)))) for site, diag in zip(spec.keys, spec.diag)
        }
        total = sum(deviation.values())
        for r in range(-1, spec.tail_radius + 2):
            # definition: deviation mass of declared sites with 1-norm > r
            oracle = sum(v for s, v in deviation.items() if lattice.norm1(s) > r)
            assert remaining(r) == pytest.approx(oracle, rel=1e-12, abs=1e-14 * total)

    def test_rejects_non_unitary(self):
        from schurstates.limit import GeneratorSpec

        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match="deviates from isometry"):
            GeneratorSpec([(0,)], [np.zeros(2)], [0.2 * eye], [eye], tail_radius=0, nu=1, d=2)

    def test_rejects_site_beyond_radius(self):
        from schurstates.limit import GeneratorSpec

        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match="beyond the declared tail radius"):
            GeneratorSpec([(9,)], [np.zeros(2)], [eye], [eye], tail_radius=2, nu=1, d=2)

    @pytest.mark.parametrize(
        "sites, rows, message",
        [
            ([(0.5,)], 1, r"^site \(0\.5,\) is not a 1-tuple of ints$"),
            ([0], 1, r"^generator sites form an array of shape \(1,\), expected \(N, 1\)$"),
            ([(0,), (1,)], 1, r"^generator columns must hold one row for each of 2 sites$"),
            ([(0,), (1, 0)], 2, r"^generator sites differ in length, expected \(N, 1\)$"),
        ],
    )
    def test_rejects_malformed_columns(self, sites, rows, message):
        from schurstates.limit import GeneratorSpec

        eye = np.eye(2, dtype=complex)
        columns = ([np.zeros(2)] * rows, [eye] * len(sites), [eye] * len(sites))
        with pytest.raises(ValidationError, match=message):
            GeneratorSpec(sites, *columns, tail_radius=1, nu=1, d=2)

    def test_rejects_an_empty_fiber(self):
        from schurstates.limit import GeneratorSpec

        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match=r"^fiber dimension must be positive, got d=0$"):
            GeneratorSpec([(0,)], [np.zeros(2)], [eye], [eye], tail_radius=0, nu=1, d=0)

    @pytest.mark.parametrize(
        "column, entry, fault",
        [
            ("diag", (0,), "diagonal has non-finite entries"),
            ("u", (1, 0), "U has non-finite entries"),
            ("w", (0, 1), "W has non-finite entries"),
        ],
    )
    def test_rejects_non_finite_entries(self, column, entry, fault):
        # a file never gets here (its schema check names the number), but
        # the constructor is public and keeps its own refusal
        from schurstates.limit import GeneratorSpec

        eye = np.eye(2, dtype=complex)
        columns = {"diag": [np.zeros(2)] * 3, "u": [eye] * 3, "w": [eye] * 3}
        bad = columns[column][1].copy()
        bad[entry] = np.inf if column == "u" else np.nan
        columns[column] = [columns[column][0], bad, columns[column][2]]
        with pytest.raises(ValidationError) as exc:
            GeneratorSpec([(0,), (-1,), (1,)], **columns, tail_radius=1, nu=1, d=2)
        assert str(exc.value) == f"site (-1,): {fault}"

    @pytest.mark.parametrize(
        "site, tail_radius",
        [
            ((2**62, 2**62), 2),  # an int64 sum would wrap to a negative radius
            ((-(2**63), 0), 2),  # and so would the int64 absolute value
            ((2**62, 2**62), 2**63),
            ((2**70, -1), 2**71),  # Python ints past int64
        ],
    )
    def test_site_radius_is_exact(self, site, tail_radius):
        from schurstates.limit import GeneratorSpec

        eye = np.eye(2, dtype=complex)
        columns = ([(0, 0), site], [np.zeros(2)] * 2, [eye] * 2, [eye] * 2)
        radius = abs(site[0]) + abs(site[1])
        if radius > tail_radius:
            with pytest.raises(ValidationError, match=r"lies beyond the declared tail radius 2$"):
                GeneratorSpec(*columns, tail_radius=tail_radius, nu=2, d=2)
        else:
            spec = GeneratorSpec(*columns, tail_radius=tail_radius, nu=2, d=2)
            assert spec.radii.tolist() == [0, radius]
            np.testing.assert_array_equal(build_from_generators(spec).gram(site), eye)


#: (seed, nu, d) of the seeded generator models behind the closed-form
#: oracle tests; the seeds feed ``decaying_generator_spec``.
CLOSED_FORM_CASES = [(seed, nu, d) for seed in (21, 22) for nu in (1, 2) for d in (2, 3)]


class TestClosedFormBuild:
    """``build_from_generators`` writes u* e^{D/2} u w* for every site in
    one stacked pass; the eigendecomposition route,
    ``right_square_root(matrix_exp(u* D u), w)`` site by site, is its
    oracle."""

    @pytest.mark.parametrize("seed, nu, d", CLOSED_FORM_CASES)
    def test_matches_eigendecomposition_route(self, seed, nu, d):
        spec = decaying_generator_spec(seed=seed, radius=3, d=d, nu=nu)
        fam = build_from_generators(spec)
        for site, diag, u, w in zip(spec.keys, spec.diag, spec.u, spec.w):
            t = matrix_exp(u.conj().T @ np.diag(diag) @ u)
            oracle = right_square_root(t, w)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(fam.vectors(site) - oracle)) <= 1e-14 * scale
            scale = max(1.0, float(np.max(np.abs(t))))
            assert np.max(np.abs(fam.gram(site) - t)) <= 1e-14 * scale

    @pytest.mark.parametrize("seed, nu, d", CLOSED_FORM_CASES)
    def test_cocycle_and_projectivity(self, seed, nu, d):
        spec = decaying_generator_spec(seed=seed, radius=3, d=d, nu=nu)
        fam = build_from_generators(spec)
        rng = rng_from_seed(seed, 7)
        pool = Zd(nu).first(13)
        for _ in range(4):
            order = rng.permutation(len(pool))
            large = tuple(pool[i] for i in order[: int(rng.integers(2, 6))])
            small = large[: int(rng.integers(1, len(large)))]
            lhs = boundary_matrix(fam, large).matrix * transfer_matrix(fam, large, small)
            rhs = boundary_matrix(fam, small).matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, float(np.max(np.abs(rhs))))
            obs = LocalObservable(small, tuple(random_observable(rng, d) for _ in small))
            assert check_projectivity(fam, large, obs).passed

    def test_build_runs_no_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        spec = decaying_generator_spec(seed=23, radius=4, d=2, nu=2)
        fam = build_from_generators(spec)
        for site in spec.keys:
            fam.gram(site)
        assert calls == []

    @pytest.mark.parametrize("spread", [1.0, 27.0, 27.6, 27.62, 27.64, 27.7, 30.0])
    @pytest.mark.parametrize("centre", [-5.0, 0.0, 5.0])
    def test_floor_matches_right_square_root(self, spread, centre):
        # the closed form refuses exactly where the eigendecomposition
        # route refuses: max D - min D >= -ln(1e-12) = 27.631...
        from schurstates.limit import GeneratorSpec

        u = random_unitary(rng_from_seed(29), 2)
        diag = np.array([centre + spread / 2, centre - spread / 2])
        w = np.eye(2, dtype=complex)
        spec = GeneratorSpec([(0,)], [diag], [u], [w], tail_radius=0, nu=1, d=2)
        try:
            right_square_root(matrix_exp(u.conj().T @ np.diag(diag) @ u), w)
        except DomainError:
            with pytest.raises(DomainError, match=r"site \(0,\): D_H spans"):
                build_from_generators(spec)
        else:
            build_from_generators(spec)

    @pytest.mark.parametrize("top", [710.0, -746.0])
    def test_exp_outside_float64_refused(self, top):
        from schurstates.limit import GeneratorSpec

        diag = [np.zeros(2), np.array([top, top])]
        spec = GeneratorSpec([(0,), (1,)], diag, [np.eye(2)] * 2, [np.eye(2)] * 2,
                             tail_radius=1, nu=1, d=2)
        with pytest.raises(DomainError, match=r"site \(1,\): exp\(D_H\) leaves the float64 range"):
            build_from_generators(spec)


    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_table_is_the_stacked_formulas_bit_for_bit(self, nu):
        # the vectors as one einsum, the Grams as one stacked ``@``, the
        # rows in walk order (1-norm, then lexicographic) and their radii,
        # written out here; the table's keys are the spec's own tuples
        spec = decaying_generator_spec(seed=31 + nu, radius=4, d=2, nu=nu)
        table = build_from_generators(spec).table
        u, w = spec.u, spec.w
        vecs = np.einsum("nji,nj,njk,nlk->nil", u.conj(), np.exp(spec.diag / 2), u, w.conj())
        radii = np.abs(spec.sites).sum(axis=1)
        order = np.lexsort((*spec.sites.T[::-1], radii))
        keys = list(map(tuple, spec.sites.tolist()))
        assert np.array_equal(table.vectors, vecs[order])
        assert np.array_equal(table.grams, vecs[order] @ vecs[order].conj().swapaxes(1, 2))
        assert np.array_equal(table.radii, radii[order])
        assert list(table.rows.items()) == [(keys[k], i) for i, k in enumerate(order)]
        assert {id(site) for site in table.rows} == {id(site) for site in spec.keys}

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("name", ["U", "W"])
    def test_isometry_verdicts_agree_with_matrix_products(self, d, name):
        # defects of 1e-12 * (1 +- 1e-3) on both sides of the threshold:
        # the entrywise M*M and the stacked ``@`` give the same verdicts,
        # and defects that differ by rounding alone (a printed last digit
        # may still differ where the defect sits on a rounding boundary)
        from schurstates.limit import _isometry_checks

        rng = rng_from_seed(37)
        excess = 1e-12 * np.array([1 - 1e-3, 1 + 1e-3, 0.0, 0.5, 2.0])
        m = np.stack([
            random_unitary(rng, d) @ np.diag(np.sqrt([1 + e] + [1.0] * (d - 1)))
            for e in np.repeat(excess, 6)
        ])
        stack, (_, _, (failed, message)) = _isometry_checks(name, m, d)
        defect = np.abs(m.conj().swapaxes(1, 2) @ m - np.eye(d)).max(axis=(1, 2))
        assert np.array_equal(stack, m)
        assert np.array_equal(failed, defect > 1e-12)
        assert np.array_equal(failed, np.repeat(excess, 6) > 1e-12)
        for k in np.flatnonzero(failed).tolist():
            text, printed = message(k).rsplit(" ", 1)
            assert text == f"{name} deviates from isometry by"
            assert abs(float(printed) - defect[k]) <= 1e-15

    @pytest.mark.parametrize(
        "diag, unitary, refused",
        [
            ([-70.0, -70.0], False, True),
            ([-40.0, -40.0], False, False),
            ([-40.0, -65.0], False, True),
            ([-40.0, -65.0], True, False),
            ([-63.0, -64.0], False, False),
            ([-64.5, -64.5], False, True),
        ],
    )
    def test_vanishing_vector_refused_as_the_table_would(self, diag, unitary, refused):
        # refused exactly when a row's norm is at or below ZERO_VECTOR_TOL,
        # the table's zero-vector rule, and as a DomainError naming the
        # site and D_H instead of the table's validation error
        from schurstates.kernel import ZERO_VECTOR_TOL
        from schurstates.limit import GeneratorSpec

        u = random_unitary(rng_from_seed(41), 2) if unitary else np.eye(2)
        diag = [np.zeros(2), np.array(diag)]
        spec = GeneratorSpec([(0,), (1,)], diag, [np.eye(2), u], [np.eye(2)] * 2,
                             tail_radius=1, nu=1, d=2)
        vecs = u.conj().T @ np.diag(np.exp(diag[1] / 2)) @ u
        assert (np.linalg.norm(vecs, axis=1) <= ZERO_VECTOR_TOL).any() == refused
        if refused:
            with pytest.raises(DomainError, match=(
                r"^site \(1,\): exp\(D_H/2\) takes a fiber vector to norm \S+, "
                r"at or below 1e-14 \(largest entry of D_H -\d"
            )):
                build_from_generators(spec)
        else:
            assert build_from_generators(spec).table.radii.tolist() == [0, 1]


class TestTableWalk:
    """The shell walk of a generator family's table against its oracle,
    the site walk over an explicit lattice exhaustion: the certificate
    sees the same radii with the same bounds, the walks stop at the same
    radius after the same sites, or refuse the same shell at the cap, and
    every entry agrees within a few ulps."""

    #: Most units in the last place, of a matrix's largest entry, by which
    #: the two routes' entries and bounds may differ (the accumulate
    #: rounds each complex product on its own).
    ULPS = 4

    #: (nu, tail radius, holes) of the seeded tables; nu = 1 runs past the
    #: first block of shells.
    TABLES = [(1, 70, 0), (1, 70, 9), (2, 12, 0), (2, 12, 40), (3, 6, 0), (3, 6, 60)]

    @staticmethod
    def family(nu, radius, holes, seed=17):
        """A seeded generator family whose table misses ``holes`` random
        declared sites inside the tail radius and is handed over in a
        shuffled order; also the missing sites."""
        from schurstates.limit import GeneratorSpec

        spec = decaying_generator_spec(seed=seed, radius=radius, d=2, nu=nu)
        keep = rng_from_seed(seed, nu, holes).permutation(len(spec.keys))
        cut = GeneratorSpec(
            *(column[keep[holes:]] for column in (spec.sites, spec.diag, spec.u, spec.w)),
            tail_radius=radius, nu=nu, d=2,
        )
        return build_from_generators(cut), [spec.keys[k] for k in keep[:holes]]

    @staticmethod
    def walk(fam, region, **kwargs):
        """The walk's result or ConvergenceError, and every (radius,
        bound) its certificate settled."""
        tail, seen = fam.tail, []

        class Recording:
            def settle(self, p, radii):
                matrices, bounds = tail.settle(p, radii)
                seen.extend(zip(radii.tolist(), bounds.tolist()))
                return matrices, bounds

        fam.tail = Recording()
        fam._boundary_cache.clear()
        try:
            return boundary_matrix(fam, region, **kwargs), seen
        except ConvergenceError as exc:
            return exc, seen
        finally:
            fam.tail = tail

    def close(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        scale = max(float(np.max(np.abs(b), initial=0.0)), np.finfo(float).tiny)
        return float(np.max(np.abs(a - b), initial=0.0)) <= self.ULPS * np.spacing(scale)

    def assert_same_walk(self, fam, region, tail_tol=1e-12, site_cap=10**6):
        nu = fam.geometry.nu
        shells, seen = self.walk(fam, region, tail_tol=tail_tol, site_cap=site_cap)
        sites, oracle = self.walk(
            fam, region, exhaustion=Zd(nu), tail_tol=tail_tol, site_cap=site_cap
        )
        assert type(shells) is type(sites)
        # a shell step settles its whole block at once, so it may have
        # seen radii past the stop
        assert [r for r, _ in seen[: len(oracle)]] == [r for r, _ in oracle]
        for (_, got), (_, want) in zip(seen, oracle):
            assert self.close(got, want), (got, want)
        if isinstance(sites, ConvergenceError):
            assert seen == seen[: len(oracle)]
            assert str(shells) == str(sites)
            assert self.close(shells.last_partial, sites.last_partial)
            assert shells.tail_estimate == sites.tail_estimate or self.close(
                shells.tail_estimate, sites.tail_estimate
            )
            return sites
        stop = next(r for r, b in seen if b <= tail_tol)
        assert stop == oracle[-1][0]
        assert (shells.sites_consumed, shells.rigorous) == (sites.sites_consumed, sites.rigorous)
        assert self.close(shells.tail_bound, sites.tail_bound)
        assert self.close(shells.matrix, sites.matrix)
        return sites

    @pytest.mark.parametrize("tail_tol", [0.0, 1e-12, "early"], ids=["exact-tail", "default", "early"])
    @pytest.mark.parametrize("nu, radius, holes", TABLES)
    def test_matches_site_walk(self, nu, radius, holes, tail_tol):
        fam, missing = self.family(nu, radius, holes)
        early = tail_tol == "early"
        if early:
            # between the oracle's bounds at two radii inside the tail
            # radius, far from both against rounding
            bounds = dict(self.walk(fam, (), exhaustion=Zd(nu), tail_tol=0.0)[1])
            assert bounds[radius - 2] < bounds[radius - 3] * (1 - 1e-6)
            tail_tol = math.sqrt(bounds[radius - 3] * bounds[radius - 2])
        origin = (0,) * nu
        declared = [s for s in Zd(nu).first(9) if s in fam.table.rows][1::2]
        beyond = (radius + 2,) + origin[1:]
        regions = [(), (origin,), tuple(declared), tuple(missing[:4]), (beyond,),
                   tuple(declared[:2] + missing[-3:]) + (beyond, (-radius - 5,) + origin[1:])]
        covered = set()
        for region in regions:
            result = self.assert_same_walk(fam, region, tail_tol)
            assert result.rigorous
            covered.add(result.sites_consumed + sum(lattice.norm1(x) <= radius for x in region))
        if tail_tol == 0.0:
            # only the exact tail settles: every walk covers the ball
            assert covered == {ball_size(nu, radius)}
        if early:
            assert max(covered) < ball_size(nu, radius)

    @pytest.mark.parametrize(
        "cap",
        [0, ball_size(1, 20) - 1, ball_size(1, SHELL_BLOCK - 2), ball_size(1, SHELL_BLOCK - 1)],
        ids=["shell-0", "mid-block", "last-of-block", "first-of-next"],
    )
    @pytest.mark.parametrize("holes", [0, 9])
    def test_site_cap_matches_site_walk(self, cap, holes):
        fam, missing = self.family(1, 70, holes)
        for region in ((), ((3,), (SHELL_BLOCK - 1,)), tuple(missing[:3])):
            err = self.assert_same_walk(fam, region, tail_tol=0.0, site_cap=cap)
            assert isinstance(err, ConvergenceError), region

    @pytest.mark.parametrize("nu, radius", [(2, 12), (3, 6)])
    def test_site_cap_in_higher_dimensions(self, nu, radius):
        fam, missing = self.family(nu, radius, 20)
        for cap in (0, ball_size(nu, 3) - 2, ball_size(nu, 5)):
            err = self.assert_same_walk(fam, tuple(missing[:2]), tail_tol=0.0, site_cap=cap)
            assert isinstance(err, ConvergenceError)

    def test_table_is_kept_in_walk_order(self):
        fam, missing = self.family(2, 12, 40)
        order = [s for r in range(13) for s in lattice.shell(2, r) if s not in missing]
        assert sorted(fam.table.rows, key=fam.table.rows.get) == order
        assert fam.table.radii.tolist() == [lattice.norm1(s) for s in order]
        for s in order[::17]:
            row = fam.table.rows[s]
            assert np.array_equal(fam.gram(s), fam.table.grams[row])
        # a site off the table carries the identity basis
        assert np.array_equal(fam.vectors(missing[0]), np.eye(2))

    def test_walk_visits_no_site(self, monkeypatch):
        fam, missing = self.family(2, 12, 40)
        asked = []
        gram = FiberFamily.gram
        monkeypatch.setattr(FiberFamily, "gram", lambda f, s: asked.append(s) or gram(f, s))
        boundary_matrix(fam, ((0, 0), missing[0]), tail_tol=0.0)
        assert asked == [] and fam._by_site == {}



class TestHomogeneousShells:
    """A homogeneous lattice family serves every site from its radial
    shells, the tuple over its largest norm; its canonical walk takes
    shells and visits no site."""

    TUPLES = {
        "diagonal": np.diag([2.0, 1.0]),
        "complex": complex_gaussian(rng_from_seed(61), (3, 4)),
    }

    @pytest.mark.parametrize("name", list(TUPLES))
    def test_far_site_gram_is_the_normalized_tuples(self, name):
        v = np.asarray(self.TUPLES[name], dtype=complex)
        unit = v / np.linalg.norm(v, axis=1).max()
        nu = 1 if name == "diagonal" else 2
        fam = FiberFamily.homogeneous(v, Zd(nu))
        for r in (0, 5, SHELL_BLOCK + 3, 10**6):
            site = (r,) + (0,) * (nu - 1)
            assert fam.vectors(site).tobytes() == unit.tobytes()
            assert fam.gram(site).tobytes() == (unit @ unit.conj().T).tobytes()

    @pytest.mark.parametrize("name", list(TUPLES))
    def test_walk_takes_shells(self, name, monkeypatch):
        v = self.TUPLES[name]
        nu = 1 if name == "diagonal" else 2
        region = ((0,) * nu, (3,) + (0,) * (nu - 1))
        oracle = boundary_matrix(FiberFamily.homogeneous(v, Zd(nu)), region, exhaustion=Zd(nu))
        fam = FiberFamily.homogeneous(v, Zd(nu))
        asked = []
        gram = FiberFamily.gram
        monkeypatch.setattr(FiberFamily, "gram", lambda f, s: asked.append(s) or gram(f, s))
        got = boundary_matrix(fam, region)
        assert asked == [] and fam._by_site == {}
        assert got.matrix.tobytes() == oracle.matrix.tobytes()
        assert (got.tail_bound, got.sites_consumed, got.rigorous) == (0.0, 0, True)

STACKED_FAMILIES = {
    **{
        f"radial-nu{nu}-{'normalized' if normalize else 'raw'}": (
            lambda nu=nu, normalize=normalize: (rescaled_origin_family if normalize else decaying_perturbation_family)(
                nu=nu, **({"decay": 0.2} if nu == 3 else {})
            )
        )
        for nu in (1, 2, 3)
        for normalize in (False, True)
    },
    **{
        f"table-nu{nu}": (
            lambda nu=nu, radius=radius: build_from_generators(
                decaying_generator_spec(seed=5, radius=radius, d=2, nu=nu)
            )
        )
        for nu, radius in ((1, 70), (2, 12), (3, 6))
    },
}


class TestStackedWalk:
    """``boundary_matrices`` walks a list of regions side by side; each
    result must be the one-region walk's, bit for bit."""

    @staticmethod
    def regions(nu):
        origin = (0,) * nu

        def at(r, sign=1):
            return (sign * r,) + origin[1:]

        one_shell = (at(2), at(2, -1)) + (((0, 2) + origin[2:],) if nu > 1 else ())
        return [
            (),
            (origin,),
            (origin,),  # repeated
            (at(1), origin),
            (origin, at(1)),  # the same sites in another order
            one_shell,  # several sites of one shell
            (at(SHELL_BLOCK + 1),),  # block 1
            (at(1), at(SHELL_BLOCK - 1), at(SHELL_BLOCK), at(3 * SHELL_BLOCK + 5)),
        ]

    @staticmethod
    def recording(monkeypatch):
        """The region lists every stacked walk is handed, from here on."""
        calls, walk = [], limit._walk

        def recorded(family, regions, *args):
            calls.append(list(regions))
            return walk(family, regions, *args)

        monkeypatch.setattr(limit, "_walk", recorded)
        return calls

    @staticmethod
    def same(got, want):
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert (got.tail_bound, got.sites_consumed, got.rigorous) == (
            want.tail_bound, want.sites_consumed, want.rigorous,
        )

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-14])
    @pytest.mark.parametrize("name", list(STACKED_FAMILIES))
    def test_matches_one_region_walks(self, name, tail_tol, monkeypatch):
        fam = STACKED_FAMILIES[name]()
        regions = self.regions(fam.geometry.nu)
        calls = self.recording(monkeypatch)
        got = boundary_matrices(fam, regions, tail_tol=tail_tol)
        # one walk, of each distinct site set once, in list order
        distinct = list(dict.fromkeys(frozenset(r) for r in regions))
        assert [[frozenset(r) for r in call] for call in calls] == [distinct]
        for region, result in zip(regions, got):
            self.same(result, _boundary_walk(fam, region, None, tail_tol, SITE_CAP))
            # every result is cached: asking again walks nothing
            assert boundary_matrix(fam, region, tail_tol=tail_tol).matrix is result.matrix
            assert not result.matrix.flags.writeable
        calls.clear()
        again = boundary_matrices(fam, regions[::-1], tail_tol=tail_tol)
        assert calls == []
        for region, result in zip(regions[::-1], again):
            self.same(result, got[regions.index(region)])

    @pytest.mark.parametrize("name", list(STACKED_FAMILIES))
    def test_agrees_with_site_walk(self, name):
        fam = STACKED_FAMILIES[name]()
        nu = fam.geometry.nu
        regions = list(dict.fromkeys(self.regions(nu)))
        for region, got in zip(regions, boundary_matrices(fam, regions, tail_tol=1e-14)):
            oracle = boundary_matrix(fam, region, exhaustion=Zd(nu), tail_tol=1e-14)
            gap = float(np.max(np.abs(got.matrix - oracle.matrix)))
            assert gap <= got.tail_bound + oracle.tail_bound + 1e-13, (region, gap)
            assert got.rigorous and oracle.rigorous

    @pytest.mark.parametrize("name", list(STACKED_FAMILIES))
    def test_cap_raises_the_first_failing_region_alone(self, name):
        fam = STACKED_FAMILIES[name]()
        regions = self.regions(fam.geometry.nu)
        need = {r: _boundary_walk(fam, r, None, 1e-14, SITE_CAP).sites_consumed for r in regions}
        # the regions holding most sites inside the walked ball settle
        # within the cap, first in the list; every other one crosses it
        cap = min(need.values())
        regions.sort(key=need.get)
        assert need[regions[0]] == cap < need[regions[-1]]
        errors = []
        for region in regions:
            try:
                _boundary_walk(fam, region, None, 1e-14, cap)
            except ConvergenceError as exc:
                errors.append(exc)
        assert len(errors) == sum(need[r] > cap for r in regions)
        fresh = STACKED_FAMILIES[name]()
        with pytest.raises(ConvergenceError) as stacked:
            boundary_matrices(fresh, regions, tail_tol=1e-14, site_cap=cap)
        first = errors[0]
        assert str(stacked.value) == str(first)
        assert stacked.value.last_partial.tobytes() == first.last_partial.tobytes()
        assert stacked.value.tail_estimate == first.tail_estimate
        # the regions within the cap are cached all the same
        cached = {key[0] for key in fresh._boundary_cache}
        assert cached == {frozenset(r) for r in regions if need[r] <= cap}

    @pytest.mark.parametrize("name", [n for n in STACKED_FAMILIES if n.startswith("radial")])
    def test_a_step_past_the_cap_builds_nothing(self, name):
        # the cap admits exactly the sites outside the regions of the
        # blocks the family holds before the walk (block 0 if none: a raw
        # perturbed family holds the blocks its mass table read), so the
        # walk takes those blocks and fails at the next without building
        # its shells or their powers
        fam = STACKED_FAMILIES[name]()
        nu = fam.geometry.nu
        held = len(fam._blocks) or 1
        assert set(fam._blocks) <= set(range(held)) and not fam._powers
        cap = int(lattice.shell_sizes(nu, 0, held * SHELL_BLOCK).sum()) - 1
        origin, far = (0,) * nu, (held * SHELL_BLOCK,) + (0,) * (nu - 1)
        with pytest.raises(ConvergenceError):
            boundary_matrices(fam, [(origin,), (origin, far)], tail_tol=0.0, site_cap=cap)
        assert set(fam._blocks) == set(fam._powers) == set(range(held))


SHELL_LOOP_FAMILIES = {
    **{f"table-nu{nu}": STACKED_FAMILIES[f"table-nu{nu}"] for nu in (1, 2, 3)},
    "table-nu2-holes": lambda: TestTableWalk.family(2, 12, 40)[0],
    "generator_decay": lambda: load_model(MODELS / "generator_decay.json").family(),
    **{f"radial-nu{nu}-normalized": STACKED_FAMILIES[f"radial-nu{nu}-normalized"] for nu in (1, 2)},
}


class TestShellLoop:
    """Every canonical shell walk, one region or stacked, against the
    literal shell loop with table rows, bit for bit: generator tables
    (rows in many shells, and the identity off them) and the normalized
    perturbed family (its origin, a one-row table, and the raw family's
    shells)."""

    @staticmethod
    def regions(fam):
        return list(dict.fromkeys(TestStackedWalk.regions(fam.geometry.nu)))

    @staticmethod
    def tolerances(fam):
        # a generator table also settles on its exact tail alone
        return (1e-14,) if fam.table.radii.tolist() == [0] else (0.0, 1e-12)

    @pytest.mark.parametrize("name", list(SHELL_LOOP_FAMILIES))
    def test_walks_are_the_shell_loop(self, name):
        fam = SHELL_LOOP_FAMILIES[name]()
        regions = self.regions(fam)
        for tail_tol in self.tolerances(fam):
            stacked = boundary_matrices(SHELL_LOOP_FAMILIES[name](), regions, tail_tol=tail_tol)
            for region, got in zip(regions, stacked):
                kind, _, sites, matrix, bound = shell_loop(fam, region, tail_tol)
                assert kind == "stop"
                for result in (_boundary_walk(fam, region, None, tail_tol, SITE_CAP), got):
                    assert np.array_equal(result.matrix, matrix), (region, tail_tol)
                    assert (result.sites_consumed, result.tail_bound, result.rigorous) == (sites, bound, True)

    @pytest.mark.parametrize("name", list(SHELL_LOOP_FAMILIES))
    def test_capped_walks_are_the_shell_loop(self, name):
        fam = SHELL_LOOP_FAMILIES[name]()
        nu, regions = fam.geometry.nu, self.regions(fam)
        block = int(lattice.shell_sizes(nu, 0, SHELL_BLOCK).sum())
        for cap in (0, ball_size(nu, 2) - 1, block - 2, block + 5):
            walked = limit._walk(SHELL_LOOP_FAMILIES[name](), regions, None, 0.0, cap)
            for region, got in zip(regions, walked):
                kind, _, sites, p, bound = shell_loop(fam, region, 0.0, site_cap=cap)
                if kind == "stop":  # a generator table's exact tail within the cap
                    assert (got.sites_consumed, got.tail_bound) == (sites, 0.0)
                    assert np.array_equal(got.matrix, p)
                    continue
                one = limit._walk(fam, [region], None, 0.0, cap)[0]
                for result in (one, got):
                    assert isinstance(result, ConvergenceError), (region, cap)
                    assert np.array_equal(result.last_partial, p), (region, cap)
                    assert result.tail_estimate == bound
