import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from schurstates.errors import DimensionError, PreconditionError, ValidationError
from schurstates.homogeneous import (
    HomogeneousModel,
    finite_volume_normalized,
    generic_limit,
    overlaps,
)
from schurstates.kernel import FiberFamily
from schurstates.lattice import Sites, Zd
from schurstates.sampling import complex_gaussian, random_observable, rng_from_seed
from schurstates.state import LocalObservable, expectation_dense, expectation_schur

from oracles import constant_offdiagonal_vectors


def obs_on(rng, size, d=2):
    region = tuple(range(size))
    return LocalObservable(region, tuple(random_observable(rng, d) for _ in region))


class TestOverlaps:
    def test_orthonormal(self):
        model = HomogeneousModel(np.eye(3, dtype=complex))
        ov = overlaps(model)
        np.testing.assert_allclose(ov.matrix, np.eye(3))
        assert ov.beta_max == pytest.approx(1.0)
        assert model.dominance.largest == (0, 1, 2)

    def test_two_vector_example(self):
        # s = float(1/sqrt(2)) has 2 s^2 = 1 - 1.8e-16 exactly, so only
        # the first vector has the largest norm
        s = 1 / math.sqrt(2)
        model = HomogeneousModel(np.array([[1.0, 0.0], [s, s]]))
        ov = overlaps(model)
        np.testing.assert_allclose(ov.matrix, [[1.0, s], [s, 1.0]], atol=1e-15)
        assert ov.beta_max == pytest.approx(1.0)
        assert model.dominance.largest == (0,)

    def test_proportional_vectors(self):
        model = HomogeneousModel(np.array([[1.0, 0.0], [2.0, 0.0]]))
        ov = overlaps(model)
        np.testing.assert_allclose(ov.matrix, [[1.0, 2.0], [2.0, 4.0]])
        assert ov.beta_max == pytest.approx(4.0)
        assert model.dominance.largest == (1,)

    def test_max_on_diagonal(self):
        rng = rng_from_seed(5)
        for _ in range(30):
            model = HomogeneousModel(complex_gaussian(rng, (3, 3)))
            ov = overlaps(model)
            assert float(np.max(np.abs(ov.matrix))) <= ov.beta_max * (1 + 1e-12)

    @pytest.mark.parametrize("bad, message", [
        pytest.param(math.inf, "reference vectors: vector 0 is not finite",
                     id="inf-reference vector 0 is not finite"),
        pytest.param(math.nan, "reference vectors: vector 0 is not finite",
                     id="nan-reference vector 0 is not finite"),
        pytest.param(0.0, "reference vectors: vector 0 is zero", id="0.0-reference vector 0 is zero"),
        pytest.param(1e200, "reference vectors: vector 0 has a squared norm past the float64 range",
                     id="1e200-reference vector 0 overflows"),
    ])
    def test_faulty_vector_refused(self, bad, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            HomogeneousModel(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_vectors_must_form_a_2d_array(self):
        with pytest.raises(DimensionError, match="^reference vectors must form a 2-D array$"):
            HomogeneousModel(np.ones(2))

    @pytest.mark.parametrize("make", [HomogeneousModel, lambda v: FiberFamily.homogeneous(v, Zd(1))],
                             ids=["model", "lattice-family"])
    def test_empty_tuple_refused(self, make):
        with pytest.raises(DimensionError, match="^reference vectors: the tuple holds no vector$"):
            make(np.zeros((0, 2)))


class TestGenericCondition:
    """Generic: no two distinct reference vectors are parallel."""

    def test_orthonormal_true(self):
        assert not HomogeneousModel(np.eye(2, dtype=complex)).dominance.parallel

    def test_proportional_false(self):
        model = HomogeneousModel(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert model.dominance.parallel

    def test_partial_overlap_true(self):
        s = 1 / math.sqrt(2)
        model = HomogeneousModel(np.array([[1.0, 0.0], [s, s]]))
        assert not model.dominance.parallel


class TestDetectProduct:
    """Constant overlaps: the dominant pattern is all ones, so every
    reference vector is the same vector."""

    def test_all_ones(self):
        model = HomogeneousModel(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert model.dominance.pattern.all()

    def test_identity_false(self):
        assert not HomogeneousModel(np.eye(2, dtype=complex)).dominance.pattern.all()

    def test_factorization_when_constant(self, rng):
        # constant overlaps: the normalized two-site state splits into a
        # product of its single-site restrictions
        model = HomogeneousModel(np.array([[0.8, 0.6], [0.8, 0.6]], dtype=complex))
        assert model.dominance.pattern.all()
        fam = FiberFamily.homogeneous(model.vectors, Sites(("a", "b")))
        a = random_observable(rng, 2)
        b = random_observable(rng, 2)
        eye = np.eye(2, dtype=complex)
        psi_ab = expectation_schur(fam, LocalObservable(("a", "b"), (a, b)))
        psi_1 = expectation_schur(fam, LocalObservable(("a", "b"), (eye, eye)))
        psi_a1 = expectation_schur(fam, LocalObservable(("a", "b"), (a, eye)))
        psi_1b = expectation_schur(fam, LocalObservable(("a", "b"), (eye, b)))
        assert abs(psi_ab * psi_1 - psi_a1 * psi_1b) <= 1e-10 * max(
            1.0, abs(psi_a1 * psi_1b)
        )


class TestFiniteVolumeNormalized:
    def test_identity_is_one(self, rng):
        model = HomogeneousModel(complex_gaussian(rng, (2, 2)))
        obs = LocalObservable.identity((0, 1), 2)
        assert finite_volume_normalized(model, 5, obs) == pytest.approx(1.0)

    def test_single_index_product_form(self, rng):
        vec = complex_gaussian(rng, (1, 2))
        model = HomogeneousModel(vec)
        b = random_observable(rng, 2)
        obs = LocalObservable((0,), (b,))
        n2 = float(np.linalg.norm(vec[0]) ** 2)
        expected = complex(np.vdot(vec[0], b @ vec[0])) * n2**3 / n2**4
        assert finite_volume_normalized(model, 4, obs) == pytest.approx(expected)

    def test_matches_dense_oracle(self):
        rng = rng_from_seed(7)
        for _ in range(10):
            p = int(rng.integers(1, 4))
            model = HomogeneousModel(complex_gaussian(rng, (p, 2)))
            size = int(rng.integers(2, 7))
            inner = int(rng.integers(1, size + 1))
            region = tuple(range(size))
            fam = FiberFamily.homogeneous(model.vectors, Sites(region))
            obs = LocalObservable(
                region[:inner], tuple(random_observable(rng, 2) for _ in range(inner))
            )
            num = expectation_dense(fam, region, obs)
            den = expectation_dense(fam, region, LocalObservable.identity(region, 2))
            fv = finite_volume_normalized(model, size, obs)
            assert abs(fv - num / den) <= 1e-10 * max(1.0, abs(fv))

    def test_too_small_volume(self, rng):
        model = HomogeneousModel(complex_gaussian(rng, (2, 2)))
        obs = LocalObservable.identity((0, 1), 2)
        with pytest.raises(
            PreconditionError,
            match=r"^total volume 1 smaller than the observable region \(2 sites\)$",
        ):
            finite_volume_normalized(model, 1, obs)

    @pytest.mark.parametrize("n", [600, 2000])
    def test_volume_past_the_float_range(self, n):
        # M^n = 4^n I overflows, but (M / beta_max)^n = I: the net is its
        # limit at every volume, with no numpy warning
        model = HomogeneousModel(2 * np.eye(2))
        obs = LocalObservable((0,), (np.diag([1.0, 0.0]),))
        assert finite_volume_normalized(model, n, obs) == generic_limit(model, obs) == 0.5

    def test_weight_below_the_float_range(self):
        # M^n = 2^-n I underflows to 0 at n = 100000, where the weight was
        # once read as degenerate; (M / beta_max)^n = I
        model = HomogeneousModel(np.eye(2) / math.sqrt(2))
        obs = LocalObservable((0,), (np.diag([1.0, 0.0]),))
        assert finite_volume_normalized(model, 100000, obs) == generic_limit(model, obs) == 0.5

    def test_local_products_past_the_float_range(self):
        # factors 1e155 I on two sites: each local product of the tuple over
        # its largest norm is 1e310, past the float range, refused with no
        # numpy warning, by the net and by its limit alike
        model = HomogeneousModel(1e77 * np.eye(2))
        obs = LocalObservable((0, 1), (1e155 * np.eye(2),) * 2)
        message = r"^the observable's local products on 2 sites pass the float range$"
        with pytest.raises(PreconditionError, match=message):
            finite_volume_normalized(model, 4, obs)
        with pytest.raises(PreconditionError, match=message):
            generic_limit(model, obs)

    @pytest.mark.parametrize("volume", [0, 1, 6, 1001])
    def test_empty_region_is_one(self, volume):
        # the empty product over the weight: exactly 1 for the net at every
        # volume and for its limit, with a complex overlap in the weight
        model = HomogeneousModel(np.array([[1.0, 0.0], [0.5j, 1.0]]))
        obs = LocalObservable((), ())
        assert finite_volume_normalized(model, volume, obs) == generic_limit(model, obs) == 1.0 + 0.0j

    def test_large_norms(self):
        # beta_max = 1e300: the raw local products of the identity on two
        # sites, 1e600, would overflow; those of the tuple over its largest
        # norm are 1, and the net and its limit are 1, with no numpy warning
        model = HomogeneousModel(1e150 * np.eye(2))
        obs = LocalObservable.identity((0, 1), 2)
        assert finite_volume_normalized(model, 4, obs) == generic_limit(model, obs) == 1.0

    @pytest.mark.parametrize("n", [4, 100, 1000, 10**6 + 1])
    def test_weight_within_its_rounding_is_degenerate(self, n):
        # (h, w h, w^2 h) with w = e^(2 pi i / 3): the weight 3 (1 + w^n +
        # w^2n) is exactly 0 unless 3 divides n, but float64 w leaves a
        # residue that grows with n, about 0.05 n eps sum|U^n|
        w = np.exp(2j * np.pi / 3)
        model = HomogeneousModel(np.array([[1.0, 0.0], [w, 0.0], [w * w, 0.0]]))
        obs = LocalObservable((0,), (np.diag([1.0, 0.0]),))
        with pytest.raises(PreconditionError, match=rf"^normalization weight .* is degenerate for volume {n}$"):
            finite_volume_normalized(model, n, obs)
        # at n = 999 the weight is 9, and the projection's value 1
        assert finite_volume_normalized(model, 999, obs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("c, n", [(-1, 101), (-1, 100001), (1j, 100002)])
    def test_cancelling_weight_is_degenerate(self, c, n):
        # (h, c h) with c = -1 at odd n, or c = i at n = 2 mod 4: the
        # weight 2 + c^n + conj(c)^n is exactly 0, and the powers keep it 0
        # past n = 100, where a complex np.power drifts by n roundings
        model = HomogeneousModel(np.array([[1.0, 0.0], [c, 0.0]]))
        obs = LocalObservable((0,), (np.diag([1.0, 0.0]),))
        with pytest.raises(PreconditionError, match=rf"^normalization weight 0j is degenerate for volume {n}$"):
            finite_volume_normalized(model, n, obs)


class TestGenericLimit:
    def test_orthonormal_uniform_mixture(self, rng):
        model = HomogeneousModel(np.eye(2, dtype=complex))
        b = random_observable(rng, 2)
        obs = LocalObservable((0,), (b,))
        expected = 0.5 * (b[0, 0] + b[1, 1])
        assert generic_limit(model, obs) == pytest.approx(complex(expected))

    def test_projector_half(self):
        model = HomogeneousModel(np.eye(2, dtype=complex))
        proj = np.array([[1.0, 0.0], [0.0, 0.0]])
        obs = LocalObservable((0,), (proj,))
        assert generic_limit(model, obs) == pytest.approx(0.5)

    def test_requires_a_limit(self, rng):
        # a parallel pair of unequal norms has a limit, the longer
        # vector's product state; equal norms and a factor -1 have none
        b = random_observable(rng, 2)
        obs = LocalObservable((0,), (b,))
        model = HomogeneousModel(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert generic_limit(model, obs) == pytest.approx(complex(b[0, 0]))
        model = HomogeneousModel(np.array([[2.0, 0.0], [-2.0, 0.0]]))
        with pytest.raises(PreconditionError, match="has no limit"):
            generic_limit(model, obs)

    def test_finite_volume_converges(self):
        rng = rng_from_seed(11)
        checked = 0
        for _ in range(10):
            model = HomogeneousModel(complex_gaussian(rng, (2, 2)))
            ov = overlaps(model)
            if model.dominance.parallel:
                continue
            # decay rate is the largest overlap ratio off the argmax
            # diagonal; pick the volume from it
            diag_max = {(i, i) for i in model.dominance.largest}
            ratio = max(
                abs(ov.matrix[i, j]) / ov.beta_max
                for i in range(2)
                for j in range(2)
                if (i, j) not in diag_max
            )
            if ratio > 0.9:
                continue
            n = int(np.ceil(np.log(1e-8) / np.log(ratio))) + 2
            obs = obs_on(rng, 2)
            lim = generic_limit(model, obs)
            gap = abs(finite_volume_normalized(model, n, obs) - lim)
            assert gap <= 1e-6 * max(1.0, abs(lim)), (ratio, n, gap)
            checked += 1
        assert checked >= 3

    def test_convex_combination_of_multiplicative_components(self, rng):
        # each argmax component is multiplicative across disjoint sites
        model = HomogeneousModel(np.array([[1.0, 0.0], [0.5 + 0.5j, 0.5 - 0.5j]]))
        a = random_observable(rng, 2)
        b = random_observable(rng, 2)
        joint = generic_limit(model, LocalObservable((0, 1), (a, b)))
        va = generic_limit(model, LocalObservable((0,), (a,)))
        vb = generic_limit(model, LocalObservable((0,), (b,)))
        # both vectors are unit norm: argmax = {0, 1}; mixture of two
        # product states is not itself multiplicative, but each component is
        v = model.vectors
        comp = [
            np.vdot(v[i], a @ v[i]) * np.vdot(v[i], b @ v[i]) for i in range(2)
        ]
        assert joint == pytest.approx(0.5 * (comp[0] + comp[1]))
        assert va == pytest.approx(0.5 * sum(np.vdot(v[i], a @ v[i]) for i in range(2)))
        assert vb == pytest.approx(0.5 * sum(np.vdot(v[i], b @ v[i]) for i in range(2)))

    def test_scaling_invariance(self, rng):
        base = complex_gaussian(rng, (2, 3))
        model = HomogeneousModel(base)
        scaled = HomogeneousModel(1.7 * base)
        assert model.dominance.largest == scaled.dominance.largest
        obs = LocalObservable((0, 1), (random_observable(rng, 3), random_observable(rng, 3)))
        if not model.dominance.parallel:
            a = generic_limit(model, obs)
            b = generic_limit(scaled, obs)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestRealOverlapLimit:
    """The non-generic case: ``generic_limit`` sums over every dominant
    pair, off-diagonal ones included."""

    def test_orthonormal_matches_generic(self, rng):
        model = HomogeneousModel(np.eye(2, dtype=complex))
        b = random_observable(rng, 2)
        assert np.array_equal(model.dominance.pattern, np.eye(2))
        assert generic_limit(model, LocalObservable((0,), (b,))) == pytest.approx(0.5 * (b[0, 0] + b[1, 1]))

    def test_repeated_vector_pairs(self, rng):
        # h_0 = h_1: the pairs (0, 1) and (1, 0) dominate with the diagonal
        model = HomogeneousModel(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        b = random_observable(rng, 2)
        obs = LocalObservable((0,), (b,))
        assert model.dominance.pattern.sum() == 5
        lim = generic_limit(model, obs)
        assert lim == pytest.approx((4 * b[0, 0] + b[1, 1]) / 5)
        assert abs(finite_volume_normalized(model, 7, obs) - lim) <= 1e-12

    def test_offdiagonal_maximizers_enumerated(self, rng):
        # constant-offdiagonal family at c = 1: three of the four overlap
        # entries hit the maximum only for p = 2 with unit-norm tweak;
        # use the plain family and check the maximizer set arithmetic
        vecs = constant_offdiagonal_vectors(2, 1.0)
        model = HomogeneousModel(vecs)
        ov = overlaps(model)
        # gram is [[1, 1], [1, 2]]: single maximizer (1, 1)
        assert ov.beta_max == pytest.approx(2.0)
        b = random_observable(rng, 2)
        obs = LocalObservable((0,), (b,))
        val = generic_limit(model, obs)
        v1 = vecs[1]
        assert val == pytest.approx(complex(np.vdot(v1, b @ v1)) / 2.0)

    def test_matches_finite_volume(self):
        # norms grow along the family, so the second-largest overlap
        # ratio is ~0.95 and the finite volume must be large
        rng = rng_from_seed(13)
        vecs = constant_offdiagonal_vectors(3, 0.5)
        model = HomogeneousModel(vecs)
        obs = LocalObservable((0,), (random_observable(rng, 3),))
        lim = generic_limit(model, obs)
        fv = finite_volume_normalized(model, 400, obs)
        assert abs(fv - lim) <= 1e-6 * max(1.0, abs(lim))

    def test_complex_overlaps_served(self):
        # a complex overlap below the maximum decays like any other: the
        # limit is the longer vector's product state, as the net shows
        model = HomogeneousModel(np.array([[1.0, 0.0], [0.5j, 1.0]]))
        obs = LocalObservable((0,), (np.diag([1.0, 0.0]),))
        assert model.dominance.largest == (1,)
        lim = generic_limit(model, obs)
        assert lim == pytest.approx(0.25 / 1.25)
        assert abs(finite_volume_normalized(model, 400, obs) - lim) <= 1e-12

    def test_negative_maximum_rejected(self):
        # h_1 = -h_0: the overlap -beta_max makes the finite-volume ratio
        # oscillate (its weight vanishes at every odd volume)
        model = HomogeneousModel(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        obs = LocalObservable((0,), (np.eye(2),))
        with pytest.raises(PreconditionError, match="has no limit"):
            generic_limit(model, obs)
        with pytest.raises(PreconditionError, match="degenerate"):
            finite_volume_normalized(model, 5, obs)


ENTRY = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@seed(34)
@settings(max_examples=200, deadline=None, database=None)
@given(
    st.lists(ENTRY, min_size=4, max_size=4),
    st.lists(ENTRY, min_size=8, max_size=8),
    st.integers(1, 2),
)
def test_net_within_its_decay_of_the_limit(entries, factors, size):
    """For two vectors, no two parallel, the net at N = 200 lies within
    C * rho^(N - |region|) of the limit, where rho < 1 is the largest
    off-pattern |M_ij| / beta_max: with U = M / beta_max the net is
    (sum_P local + e) / beta_max^|region| / (|P| + e'), with |e| at most
    the off-pattern sum of |local| times rho^(N - |region|), and |e'| at
    most the off-pattern count times rho^N."""
    v = np.array(entries).reshape(2, 2)
    assume(np.linalg.norm(v, axis=1).min() >= 0.1)
    model = HomogeneousModel(v)
    assume(not model.dominance.parallel)
    m = v @ v.conj().T
    beta = m.diagonal().real.max()
    pattern = model.dominance.pattern
    rest = ~pattern
    rho = np.abs(m[rest]).max() / beta
    n = 200
    assume(rest.sum() * rho**n <= 0.5)
    obs = LocalObservable(tuple(range(size)), tuple(np.array(factors).reshape(2, 2, 2)[:size]))
    local = np.prod([v @ b.T @ v.conj().T for b in obs.factors], axis=0)  # <h_j, b h_i> at [i, j]
    lim = generic_limit(model, obs)
    c = (np.abs(local[rest]).sum() / beta**size + abs(lim) * rest.sum()) / (pattern.sum() - rest.sum() * rho**n)
    gap = abs(finite_volume_normalized(model, n, obs) - lim)
    assert gap <= c * rho ** (n - size) + 1e-12 * max(1.0, abs(lim)), (gap, c, rho)


class TestConstantOffdiagonal:
    def test_p2_example(self):
        vecs = constant_offdiagonal_vectors(2, 0.5)
        np.testing.assert_allclose(vecs, [[1.0, 0.0], [0.5, 1.0]])
        assert np.vdot(vecs[0], vecs[1]) == pytest.approx(0.5)

    def test_p3_recursion(self):
        vecs = constant_offdiagonal_vectors(3, 0.5)
        # second coefficient: c - c^2 = 0.25
        np.testing.assert_allclose(vecs[2, :2], [0.5, 0.25])
        assert np.vdot(vecs[1], vecs[2]) == pytest.approx(0.5)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_constant_offdiagonal_and_full_rank(self, p, c):
        vecs = constant_offdiagonal_vectors(p, c)
        g = vecs @ vecs.conj().T
        off = g[~np.eye(p, dtype=bool)]
        assert np.max(np.abs(off - c)) <= 1e-12
        assert np.linalg.matrix_rank(vecs, tol=1e-10) == p

    def test_needs_two_vectors(self):
        with pytest.raises(ValidationError, match="^need at least two vectors, got p=1$"):
            constant_offdiagonal_vectors(1, 0.5)

    def test_needs_enough_dimensions(self):
        with pytest.raises(DimensionError):
            constant_offdiagonal_vectors(4, 0.5, dim=3)

    def test_rejects_bad_constant(self):
        with pytest.raises(ValidationError):
            constant_offdiagonal_vectors(3, 0.0)
        with pytest.raises(ValidationError):
            constant_offdiagonal_vectors(3, 1.5)
