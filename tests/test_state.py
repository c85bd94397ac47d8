import math

import numpy as np
import pytest

from schurstates.errors import (
    DimensionError,
    GeometryError,
    ResourceLimitError,
    ValidationError,
)
from schurstates.kernel import FiberFamily
from schurstates.sampling import complex_gaussian, random_family, rng_from_seed
from schurstates.state import (
    DEFAULT_DENSE_CAP,
    LocalObservable,
    expectation_dense,
    expectation_extended,
    expectation_schur,
    superposition_vector,
)

from conftest import make_family


def orthonormal_family(sites, d=2):
    return FiberFamily.explicit({s: np.eye(d, dtype=complex) for s in sites})


class TestLocalObservable:
    def test_duplicate_sites(self):
        with pytest.raises(ValidationError):
            LocalObservable(("a", "a"), (np.eye(2), np.eye(2)))

    def test_factor_shape(self):
        with pytest.raises(Exception):
            LocalObservable(("a", "b"), (np.eye(2), np.eye(3)))

    def test_factor_count_must_match_the_region(self):
        with pytest.raises(DimensionError, match=r"^2 sites vs 1 factors$"):
            LocalObservable(("a", "b"), (np.eye(2),))

    def test_non_finite_factor(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match=r"^factor at site 'b' has non-finite entries$"):
            LocalObservable(("a", "b"), (np.eye(2), bad))

    def test_identity_constructor(self):
        obs = LocalObservable.identity(("a", "b"), 2)
        assert obs.region == ("a", "b")
        np.testing.assert_allclose(obs.factors[1], np.eye(2))

    def test_checked_factors_are_taken_as_they_are(self):
        # factors of validated observables are neither converted nor
        # checked again; the region still is
        a = LocalObservable(("a",), (np.eye(2),))
        b = LocalObservable(("b", "c"), (np.ones((2, 2)), 2 * np.eye(2)))
        joint = LocalObservable.of_checked(a.region + b.region, a.factors + b.factors)
        assert joint.region == ("a", "b", "c")
        assert all(x is y for x, y in zip(joint.factors, a.factors + b.factors))
        with pytest.raises(ValidationError, match="duplicate sites"):
            LocalObservable.of_checked(("a", "a"), a.factors * 2)


class TestSuperpositionVector:
    def test_single_index_is_product(self, rng):
        fam = make_family(2, ["a", "b"], 2, 1)
        psi = superposition_vector(fam, ("a", "b"))
        expected = np.kron(fam.vectors("a")[0], fam.vectors("b")[0])
        np.testing.assert_allclose(psi, expected)

    def test_orthonormal_norm(self):
        for d_I in (1, 2, 3):
            fam = FiberFamily.explicit(
                {s: np.eye(3, dtype=complex)[:d_I] for s in "abc"}
            )
            psi = superposition_vector(fam, tuple("abc"))
            assert np.vdot(psi, psi).real == pytest.approx(d_I)

    def test_two_site_norm_value(self):
        # overlaps 1 and 1/sqrt(2): norm^2 = sum of squared gram entries = 3
        s = 1 / math.sqrt(2)
        vecs = np.array([[1.0, 0.0], [s, s]])
        fam = FiberFamily.explicit({0: vecs, 1: vecs})
        psi = superposition_vector(fam, (0, 1))
        assert np.vdot(psi, psi).real == pytest.approx(3.0)
        # independent brute-force oracle over explicit amplitudes
        amp = np.kron(vecs[0], vecs[0]) + np.kron(vecs[1], vecs[1])
        assert np.vdot(psi, psi).real == pytest.approx(float(np.vdot(amp, amp).real))

    def test_site_major_ordering(self, rng):
        fam = make_family(4, ["a", "b"], 2, 2)
        psi = superposition_vector(fam, ("a", "b"))
        va, vb = fam.vectors("a"), fam.vectors("b")
        manual = va[0][:, None] * vb[0][None, :] + va[1][:, None] * vb[1][None, :]
        np.testing.assert_allclose(psi.reshape(fam.d, fam.d), manual)

    @pytest.mark.parametrize(
        "region, message", [((), "empty region"), (("a", "b", "a"), "region has duplicate sites")]
    )
    def test_region_refused(self, region, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            superposition_vector(orthonormal_family("ab"), region)

    def test_cap(self, rng):
        fam = make_family(4, list(range(10)), 2, 2)
        with pytest.raises(ResourceLimitError, match=r"2\^9 = 512"):
            superposition_vector(fam, tuple(range(9)))


def per_index_amplitudes(family, region):
    """The per-index outer-product loop: sum over i of the C-order
    tensor product h(x1,i) (x) ... (x) h(xk,i), added in index order."""
    amp = np.zeros((family.d,) * len(region), dtype=complex)
    for i in range(family.d_I):
        term = np.ones((), dtype=complex)
        for x in region:
            term = np.multiply.outer(term, family.vectors(x)[i])
        amp = amp + term
    return amp.reshape(-1)


class TestSuperpositionStack:
    @pytest.mark.parametrize("d_I", range(1, 6))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_matches_the_per_index_loop(self, d, d_I):
        rng = rng_from_seed(300 + 10 * d + d_I)
        for size in (1, 2, 3, 4):
            region = tuple(range(size))
            fam = random_family(rng, region, d, d_I)
            got = superposition_vector(fam, region)
            want = per_index_amplitudes(fam, region)
            if d > 1:
                np.testing.assert_array_equal(got, want)
            else:
                # one amplitude: the loop multiplies one element per numpy
                # call and the stack d_I elements; numpy may pick different
                # loops for the two (with and without a fused multiply-add)
                np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)


class TestDensityStructure:
    def test_rank_one_blocks(self, rng):
        # |Psi><Psi| equals the double sum of per-site rank-one tensor factors
        for size in (1, 2, 3):
            region = tuple(range(size))
            fam = make_family(50 + size, region, 2, 2)
            psi = superposition_vector(fam, region)
            dense = np.outer(psi, psi.conj())
            manual = np.zeros_like(dense)
            for i in range(2):
                for j in range(2):
                    term = np.ones((1, 1), dtype=complex)
                    for x in region:
                        v = fam.vectors(x)
                        term = np.kron(term, np.outer(v[i], v[j].conj()))
                    manual += term
            np.testing.assert_allclose(dense, manual, atol=1e-12)


class TestExpectations:
    def test_identity_gives_norm(self, rng):
        fam = make_family(6, ["a", "b", "c"], 2, 3)
        region = ("a", "b", "c")
        obs = LocalObservable.identity(region, 2)
        psi = superposition_vector(fam, region)
        val = expectation_schur(fam, obs)
        assert val == pytest.approx(np.vdot(psi, psi).real)
        assert expectation_dense(fam, region, obs) == pytest.approx(np.vdot(psi, psi).real)

    def test_single_index_product_form(self, rng):
        fam = make_family(8, ["a", "b", "c"], 2, 1)
        obs = LocalObservable(
            ("a", "b"), tuple(complex_gaussian(rng, (2, 2)) for _ in range(2))
        )
        v = {s: fam.vectors(s)[0] for s in "abc"}
        expected = (
            np.vdot(v["a"], obs.factors[0] @ v["a"])
            * np.vdot(v["b"], obs.factors[1] @ v["b"])
            * np.vdot(v["c"], v["c"])
        )
        assert expectation_dense(fam, ("a", "b", "c"), obs) == pytest.approx(expected)
        assert expectation_extended(fam, ("a", "b", "c"), obs) == pytest.approx(expected)

    def test_single_site_identity_is_sum_vector_norm(self, rng):
        # sum of all gram entries = squared norm of the summed vectors
        fam = make_family(9, ["a"], 3, 3)
        obs = LocalObservable.identity(("a",), 3)
        total = fam.vectors("a").sum(axis=0)
        assert expectation_schur(fam, obs) == pytest.approx(
            complex(np.vdot(total, total))
        )

    def test_schur_matches_dense(self):
        rng = rng_from_seed(77)
        for k in range(30):
            d = int(rng.integers(2, 4))
            d_I = int(rng.integers(2, 4))
            size = int(rng.integers(1, 7))
            region = tuple(range(size))
            fam = random_family(rng, region, d, d_I)
            obs = LocalObservable(
                region, tuple(complex_gaussian(rng, (d, d)) for _ in region)
            )
            fast = expectation_schur(fam, obs)
            dense = expectation_dense(fam, region, obs)
            assert abs(fast - dense) <= 1e-10 * max(1.0, abs(dense)), (k, fast, dense)

    @pytest.mark.parametrize("seed", range(8))
    def test_schur_matches_dense_on_random_subsets(self, seed):
        # seeded subsets of a 10-site family in seeded orders, every size
        # up to the dense cap; the extended path evaluates an observable on
        # part of the subset, identity on the rest
        rng = rng_from_seed(83, seed)
        sites = tuple("abcdefghij")
        fam = random_family(rng, sites, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        for size in range(1, DEFAULT_DENSE_CAP + 1):
            region = tuple(sites[k] for k in rng.permutation(len(sites))[:size])
            obs = LocalObservable(
                region, tuple(complex_gaussian(rng, (fam.d, fam.d)) for _ in region)
            )
            dense = expectation_dense(fam, region, obs)
            scale = max(1.0, abs(dense))
            assert abs(expectation_schur(fam, obs) - dense) <= 1e-10 * scale, (size, region)
            inner = LocalObservable(region[: (size + 1) // 2], obs.factors[: (size + 1) // 2])
            dense = expectation_dense(fam, region, inner)
            ext = expectation_extended(fam, region, inner)
            assert abs(ext - dense) <= 1e-10 * max(1.0, abs(dense)), (size, region)

    def test_extended_matches_dense(self):
        rng = rng_from_seed(79)
        for k in range(30):
            d = int(rng.integers(2, 4))
            d_I = int(rng.integers(2, 4))
            full = tuple(range(4))
            inner = full[: int(rng.integers(1, 4))]
            fam = random_family(rng, full, d, d_I)
            obs = LocalObservable(
                inner, tuple(complex_gaussian(rng, (d, d)) for _ in inner)
            )
            ext = expectation_extended(fam, full, obs)
            dense = expectation_dense(fam, full, obs)
            assert abs(ext - dense) <= 1e-10 * max(1.0, abs(dense)), (k, ext, dense)

    def test_extended_equalregion_is_schur(self, rng):
        fam = make_family(10, ["a", "b"], 2, 2)
        obs = LocalObservable(
            ("a", "b"), tuple(complex_gaussian(rng, (2, 2)) for _ in range(2))
        )
        assert expectation_extended(fam, ("a", "b"), obs) == pytest.approx(
            expectation_schur(fam, obs)
        )

    def test_orthonormal_extension_invariance(self, rng):
        # orthonormal tails contribute Kronecker factors: enlarging the
        # region never changes the value
        fam = orthonormal_family(tuple("abcd"))
        obs = LocalObservable(("a",), (complex_gaussian(rng, (2, 2)),))
        v2 = expectation_extended(fam, ("a", "b"), obs)
        v4 = expectation_extended(fam, ("a", "b", "c", "d"), obs)
        assert v2 == pytest.approx(v4)

    def test_positivity(self):
        rng = rng_from_seed(83)
        for _ in range(20):
            region = tuple(range(3))
            fam = random_family(rng, region, 2, 2)
            factors = []
            for _ in region:
                c = complex_gaussian(rng, (2, 2))
                factors.append(c.conj().T @ c)
            val = expectation_schur(fam, LocalObservable(region, tuple(factors)))
            scale = max(1.0, abs(val))
            assert val.real >= -1e-10 * scale
            assert abs(val.imag) <= 1e-10 * scale

    def test_region_not_contained(self, rng):
        fam = make_family(12, ["a", "b"], 2, 2)
        obs = LocalObservable(("b",), (np.eye(2),))
        message = r"^observable sites \['b'\] outside region$"
        with pytest.raises(GeometryError, match=message):
            expectation_dense(fam, ("a",), obs)
        with pytest.raises(GeometryError, match=message):
            expectation_extended(fam, ("a",), obs)

    def test_empty_observable_refused_by_the_fast_path(self):
        with pytest.raises(ValidationError, match="^empty observable region$"):
            expectation_schur(orthonormal_family("ab"), LocalObservable((), ()))

    def test_extended_region_with_a_repeated_site(self):
        obs = LocalObservable(("a",), (np.eye(2),))
        with pytest.raises(ValidationError, match="^region has duplicate sites$"):
            expectation_extended(orthonormal_family("ab"), ("a", "b", "a"), obs)


class TestMultiplicativity:
    def test_product_for_single_index(self, rng):
        fam = make_family(14, ["a", "b"], 2, 1)
        oa = LocalObservable(("a",), (complex_gaussian(rng, (2, 2)),))
        ob = LocalObservable(("b",), (complex_gaussian(rng, (2, 2)),))
        joint = LocalObservable(("a", "b"), (oa.factors[0], ob.factors[0]))
        lhs = expectation_schur(fam, joint)
        rhs = expectation_schur(fam, oa) * expectation_schur(fam, ob)
        assert lhs == pytest.approx(rhs)

    def test_violated_for_two_indices(self):
        # explicit witness: the index sum correlates the two sites, so
        # opposite projectors see 0 jointly but 1 as a product
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
        fam = FiberFamily.explicit({"a": vecs, "b": vecs})
        proj0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        proj1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        oa = LocalObservable(("a",), (proj0,))
        ob = LocalObservable(("b",), (proj1,))
        joint = LocalObservable(("a", "b"), (proj0, proj1))
        lhs = expectation_schur(fam, joint)
        rhs = expectation_schur(fam, oa) * expectation_schur(fam, ob)
        assert lhs == pytest.approx(0.0)
        assert rhs == pytest.approx(1.0)

