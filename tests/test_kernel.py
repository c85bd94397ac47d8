import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from schurstates.errors import ConvergenceError, DimensionError, GeometryError, ValidationError
from schurstates.kernel import (
    SHELL_BLOCK,
    ZERO_VECTOR_TOL,
    FarFieldTail,
    FiberFamily,
    _kernel_stack,
    certify_cp,
    check_vectors,
    choi_matrix,
    dominance,
    kernel_gram_matrix,
    kernel_matrix,
    product_kernel_gram_matrix,
    product_kernel_matrix,
    schur_product,
    tail_remaining,
    transfer_matrix,
)
from schurstates.lattice import Sites, Zd
from schurstates.sampling import (
    complex_gaussian,
    random_family,
    rng_from_seed,
)

from conftest import make_family
from oracles import SchurKernelMap


def kernel_entry(family, site, i, j, b):
    """The literal oracle of one ``kernel_matrix`` entry: <h_j, b h_i>."""
    v = family.vectors(site)
    return complex(np.vdot(v[j], np.asarray(b) @ v[i]))


def orthonormal_family(sites=("a", "b"), d=2):
    return FiberFamily.explicit({s: np.eye(d, dtype=complex) for s in sites})


class TestFiberFamily:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValidationError, match="^site 'a': vector 1 is zero$"):
            FiberFamily.explicit({"a": np.array([[1.0, 0.0], [0.0, 0.0]])}).vectors("a")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            FiberFamily.explicit(
                {"a": np.eye(2), "b": np.ones((3, 2))}
            )

    @pytest.mark.parametrize("d, d_I", [(0, 1), (1, 0)])
    def test_fiber_dims_must_be_positive(self, d, d_I):
        with pytest.raises(
            ValidationError, match=rf"^fiber dims must be positive, got d={d}, d_I={d_I}$"
        ):
            FiberFamily(d, d_I, lambda site: np.eye(1), Sites(("a",)))

    def test_provided_vectors_of_the_wrong_shape(self):
        fam = FiberFamily(2, 2, lambda site: np.eye(3), Sites(("a",)))
        with pytest.raises(
            DimensionError, match=r"^site 'a': vectors have shape \(3, 3\), expected \(2, 2\)$"
        ):
            fam.gram("a")

    def test_explicit_needs_a_site_and_2d_blocks(self):
        with pytest.raises(ValidationError, match="^explicit family needs at least one site$"):
            FiberFamily.explicit({})
        with pytest.raises(DimensionError, match="^per-site vectors must form a 2-D array$"):
            FiberFamily.explicit({"a": np.ones(2)})

    @pytest.mark.parametrize("geometry", [Zd(1), Sites(("a",))])
    def test_homogeneous_needs_2d_vectors(self, geometry):
        with pytest.raises(
            DimensionError, match="^homogeneous reference vectors must be a 2-D array$"
        ):
            FiberFamily.homogeneous(np.ones(2), geometry)

    def test_unknown_site(self):
        fam = orthonormal_family()
        with pytest.raises(ValidationError, match="unknown site"):
            fam.vectors("nope")

    def test_gram_layout(self):
        # row i is h_i; gram[i, j] = <h_j, h_i>
        vecs = np.array([[1.0, 0.0], [1j, 0.0]])
        fam = FiberFamily.explicit({"a": vecs})
        g = fam.gram("a")
        assert g[0, 1] == pytest.approx(np.vdot(vecs[1], vecs[0]))
        assert g[1, 0] == pytest.approx(np.conj(g[0, 1]))

    def test_shared_array_is_built_once(self):
        shared = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
        calls = []

        def provider(s):
            calls.append(s)
            return shared

        fam = FiberFamily(2, 2, provider, Sites(("a", "b", "c")))
        for site in ("a", "b", "c", "a", "c"):
            assert np.array_equal(fam.gram(site), shared @ shared.conj().T)
            assert np.array_equal(fam.vectors(site), shared)
        # one provider call per site; later calls hit the per-site index
        assert calls == ["a", "b", "c"]

    def test_fresh_objects_keep_their_own_vectors(self):
        # the provider builds a new list per call: a freed list's id must
        # never make a later site reuse another site's vectors
        fam = FiberFamily(1, 1, lambda s: [[float(s)]], Sites((1, 2, 3, 4)))
        assert [fam.gram(s)[0, 0] for s in (1, 2, 3, 4)] == [1, 4, 9, 16]

    def test_cached_arrays_are_read_only(self):
        fam = orthonormal_family()
        for arr in (fam.vectors("a"), fam.gram("a")):
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0

    def test_validation_names_the_first_site(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        fam = FiberFamily(2, 2, lambda s: bad, Sites(("a", "b")))
        for site in ("b", "a"):
            with pytest.raises(ValidationError, match=f"^site '{site}': vector 1 is zero$"):
                fam.gram(site)


class TestPreload:
    """A whole table of sites is validated and squared as one stack."""

    @staticmethod
    def table(seed=41, n=6, d_I=3, d=2):
        sites = tuple(range(n))
        stack = complex_gaussian(rng_from_seed(seed), (n, d_I, d))
        return sites, stack

    def test_matches_site_by_site_entries(self):
        sites, stack = self.table()
        calls = []

        def provider(s):
            calls.append(s)
            return stack[s]

        fam = FiberFamily(2, 3, provider, Sites(sites))
        fam.preload(sites, stack)
        fresh = FiberFamily(2, 3, lambda s: stack[s].copy(), Sites(sites))
        for s in sites:
            assert np.array_equal(fam.vectors(s), fresh.vectors(s))
            # a provided array is a stack of one: the same Gram, bit for bit
            assert np.array_equal(fam.gram(s), fresh.gram(s))
            for arr in (fam.vectors(s), fam.gram(s)):
                with pytest.raises(ValueError):
                    arr[0, 0] = 2.0
        assert calls == []

    def test_names_the_first_faulty_site(self):
        sites, stack = self.table()
        stack[4, 2] = 0.0
        stack[2, 1, 0] = np.nan
        fam = FiberFamily(2, 3, stack.__getitem__, Sites(sites))
        with pytest.raises(ValidationError, match="^site 2: vector 1 is not finite$"):
            fam.preload(sites, stack)
        stack[2, 1, 0] = 1.0
        with pytest.raises(ValidationError, match="^site 4: vector 2 is zero$"):
            fam.preload(sites, stack)

    def test_checks_shape_and_sites(self):
        sites, stack = self.table()
        fam = FiberFamily(2, 3, stack.__getitem__, Sites(sites))
        with pytest.raises(DimensionError, match=r"shape \(6, 2, 3\)"):
            fam.preload(sites, stack.swapaxes(1, 2))
        with pytest.raises(ValidationError, match="unknown site 9"):
            fam.preload((0, 9), stack[:2])

    def test_refuses_a_repeated_site(self):
        # a repeated site would be multiplied into a walk twice and leave
        # its shell's count of sites off the table negative
        g = np.array([[1.0, 0.1], [0.0, 1.0]])
        for sites in ([(0,), (0,)], np.array([[0], [0]]), np.array([[0], [1], [0]])):
            fam = FiberFamily(
                2, 2, None, Zd(1),
                tail=FarFieldTail(np.eye(2, dtype=bool), tail_remaining([0.5, 0.5]), exact_beyond=1),
                radial=lambda start, stop: np.broadcast_to(np.eye(2), (stop - start, 2, 2)),
            )
            with pytest.raises(ValidationError, match=r"^site \(0,\) is preloaded twice$"):
                fam.preload(sites, [g] * len(sites))
            assert fam.table is None
        sites, stack = self.table()
        fam = FiberFamily(2, 3, stack.__getitem__, Sites(sites))
        with pytest.raises(ValidationError, match="^site 1 is preloaded twice$"):
            fam.preload([1, 3, 2, 3, 1], stack[:5])

    def test_lattice_coordinates_as_one_array(self, monkeypatch):
        stack = complex_gaussian(rng_from_seed(43), (3, 2, 2))
        checked = []
        check = Zd.check
        monkeypatch.setattr(Zd, "check", lambda zd, site: checked.append(site) or check(zd, site))
        fam = FiberFamily(2, 2, lambda s: np.eye(2), Zd(2))
        # an (N, nu) integer array is checked whole, and its rows index as tuples
        fam.preload(np.array([[0, 0], [1, -2], [-3, 0]]), stack)
        assert checked == []
        assert np.array_equal(fam.vectors((1, -2)), stack[1])
        # a family takes one table
        with pytest.raises(ValidationError, match="one table"):
            fam.preload(np.array([[0, 1]]), stack[:1])
        # Python ints past int64 are checked site by site
        big = FiberFamily(2, 2, lambda s: np.eye(2), Zd(2))
        big.preload(np.array([[2**70, 0], [0, 1]], dtype=object), stack[:2])
        assert checked == [(2**70, 0), (0, 1)]
        assert np.array_equal(big.gram((2**70, 0)), fam.gram((0, 0)))
        assert big.table.radii[0] == 1 and big.table.radii[1] >= 2**62 - 1
        with pytest.raises(ValidationError, match=r"^site \(0\.5, 0\.0\) is not a 2-tuple of ints$"):
            FiberFamily(2, 2, lambda s: np.eye(2), Zd(2)).preload(np.array([[0.5, 0.0]]), stack[:1])


class TestExplicitTable:
    """An explicit family is one preloaded table, validated and squared in
    one stacked pass; the per-site formulas it replaces are the oracle."""

    @pytest.mark.parametrize("d, d_I", [(1, 1), (2, 3), (3, 2), (4, 4)])
    def test_grams_match_per_site_products(self, d, d_I):
        rng = rng_from_seed(71, d, d_I)
        vecs = {s: complex_gaussian(rng, (d_I, d)) for s in ("a", 1, "c", 7)}
        fam = FiberFamily.explicit(vecs)
        assert fam.geometry.sites == ("a", 1, "c", 7)
        assert list(fam.table.rows) == ["a", 1, "c", 7]
        for s, v in vecs.items():
            assert np.array_equal(fam.vectors(s), v)
            assert np.array_equal(fam.gram(s), v @ v.conj().T)

    def test_provider_is_never_asked(self, monkeypatch):
        # count provider calls the way the benchmark tracer does, at the
        # constructor's ``provider`` argument
        asked = []
        init = FiberFamily.__init__

        def counting(self, d, d_I, provider, *args, **kwargs):
            init(self, d, d_I, lambda s: asked.append(s) or provider(s), *args, **kwargs)

        monkeypatch.setattr(FiberFamily, "__init__", counting)
        fam = FiberFamily.explicit({"a": np.eye(2), "b": np.ones((2, 2))})
        for s in ("a", "b", "a"):
            fam.vectors(s), fam.gram(s)
        assert asked == []
        assert np.shares_memory(fam.gram("b"), fam.table.grams)

    @pytest.mark.parametrize(
        "entry, message",
        [
            pytest.param(0.0, "vector 1 is zero", id="0.0-zero fiber vector at index 1"),
            pytest.param(np.nan, "vector 1 is not finite", id="nan-non-finite vector entries"),
            pytest.param(np.inf, "vector 1 is not finite", id="inf-non-finite vector entries"),
            pytest.param(
                1e200, "vector 1 has a squared norm past the float64 range",
                id="1e200-squared norm overflows",
            ),
        ],
    )
    def test_faulty_vector_refused_at_construction(self, entry, message):
        good = np.eye(2, dtype=complex)
        faulty = good.copy()
        faulty[1] = entry
        # the message a provider gives for the same array at its first use
        provided = FiberFamily(2, 2, {"a": good, "b": faulty}.__getitem__, Sites(("a", "b")))
        provided.gram("a")
        with pytest.raises(ValidationError) as by_provider:
            provided.gram("b")
        with pytest.raises(ValidationError) as by_table:
            FiberFamily.explicit({"a": good, "b": faulty})
        assert str(by_table.value) == str(by_provider.value) == f"site 'b': {message}"

    def test_norms_are_numpys_bit_for_bit(self):
        # the verdict refuses a stack exactly where numpy's own norms are
        # at or below the zero tolerance or past the float64 range
        rng = rng_from_seed(72)
        for shape in [(1, 3), (2, 5), (4, 3, 2), (2, 2, 2, 7)]:
            for scale in (1e-200, 5e-15, 1e-14, 2e-14, 1.0, 1e150, 1e154, 1e200):
                stack = scale * complex_gaussian(rng, shape)
                with np.errstate(over="ignore", invalid="ignore"):
                    norms = np.linalg.norm(stack, axis=-1)
                sound = bool(((norms > ZERO_VECTOR_TOL) & np.isfinite(norms)).all())
                try:
                    check_vectors(stack, str)
                except ValidationError:
                    assert not sound
                else:
                    assert sound
        for norm in (ZERO_VECTOR_TOL, np.nextafter(ZERO_VECTOR_TOL, 1.0)):
            sound = norm > ZERO_VECTOR_TOL
            try:
                check_vectors(np.array([[norm, 0.0]], dtype=complex), str)
            except ValidationError as exc:
                assert not sound and str(exc) == "0: vector 0 is zero"
            else:
                assert sound


class TestRadialFamily:
    """A radial family serves whole blocks of 1-norm shells, each block
    built and validated once."""

    @staticmethod
    def radial_family(radial):
        return FiberFamily(2, 2, None, Zd(2), radial=radial)

    def test_shell_gram_is_the_sites_entry(self):
        calls = []

        def radial(start, stop):
            calls.append((start, stop))
            return np.array([[[1.0, 0.0], [0.6, 0.8 * r]] for r in range(start, stop)], dtype=complex)

        fam = self.radial_family(radial)
        g = fam.shell_gram(2)
        assert np.array_equal(g, fam.gram((1, -1))) and np.array_equal(g, fam.gram((0, 2)))
        assert np.shares_memory(g, fam.shell_grams(0)) and np.shares_memory(g, fam.gram((0, 2)))
        with pytest.raises(ValueError):
            g[0, 0] = 2.0
        fam.shell_gram(SHELL_BLOCK + 1)
        fam.gram((0, 5))
        assert calls == [(0, SHELL_BLOCK), (SHELL_BLOCK, 2 * SHELL_BLOCK)]
        v = radial(2, 3)[0]
        assert np.array_equal(g, v @ v.conj().T)

    def test_radius_array_is_validated(self):
        # the whole block is checked when any of its radii is asked for
        fam = self.radial_family(
            lambda start, stop: np.array([[[1.0, 0.0], [0.0, float(r != 3)]] for r in range(start, stop)])
        )
        with pytest.raises(ValidationError, match="^radius 3: vector 1 is zero$"):
            fam.shell_gram(0)
        fam = self.radial_family(lambda start, stop: np.ones((stop - start, 3, 2)))
        with pytest.raises(
            DimensionError,
            match=rf"radii 0 to {SHELL_BLOCK - 1}: vectors have shape \({SHELL_BLOCK}, 3, 2\)",
        ):
            fam.gram((0, 0))

    def test_radial_needs_a_lattice(self):
        with pytest.raises(ValidationError, match="needs a lattice"):
            FiberFamily(1, 1, None, Sites(("a",)), radial=lambda start, stop: [[[1.0]]])
        with pytest.raises(ValidationError, match="a provider or radial blocks"):
            FiberFamily(1, 1, None, Zd(1))


class TestTailRemaining:
    """Suffix sums of per-radius masses, each rounded up."""

    def test_suffix_sums_bound_the_exact_ones(self):
        masses = [0.1, 0.2, 0.0, 0.3]
        remaining = tail_remaining(masses, beyond=1e-3)
        for r in range(-1, 6):
            exact = math.fsum(masses[r + 1:] + [1e-3])
            assert exact <= remaining(r) <= math.nextafter(exact, math.inf) * (1 + 1e-15)
        assert remaining(3) == remaining(50) == 1e-3

    def test_no_masses_leave_beyond(self):
        assert tail_remaining([])(-1) == 0.0
        assert tail_remaining([], beyond=math.inf)(7) == math.inf


# The three certificates ``FarFieldTail`` replaced, each settle body kept
# verbatim as an oracle: the all-ones tail of a perturbed family, the
# identity tail of a generator model, and the closed form of one
# repeated vector tuple (now over its largest norm).


def ones_settle(remaining, p, radii):
    growth = np.expm1(np.minimum(remaining(radii), 700.0))
    return p, np.abs(p).max(axis=(1, 2)) * growth


def identity_settle(remaining, exact_beyond, p, radii):
    eye = np.eye(p.shape[1], dtype=bool)
    remaining = remaining(radii)
    growth = np.expm1(np.minimum(remaining, 700.0))
    size = np.abs(p)
    diag = size.diagonal(axis1=1, axis2=2).max(axis=1) * growth
    off = np.where(eye, 0.0, size).max(axis=(1, 2))
    bound = np.maximum(diag, off * (1.0 + np.minimum(remaining, 1.0) + growth))
    exact = radii >= (math.inf if exact_beyond is None else exact_beyond)
    if not exact.any():
        return p, bound
    return np.where(exact[:, None, None] & ~eye, 0, p), np.where(exact, 0.0, bound)


def exact_reading(vectors):
    """The dominance of one vector tuple in fractions, from its
    definition: (largest, pattern, first diverging pair or None,
    parallel).  |<h_j, h_i>| <= |h_i| |h_j| <= the largest squared
    norm, with equality only for parallel vectors of largest norm, where
    <h_j, h_i> is c times it with |c| = 1: a pattern entry at c = 1, a
    diverging one otherwise."""
    h = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(vectors, dtype=complex).tolist()]
    n = len(h)
    # <h_j, h_i> = sum_p conj(h_j[p]) h_i[p] as (re, im) at [i][j]
    dots = [
        [
            (sum(c * a + e * b for (a, b), (c, e) in zip(h[i], h[j])),
             sum(c * b - e * a for (a, b), (c, e) in zip(h[i], h[j])))
            for j in range(n)
        ]
        for i in range(n)
    ]
    squares = [dots[i][i][0] for i in range(n)]
    top = max(squares)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    at_top = [(i, j) for i, j in pairs if dots[i][j][0] ** 2 + dots[i][j][1] ** 2 == top**2]
    pattern = np.zeros((n, n), dtype=bool)
    for i, j in at_top:
        pattern[i, j] = dots[i][j] == (top, 0)
    diverging = [(i, j) for i, j in at_top if not pattern[i, j]]
    return (
        tuple(i for i in range(n) if squares[i] == top),
        pattern,
        diverging[0] if diverging else None,
        any(dots[i][j][0] ** 2 + dots[i][j][1] ** 2 == squares[i] * squares[j] for i, j in pairs if i != j),
    )


def constant_settle(vectors, p, radii):
    """The closed form of one repeated tuple over its largest norm."""
    _, pattern, diverging, _ = exact_reading(vectors)
    if diverging is not None:
        i, j = diverging
        v = np.asarray(vectors, dtype=np.complex128)
        v = v / np.linalg.norm(v, axis=1).max()
        g = v @ v.conj().T
        raise ConvergenceError(
            f"constant tail factor {g[i, j]} at entry ({i}, {j}) has "
            "modulus 1 and is not 1: the tail product does not converge",
            last_partial=g,
            tail_estimate=float(abs(abs(g[i, j]) - 1.0)),
        )
    return np.repeat(pattern.astype(np.complex128)[None], len(p), axis=0), np.zeros(len(p))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFarFieldTail:
    """One certificate against the three it replaced, bit for bit."""

    @staticmethod
    def stack(rng, n, d_I):
        """A random product stack: entries over 1e-300 to 1e300, with
        some exact zeros, ones and NaNs."""
        p = complex_gaussian(rng, (n, d_I, d_I)) * 10.0 ** rng.integers(-300, 301, (n, d_I, d_I))
        for value, share in ((0.0, 0.1), (1.0, 0.1), (np.nan, 0.02)):
            p[rng.random(p.shape) < share] = value
        return p

    @staticmethod
    def remaining(rng):
        """A random certificate ``remaining``: a suffix table over a few
        masses, huge ones past 700 among them, or one scalar."""
        kind = rng.integers(3)
        if kind == 2:
            value = float(rng.choice([0.0, 1e-13, 0.5, 2.0, 1e3]))
            return lambda r: value
        masses = (10.0 ** rng.uniform(-20, 3, rng.integers(0, 12))).tolist()
        return tail_remaining(masses, 0.0 if kind else float(rng.choice([1e-28, 800.0])))

    def test_matches_the_three_old_certificates(self):
        rng = rng_from_seed(2024)
        for _ in range(400):
            d_I, n = int(rng.integers(1, 5)), int(rng.integers(1, 40))
            p = self.stack(rng, n, d_I)
            radii = np.sort(rng.integers(-1, 30, n))
            remaining = self.remaining(rng)
            with np.errstate(over="ignore", invalid="ignore"):
                ones = FarFieldTail(np.ones((d_I, d_I), dtype=bool), remaining)
                got, want = ones.settle(p, radii), ones_settle(remaining, p, radii)
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
                # a NaN entry leaves its bound NaN: no walk stops on it
                assert np.isnan(got[1][np.isnan(p).any(axis=(1, 2))]).all()
                # exact_beyond before, inside and past the stack
                for exact_beyond in (None, -1, int(radii[n // 2]), 100):
                    eye = FarFieldTail(np.eye(d_I, dtype=bool), remaining, exact_beyond)
                    got = eye.settle(p, radii)
                    want = identity_settle(remaining, exact_beyond, p, radii)
                    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize(
        "vectors",
        [
            [[1.0, 0.0], [3.0, 0.0]],  # parallel, positive
            [[1.0, 1.0], [0.5, 0.5], [1.0, -1.0]],  # parallel pair and an orthogonal third
            [[1.0, 0.0], [0.0, 2.0]],  # orthogonal
            [[1.0, 0.0], [1.0, 2.0**-30]],  # float64 overlap exactly 1
            [[1.0, 0.0], [1.0 - 2.0**-53, 2.0**-26]],  # float64 overlap 1 ulp below 1
            [[1.0, 0.0], [0.6, 0.8j], [2.0, 0.0]],
        ],
        ids=["parallel", "parallel-and-orthogonal", "orthogonal", "rounds-to-1", "ulp-below-1", "complex"],
    )
    def test_homogeneous_pattern_is_the_exact_decision(self, vectors):
        tail = FiberFamily.homogeneous(np.array(vectors, dtype=complex), Zd(1)).tail
        _, pattern, diverging, _ = exact_reading(vectors)
        assert diverging is None
        assert np.array_equal(tail.pattern, pattern)
        assert tail.exact_beyond == -1 and not tail.pattern.flags.writeable
        # the walk settles on its empty first step, a stack of ones
        p, radii = np.ones((3,) + pattern.shape, dtype=complex), np.array([-1, 0, 4])
        got, want = tail.settle(p, radii), constant_settle(vectors, p, radii)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize(
        "vectors", [[[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [1j, 0.0]], [[0.6, 0.8], [1.0, 0.0], [-0.6j, -0.8j]]],
        ids=["phase-minus-1", "phase-i", "third-pair"],
    )
    def test_diverging_entry_raises_at_the_first_remaining(self, vectors):
        # the family is made; only asking its certificate for a bound fails
        fam = FiberFamily.homogeneous(np.array(vectors, dtype=complex), Zd(1))
        radii = np.array([-1])
        p = np.ones((1, len(vectors), len(vectors)), dtype=complex)
        with pytest.raises(ConvergenceError) as want:
            constant_settle(vectors, p, radii)
        with pytest.raises(ConvergenceError) as got:
            fam.tail.remaining(radii)
        with pytest.raises(ConvergenceError):
            fam.tail.settle(p, radii)
        assert str(got.value) == str(want.value)
        assert same_bits(got.value.last_partial, want.value.last_partial)
        assert got.value.tail_estimate == want.value.tail_estimate


class TestDominance:
    """The one exact reading of which overlaps dominate, against the
    fraction oracle ``exact_reading``."""

    @staticmethod
    def fields(dom):
        return dom.largest, dom.pattern, dom.diverging, dom.parallel

    @staticmethod
    def same(got, want):
        return got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2:] == want[2:]

    @pytest.mark.parametrize(
        "vectors, largest, pattern, diverging",
        [
            ([[1.0, 0.0], [3.0, 0.0]], (1,), [[0, 0], [0, 1]], None),
            ([[2.0, 0.0], [0.0, 1.0]], (0,), [[1, 0], [0, 0]], None),
            ([[2.0, 0.0], [-1.0, 0.0]], (0,), [[1, 0], [0, 0]], None),
            ([[1.0, 0.0], [0.5j, 0.0]], (0,), [[1, 0], [0, 0]], None),
            ([[1.0, 0.0], [0.0, 1.0 - 1e-10]], (0,), [[1, 0], [0, 0]], None),
            ([[1.0, 0.0], [1.0, 2.0**-30]], (1,), [[0, 0], [0, 1]], None),
            ([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]], (0, 1), [[1, 1, 0], [1, 1, 0], [0, 0, 0]], None),
            ([[2.0, 0.0], [-2.0, 0.0]], (0, 1), [[1, 0], [0, 1]], (0, 1)),
            ([[0.0, 1.0], [1.0, 0.0], [0.0, 1j]], (0, 1, 2), np.eye(3), (0, 2)),
        ],
        ids=["scaled", "unequal-norms", "opposite-shorter", "phase-shorter", "norm-1e-10-below",
             "overlap-rounds-to-1", "repeated", "opposite", "phase-i"],
    )
    def test_cases(self, vectors, largest, pattern, diverging):
        v = np.array(vectors, dtype=complex)
        got = self.fields(dominance(v))
        assert (got[0], got[2]) == (largest, diverging)
        assert np.array_equal(got[1], np.array(pattern, dtype=bool))
        assert not got[1].flags.writeable
        assert self.same(got, exact_reading(v))

    def test_small_integer_and_unit_phase_tuples(self):
        # entries k * i^m for small k make ties, repeats and parallel
        # pairs common; each is read as the fractions read it
        rng = rng_from_seed(27)
        seen = set()
        for _ in range(300):
            p, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            v = rng.integers(0, 3, (p, d)) * np.array([1, 1j, -1, -1j])[rng.integers(0, 4, (p, d))]
            v[np.abs(v).sum(axis=1) == 0, 0] = 1.0
            v = v * 0.5 ** int(rng.integers(0, 3))
            got, want = self.fields(dominance(v)), exact_reading(v)
            assert self.same(got, want)
            seen.add((got[2] is not None, got[3]))
        assert len(seen) >= 3

    @pytest.mark.parametrize("bad, message", [
        pytest.param(np.inf, "reference vectors: vector 1 is not finite",
                     id="inf-reference vector 1 is not finite"),
        pytest.param(np.nan, "reference vectors: vector 1 is not finite",
                     id="nan-reference vector 1 is not finite"),
        pytest.param(0.0, "reference vectors: vector 1 is zero", id="0.0-reference vector 1 is zero"),
        pytest.param(1e200, "reference vectors: vector 1 has a squared norm past the float64 range",
                     id="1e200-reference vector 1 overflows"),
    ])
    def test_faulty_vector_named(self, bad, message):
        v = np.array([[1.0, 0.0], [bad, 0.0]], dtype=complex)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dominance(v)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FiberFamily.homogeneous(v, Zd(1))


class TestKernelEntry:
    """Single entries of ``kernel_matrix`` against their closed forms."""

    def test_identity_gives_inner_product(self, rng):
        fam = make_family(3, ["a"], 3, 2)
        v = fam.vectors("a")
        m = kernel_matrix(fam, "a", np.eye(3))
        for i in range(2):
            for j in range(2):
                assert m[i, j] == pytest.approx(complex(np.vdot(v[j], v[i])))

    def test_scalar_fiber(self):
        z1, z2, w = 1.5 + 0.5j, -0.25 + 2j, 0.7 - 0.3j
        fam = FiberFamily.explicit({"s": np.array([[z1], [z2]])})
        val = kernel_matrix(fam, "s", np.array([[w]]))[0, 1]
        assert val == pytest.approx(z1 * np.conj(z2) * w)

    def test_orthonormal_projector(self):
        fam = orthonormal_family(d=3)
        e = np.eye(3)
        b = np.outer(e[1], e[1].conj())
        m = kernel_matrix(fam, "a", b)
        for i in range(2):
            for j in range(2):
                expected = 1.0 if (i == 1 and j == 1) else 0.0
                assert m[i, j] == pytest.approx(expected)

    def test_hermitian_covariance(self, rng):
        fam = make_family(11, ["a"], 3, 3)
        for _ in range(5):
            b = complex_gaussian(rng, (3, 3))
            lhs = kernel_matrix(fam, "a", b.conj().T)
            rhs = kernel_matrix(fam, "a", b)
            for i in range(3):
                for j in range(3):
                    assert lhs[i, j] == pytest.approx(np.conj(rhs[j, i]), abs=1e-12)


class TestKernelMatrix:
    def test_orthonormal_identity(self):
        fam = orthonormal_family()
        np.testing.assert_allclose(kernel_matrix(fam, "a", np.eye(2)), np.eye(2))

    def test_zero_observable(self, rng):
        fam = make_family(5, ["a"], 2, 3)
        np.testing.assert_allclose(
            kernel_matrix(fam, "a", np.zeros((2, 2))), np.zeros((3, 3))
        )

    def test_two_vector_example(self):
        s = 1 / math.sqrt(2)
        vecs = np.array([[1.0, 0.0], [s, s]])
        fam = FiberFamily.explicit({"a": vecs})
        np.testing.assert_allclose(
            kernel_matrix(fam, "a", np.eye(2)), [[1.0, s], [s, 1.0]], atol=1e-15
        )

    def test_linearity(self, rng):
        fam = make_family(7, ["a"], 3, 2)
        b1 = complex_gaussian(rng, (3, 3))
        b2 = complex_gaussian(rng, (3, 3))
        alpha = 0.5 - 1.25j
        lhs = kernel_matrix(fam, "a", alpha * b1 + b2)
        rhs = alpha * kernel_matrix(fam, "a", b1) + kernel_matrix(fam, "a", b2)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_entries_match_kernel_entry(self, rng):
        fam = make_family(9, ["a"], 2, 3)
        b = complex_gaussian(rng, (2, 2))
        m = kernel_matrix(fam, "a", b)
        for i in range(3):
            for j in range(3):
                assert m[i, j] == pytest.approx(kernel_entry(fam, "a", i, j, b))

    def test_one_positivity(self, rng):
        # kernel_matrix at b*b is PSD for every b
        fam = make_family(13, ["a"], 3, 3)
        for _ in range(10):
            b = complex_gaussian(rng, (3, 3))
            m = kernel_matrix(fam, "a", b.conj().T @ b)
            eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            assert eigs[0] >= -1e-10 * max(1.0, float(np.max(np.abs(eigs))))


class TestSchurKernelMap:
    def test_adjoint_pairing(self, rng):
        fam = make_family(21, ["a"], 3, 2)
        ops = SchurKernelMap.from_family(fam, "a").operators
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(ops[j, i], ops[i, j].conj().T)

    def test_matches_fast_path(self, rng):
        fam = make_family(23, ["a"], 3, 3)
        skm = SchurKernelMap.from_family(fam, "a")
        for _ in range(5):
            b = complex_gaussian(rng, (3, 3))
            np.testing.assert_allclose(
                skm.apply(b), kernel_matrix(fam, "a", b), atol=1e-12
            )


class TestChoi:
    def test_scalar_fibers_rank_one(self):
        zs = np.array([[1.0 + 1.0j], [0.5 - 0.25j], [2.0 + 0.0j]])
        fam = FiberFamily.explicit({"s": zs})
        c = choi_matrix(fam, "s")
        # d = 1: the Choi matrix is the rank-one Gram of the scalars
        assert np.linalg.matrix_rank(c, tol=1e-12) == 1
        rep = certify_cp(fam, "s")
        assert rep.is_psd

    def test_orthonormal_psd(self):
        for d in (2, 3, 4):
            fam = orthonormal_family(d=d)
            rep = certify_cp(fam, "a")
            assert rep.is_psd
            assert rep.min_eigenvalue >= -1e-12

    def test_hundred_random_families(self):
        rng = rng_from_seed(99)
        for k in range(100):
            d = int(rng.integers(1, 4))
            d_I = int(rng.integers(1, 4))
            fam = random_family(rng, ["x"], d, d_I)
            rep = certify_cp(fam, "x")
            assert rep.min_eigenvalue >= -1e-10 * max(1.0, rep.max_abs_eigenvalue), (
                k,
                rep,
            )

    def test_choi_equals_rank_one_form(self, rng):
        # independent closed form: choi = w w* with w[(p, i)] = conj(v[i, p])
        fam = make_family(31, ["a"], 3, 2)
        v = fam.vectors("a")
        w = np.zeros(3 * 2, dtype=complex)
        for p in range(3):
            for i in range(2):
                w[p * 2 + i] = np.conj(v[i, p])
        np.testing.assert_allclose(choi_matrix(fam, "a"), np.outer(w, w.conj()), atol=1e-13)

    @pytest.mark.parametrize("d, d_I", [(1, 3), (3, 2), (5, 5), (10, 3), (17, 2), (32, 32)])
    def test_choi_chunks_match_the_whole_unit_stack(self, d, d_I):
        # the kernel on all d² matrix units at once, as one stack; d = 10
        # takes rows in uneven chunks, 17 and 32 one row at a time
        fam = make_family(7 * d + d_I, ["a"], d, d_I)
        k = _kernel_stack(fam.vectors("a"), np.eye(d * d).reshape(d, d, d, d))
        whole = k.transpose(0, 3, 1, 2).reshape(d * d_I, d * d_I)
        assert np.array_equal(choi_matrix(fam, "a"), whole)

    def test_choi_memory_stays_near_the_result(self):
        fam = make_family(41, ["a"], 32, 32)
        fam.vectors("a")
        tracemalloc.start()
        try:
            c = choi_matrix(fam, "a")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * c.nbytes, (peak, c.nbytes)


class TestKernelGram:
    def test_single_identity_reduces_to_gram(self, rng):
        # row index is the (j, h) pair, so the n=1 identity case lands on
        # the transpose of the site Gram (same spectrum, still PSD)
        fam = make_family(41, ["a"], 2, 3)
        k = kernel_gram_matrix(fam, "a", [np.eye(2)])
        np.testing.assert_allclose(k, fam.gram("a").T)

    def test_single_zero(self, rng):
        fam = make_family(41, ["a"], 2, 3)
        k = kernel_gram_matrix(fam, "a", [np.zeros((2, 2))])
        np.testing.assert_allclose(k, np.zeros((3, 3)))

    def test_empty_rejected(self, rng):
        fam = make_family(41, ["a"], 2, 2)
        with pytest.raises(ValidationError):
            kernel_gram_matrix(fam, "a", [])

    def test_equals_explicit_gram_of_vectors(self, rng):
        # oracle: Gram matrix of {b_k h_i} under composite index (i, k)
        fam = make_family(43, ["a"], 2, 3)
        bs = [complex_gaussian(rng, (2, 2)) for _ in range(3)]
        k = kernel_gram_matrix(fam, "a", bs)
        v = fam.vectors("a")
        stacked = np.array([bs[c] @ v[i] for i in range(3) for c in range(3)])
        oracle = stacked.conj() @ stacked.T  # oracle[r, c] = <w_r, w_c>
        np.testing.assert_allclose(k, oracle, atol=1e-12)

    def test_psd_over_random_tuples(self):
        rng = rng_from_seed(47)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            d_I = int(rng.integers(2, 4))
            n = int(rng.integers(1, 5))
            fam = random_family(rng, ["a"], d, d_I)
            k = kernel_gram_matrix(fam, "a", [complex_gaussian(rng, (d, d)) for _ in range(n)])
            eigs = np.linalg.eigvalsh(0.5 * (k + k.conj().T))
            assert eigs[0] >= -1e-10 * max(1.0, float(np.max(np.abs(eigs))))


class TestProductKernel:
    def test_single_site_reduces(self, rng):
        fam = make_family(53, ["a", "b"], 2, 2)
        b = complex_gaussian(rng, (2, 2))
        np.testing.assert_allclose(
            product_kernel_matrix(fam, ["a"], [b]), kernel_matrix(fam, "a", b)
        )

    def test_identities_give_gram_product(self, rng):
        fam = make_family(59, ["a", "b"], 2, 3)
        out = product_kernel_matrix(fam, ["a", "b"], [np.eye(2), np.eye(2)])
        np.testing.assert_allclose(out, fam.gram("a") * fam.gram("b"))

    def test_duplicate_sites_rejected(self, rng):
        fam = make_family(59, ["a", "b"], 2, 2)
        with pytest.raises(ValidationError):
            product_kernel_matrix(fam, ["a", "a"], [np.eye(2), np.eye(2)])

    def test_length_mismatch(self, rng):
        fam = make_family(59, ["a", "b"], 2, 2)
        with pytest.raises(DimensionError):
            product_kernel_matrix(fam, ["a", "b"], [np.eye(2)])

    def test_empty_site_list_is_all_ones(self):
        fam = make_family(59, ["a", "b"], 2, 3)
        np.testing.assert_array_equal(product_kernel_matrix(fam, [], []), np.ones((3, 3)))

    def test_multi_site_gram_psd(self):
        rng = rng_from_seed(61)
        for count in (2, 3):
            for _ in range(10):
                d = int(rng.integers(2, 4))
                d_I = int(rng.integers(2, 4))
                sites = [f"s{k}" for k in range(count)]
                fam = random_family(rng, sites, d, d_I)
                tuples = [
                    tuple(complex_gaussian(rng, (d, d)) for _ in sites)
                    for _ in range(3)
                ]
                k = product_kernel_gram_matrix(fam, sites, tuples)
                eigs = np.linalg.eigvalsh(0.5 * (k + k.conj().T))
                assert eigs[0] >= -1e-10 * max(1.0, float(np.max(np.abs(eigs))))


def test_schur_product_is_the_running_product(rng):
    # product_kernel_matrix and transfer_matrix are its all-ones-seeded
    # forms; seeding with a smaller region's product extends it
    fam = make_family(5, ["a", "b", "c", "d"], 3, 2)
    bs = [complex_gaussian(rng, (3, 3)) for _ in range(4)]
    kernels = [kernel_matrix(fam, x, b) for x, b in zip("abcd", bs)]
    whole = product_kernel_matrix(fam, "abcd", bs)
    assert np.array_equal(schur_product(np.ones((2, 2), dtype=complex), kernels), whole)
    assert np.array_equal(schur_product(product_kernel_matrix(fam, "ab", bs[:2]), kernels[2:]), whole)
    grams = [fam.gram(x) for x in "acd"]
    assert np.array_equal(
        schur_product(np.ones((2, 2), dtype=complex), grams), transfer_matrix(fam, "abcd", ["b"])
    )


def test_transfer_matrix_subregion_must_lie_in_the_region():
    fam = orthonormal_family(("a", "b", "c"))
    with pytest.raises(GeometryError, match=r"^observable sites \['d', 'c'\] outside region$"):
        transfer_matrix(fam, ("a", "b"), ("d", "a", "c"))


class TestGramTupleChecks:
    """``product_kernel_gram_matrix`` checks its input before it stacks it."""

    def fam(self):
        return make_family(67, ["a", "b"], 2, 2)

    def test_no_tuples(self):
        with pytest.raises(ValidationError, match=r"^product_kernel_gram_matrix: empty tuple list$"):
            product_kernel_gram_matrix(self.fam(), ["a", "b"], [])

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValidationError, match=r"^product_kernel_gram_matrix: duplicate sites$"):
            product_kernel_gram_matrix(self.fam(), ["a", "a"], [(np.eye(2), np.eye(2))])

    def test_tuple_of_the_wrong_length(self):
        tuples = [(np.eye(2), np.eye(2)), (np.eye(2),)]
        with pytest.raises(DimensionError, match=r"^observable tuple has 1 factors for 2 sites$"):
            product_kernel_gram_matrix(self.fam(), ["a", "b"], tuples)

    @pytest.mark.parametrize("k", [0, 2])
    def test_non_finite_factor(self, k):
        tuples = [(np.eye(2), np.eye(2)) for _ in range(3)]
        tuples[k] = (np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match=rf"^observable {k}: non-finite entries$"):
            product_kernel_gram_matrix(self.fam(), ["a", "b"], tuples)

    def test_overflowing_product(self):
        tuples = [(np.full((2, 2), 1e200), np.eye(2)), (np.eye(2), np.eye(2))]
        message = (
            r"^observable tuples \(0, 0\): the product of their factors at site 'a' "
            r"has non-finite entries$"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=message):
                product_kernel_gram_matrix(self.fam(), ["a", "b"], tuples)

    def test_overflowing_product_names_the_first_pair(self):
        tuples = [(np.eye(2), np.eye(2)) for _ in range(3)]
        tuples[2] = (np.eye(2), np.full((2, 2), 1e200))
        message = r"^observable tuples \(2, 2\): the product of their factors at site 'b' "
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=message):
                product_kernel_gram_matrix(self.fam(), ["a", "b"], tuples)

    @pytest.mark.parametrize(
        "factor, message",
        [
            (np.eye(3), r"shape \(3, 3\), expected \(2, 2\)"),
            (np.ones(2), r"expected a 2-D array, got ndim=1"),
        ],
        ids=["3x3", "1-D"],
    )
    def test_wrongly_shaped_factor(self, factor, message):
        tuples = [(np.eye(2), np.eye(2)), (factor, np.eye(2))]
        with pytest.raises(DimensionError, match=rf"^observable 1: {message}$"):
            product_kernel_gram_matrix(self.fam(), ["a", "b"], tuples)


DIMS = [(d, d_I) for d in range(1, 6) for d_I in range(1, 6)]


class TestStacksAgainstOracles:
    """The stacked kernel evaluations against literal, entry-by-entry
    constructions, for every d, d_I in 1..5."""

    @pytest.mark.parametrize("d, d_I", DIMS)
    def test_choi_literal_entries(self, d, d_I):
        fam = make_family(100 + 10 * d + d_I, ["a"], d, d_I)
        v = fam.vectors("a")
        oracle = np.zeros((d * d_I, d * d_I), dtype=complex)
        for p in range(d):
            for q in range(d):
                unit = np.zeros((d, d))
                unit[p, q] = 1.0
                for i in range(d_I):
                    for j in range(d_I):
                        # Tr(h_j h_i* e_p e_q*) at row (p, i), column (q, j)
                        oracle[p * d_I + i, q * d_I + j] = np.trace(
                            np.outer(v[j], v[i].conj()) @ unit
                        )
        np.testing.assert_allclose(choi_matrix(fam, "a"), oracle, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d, d_I", DIMS)
    def test_product_gram_is_the_gram_of_tensor_vectors(self, d, d_I):
        rng = rng_from_seed(200 + 10 * d + d_I)
        for count in (1, 2, 3):
            sites = [f"s{x}" for x in range(count)]
            fam = random_family(rng, sites, d, d_I)
            for n in (1, 2, 3, 4):
                tuples = [
                    tuple(complex_gaussian(rng, (d, d)) for _ in sites) for _ in range(n)
                ]
                # w[i * n + k] = (x)_x  b_{x,k} h_{x,i}
                w = np.array([
                    functools.reduce(
                        np.kron, [tuples[k][x] @ fam.vectors(s)[i] for x, s in enumerate(sites)]
                    )
                    for i in range(d_I)
                    for k in range(n)
                ])
                oracle = w.conj() @ w.T  # oracle[r, c] = <w_r, w_c>
                got = product_kernel_gram_matrix(fam, sites, tuples)
                np.testing.assert_allclose(
                    got, oracle, rtol=0, atol=1e-12 * max(1.0, np.abs(oracle).max())
                )


def test_cp_random_tuple_characterization():
    # the map b -> kernel_matrix(b)^T is completely positive, so
    # sum_{i,j} b_i^dag Phi(a_i^dag a_j) b_j is PSD for arbitrary tuples
    rng = rng_from_seed(71)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        d_I = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        fam = random_family(rng, ["s"], d, d_I)
        As = [complex_gaussian(rng, (d, d)) for _ in range(k)]
        Bs = [complex_gaussian(rng, (d_I, d_I)) for _ in range(k)]
        acc = np.zeros((d_I, d_I), dtype=complex)
        for i in range(k):
            for j in range(k):
                phi = kernel_matrix(fam, "s", As[i].conj().T @ As[j]).T
                acc += Bs[i].conj().T @ phi @ Bs[j]
        eigs = np.linalg.eigvalsh(0.5 * (acc + acc.conj().T))
        assert eigs[0] >= -1e-10 * max(1.0, float(np.max(np.abs(eigs))))

