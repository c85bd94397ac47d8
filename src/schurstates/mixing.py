"""Mixing diagnostics for limit states on the integer lattice.

A state mixes when observables on a fixed region decorrelate from
observables carried far away: transporting the second observable to an
embedded copy of its region outside a large ball, the joint expectation
approaches the product of the individual ones.  The alpha variant
replaces the transported factor by its limiting tail value, which must
be independent of the fiber index pair for the comparison to be
meaningful.

A region is placed far away (``embed``) by one of two strategies: a
deterministic translation along the first axis, or a seeded random
injection into shells just outside the excluded ball.  Both give an image
of the region's length, with no site repeated, that clears the ball.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import lattice
from .errors import (
    ConvergenceError,
    DimensionError,
    GeometryError,
    PreconditionError,
    ValidationError,
)
from .kernel import (
    SHELL_BLOCK,
    FarFieldTail,
    FiberFamily,
    kernel_matrix,
    product_kernel_matrix,
    require_finite_products,
    schur_product,
    tail_remaining,
)
from .limit import SITE_CAP, boundary_matrices, boundary_matrix, limit_state_eval, total_weight
from .state import LocalObservable

#: Clearances of tail-limit detection, which embeds the last two, and of
#: the CLI's mixing scans (up to --tmax); the README scan shares alpha's
#: kernels only because its rows sit at alpha's clearances.
DEFAULT_T_SEQUENCE = (5, 10, 20, 40)

#: Default Cauchy / independence tolerance for tail limits, relative to
#: the product of the far factors' operator norms once that exceeds 1.
DEFAULT_ALPHA_TOL = 1e-8


def embed(region, t: int, geometry: lattice.Zd, strategy: str = "translate", seed: int = 0) -> tuple:
    """The image of a finite lattice region in the complement of the
    t-ball, site k of the image for site k of the region.

    ``translate`` shifts by (t + 1 + R) along the first axis, R being the
    largest distance in the region, which always clears the ball.
    ``random`` draws distinct sites from the spheres just outside the
    ball with a seeded generator.  Every site of the region is checked by
    ``geometry``.
    """
    region = tuple(tuple(int(c) for c in z) for z in region)
    if not region:
        raise ValidationError("cannot embed an empty region")
    for z in region:
        geometry.check(z)
    if t < 0:
        raise ValidationError(f"clearance must be nonnegative, got {t}")

    if strategy == "translate":
        shift = t + 1 + max(map(geometry.distance, region))
        image = tuple((z[0] + shift,) + z[1:] for z in region)
    elif strategy == "random":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, t])))
        candidates: list[tuple[int, ...]] = []
        r = t + 1
        while len(candidates) < len(region):
            candidates.extend(geometry.sphere(r))
            r += 1
        order = rng.permutation(len(candidates))
        image = tuple(candidates[int(k)] for k in order[: len(region)])
    else:
        raise ValidationError(f"unknown embedding strategy {strategy!r}")
    return image


@dataclass(frozen=True)
class AlphaLimitReport:
    """Tail limits of transported local products, per fiber index pair."""

    limits: np.ndarray        # (d_I, d_I) limit values
    independent: bool         # all pairs agree within tol
    value: complex | None     # the common limit when independent
    spread: float             # max pairwise deviation among limits
    last_step: float          # final Cauchy increment


def _site_kernels(family: FiberFamily, obs: LocalObservable, known: dict) -> list:
    """The kernel matrix of each site of ``obs``, in region order: read
    from ``known``, keyed by region, or formed and kept there.  Every
    observable ``known`` serves must carry the same factors, in order,
    wherever it has the same region."""
    kernels = known.get(obs.region)
    if kernels is None:
        kernels = known[obs.region] = [kernel_matrix(family, x, b) for x, b in zip(obs.region, obs.factors)]
    return kernels


def _ones(family: FiberFamily) -> np.ndarray:
    return np.ones((family.d_I, family.d_I), dtype=np.complex128)


def require_lattice(family: FiberFamily) -> None:
    """``PreconditionError`` unless ``family`` lives on an infinite
    geometry: the one rule of every mixing path, the CLI's included."""
    if family.geometry.finite:
        raise PreconditionError("tail limits require a lattice model")


def alpha_limit(
    family: FiberFamily,
    obs: LocalObservable,
    kernels: dict | None = None,
) -> AlphaLimitReport:
    """Detect the limit of far-transported local products.

    Forms prod_y Tr(h(z,i) h(z,j)* b_y) over translated embeddings at the
    last two clearances of ``DEFAULT_T_SEQUENCE`` and requires their
    difference, the final Cauchy increment, to fall below
    ``DEFAULT_ALPHA_TOL * max(1, prod_y |b_y|_2)``, the tolerance scaled
    with the factors as the products are; the verdict, the spread and the
    value read nothing else, so no other clearance is embedded.  The
    independence verdict is true when all index pairs share the limit
    within that tolerance; the common value is then a state value:
    positive on positive observables and 1 at identity factors for
    unit-norm tails.
    ``kernels`` maps translated regions of ``obs`` to their sites' kernel
    matrices: those a caller holds are read from it, and those formed
    here are kept in it (``mixing_scan`` shares it with its rows).
    Products past the float range are refused.
    """
    require_lattice(family)
    ts = DEFAULT_T_SEQUENCE
    known = {} if kernels is None else kernels
    fars = (LocalObservable.of_checked(embed(obs.region, t, family.geometry), obs.factors) for t in ts[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        before, limits = (schur_product(_ones(family), _site_kernels(family, far, known)) for far in fars)
        step = float(np.max(np.abs(limits - before)))
    # the increment is finite only where both products are
    require_finite_products(step, len(obs.region))
    spread = float(np.max(np.abs(limits - limits.ravel()[0])))
    tol = DEFAULT_ALPHA_TOL
    # past 1e-8 the factors' scale decides; below it every scale gives the
    # same verdict, and a scan that settles there runs no LAPACK routine,
    # whose code pages add about 1 MB to a README scan's peak RSS
    if max(step, spread) > tol:
        # the largest singular value of each factor is its operator norm
        norms = np.linalg.svd(obs.factors, compute_uv=False)[:, 0]
        tol *= max(1.0, float(np.prod(norms)))
    if step > tol:
        raise ConvergenceError(
            f"transported products are not Cauchy along t={ts}: "
            f"final increment {step:.3e} exceeds {tol:.3e}",
            last_partial=limits,
            tail_estimate=step,
        )
    independent = spread <= tol
    value = complex(limits.mean()) if independent else None
    return AlphaLimitReport(limits, independent, value, spread, step)


def _placed(family, obs_a, obs_b, t, strategy, seed):
    """The joint observable a . transported b and the transported b at
    clearance t, once every geometry check has passed: the near region
    must lie inside the ball of radius t - 1."""
    outside = [z for z in obs_a.region if family.geometry.distance(z) > t - 1]
    if outside:
        raise GeometryError(
            f"near-region sites {outside!r} are not inside the ball of radius {t - 1}"
        )
    far = LocalObservable.of_checked(embed(obs_b.region, t, family.geometry, strategy, seed), obs_b.factors)
    joint = LocalObservable.of_checked(obs_a.region + far.region, obs_a.factors + far.factors)
    return joint, far


def mixing_gap(
    family: FiberFamily,
    obs_a: LocalObservable,
    obs_b: LocalObservable,
    t: int,
    strategy: str = "translate",
    seed: int = 0,
    tail_tol: float = 1e-14,
) -> float:
    """|psi(a . transported b) - psi(a) psi(transported b)|.

    All three expectations are infinite-volume values of the normalized
    state, psi = value / Z (``limit.total_weight``).  The near region
    must sit inside the ball of radius t-1 and the embedded region
    always clears the t-ball, so the two regions cannot collide.  The
    default tail tolerance is tighter than elsewhere because gaps at
    large clearance sit below 1e-12 and must not drown in boundary
    truncation error.
    """
    require_lattice(family)
    joint, far = _placed(family, obs_a, obs_b, t, strategy, seed)
    z = total_weight(boundary_matrix(family, (), tail_tol=tail_tol))
    v_joint, v_a, v_far = (limit_state_eval(family, obs, tail_tol) / z for obs in (joint, obs_a, far))
    return abs(v_joint - v_a * v_far)


@dataclass(frozen=True)
class ScanRow:
    t: int
    strategy: str
    mixing_gap: float
    alpha_mixing_gap: float  # nan when no alpha value exists


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    alpha_independent: bool
    decrease_fraction: dict  # strategy -> fraction of consecutive decreases


def mixing_scan(
    family: FiberFamily,
    obs_a: LocalObservable,
    obs_b: LocalObservable,
    t_list=DEFAULT_T_SEQUENCE,
    strategies=("translate",),
    seed: int = 0,
    tail_tol: float = 1e-14,
) -> ScanResult:
    """Gap table over clearances and strategies, with a trend statistic.

    Every value is one of the normalized state, psi = value / Z
    (``limit.total_weight``).  The alpha column is NaN for models whose
    tail limits depend on the index pair.  Row order follows ``t_list``
    within each strategy regardless of evaluation order; a strategy or
    clearance named twice is refused.  Every row's regions are placed and
    checked first, in row order, and then walked together, with the empty
    region that gives Z, in one ``boundary_matrices`` call: a scan walks
    once.  Each kernel product is formed once: psi(a)'s product and
    value once per scan, each far site's kernel matrix once per row (or
    not at all where ``alpha_limit`` formed it for the same translated
    region), and a row's joint product by seeding psi(a)'s product with
    the far kernels in region order, which is ``product_kernel_matrix``
    of the joint region bit for bit; so every row's gap equals the
    one-region ``mixing_gap`` bit for bit, and its alpha gap is
    |psi(a . transported b) - psi(a) alpha| from the same values.  A value
    that local products take past the float range is refused.
    """
    ts = tuple(int(t) for t in t_list)
    strategies = tuple(strategies)
    for name, values in (("strategy", strategies), ("clearance", ts)):
        repeated = [v for v, count in Counter(values).items() if count > 1]
        if repeated:
            raise ValidationError(f"mixing scan names the {name} {repeated[0]!r} twice")
    kernels: dict = {}  # translated regions of b -> their sites' kernels
    try:
        report = alpha_limit(family, obs_b, kernels=kernels)
    except ConvergenceError:
        report = None
    placed = [
        (t, strategy, *_placed(family, obs_a, obs_b, t, strategy, seed))
        for strategy in strategies
        for t in ts
    ]
    walked = iter(boundary_matrices(
        family,
        [()] + [region for _, _, joint, far in placed for region in (joint.region, obs_a.region, far.region)],
        tail_tol,
    ))
    z = total_weight(next(walked))
    ones = _ones(family)
    m_a = None
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t, strategy, joint, far in placed:
            beta_joint, beta_a, beta_far = next(walked), next(walked), next(walked)
            if m_a is None:  # psi(a)'s product and value serve every row
                m_a = product_kernel_matrix(family, obs_a.region, obs_a.factors)
                v_a = complex((m_a * beta_a.matrix).sum()) / z
                require_finite_products(v_a, len(obs_a.region))
            far_kernels = _site_kernels(family, far, kernels)
            v_joint = complex((schur_product(m_a, far_kernels) * beta_joint.matrix).sum()) / z
            v_far = complex((schur_product(ones, far_kernels) * beta_far.matrix).sum()) / z
            require_finite_products(v_far, len(far.region))
            require_finite_products(v_joint, len(joint.region))
            gap = abs(v_joint - v_a * v_far)
            if report is not None and report.independent:
                agap = abs(v_joint - v_a * report.value)
            else:
                agap = float("nan")
            rows.append(ScanRow(t=t, strategy=strategy, mixing_gap=gap, alpha_mixing_gap=agap))
    fractions = {}
    for strategy in strategies:
        gaps = [r.mixing_gap for r in rows if r.strategy == strategy]
        pairs = list(zip(gaps, gaps[1:]))
        fractions[strategy] = (
            sum(1 for a, b in pairs if b < a) / len(pairs) if pairs else float("nan")
        )
    return ScanResult(
        rows=tuple(rows),
        alpha_independent=bool(report is not None and report.independent),
        decrease_fraction=fractions,
    )


# ---------------------------------------------------------------------------
# Canonical inhomogeneous test family
# ---------------------------------------------------------------------------


def decaying_perturbation_family(
    nu: int = 2,
    epsilon0: float = 6e-7,
    decay: float = 0.78,
    near_amplitude: float | None = 0.3,
    near_radius: int = 3,
    base=None,
    directions=None,
) -> FiberFamily:
    """Unit-vector family h(x, i) = (h + eps_x v_i) / norm, eps_x summable.

    The perturbation amplitude is ``near_amplitude`` inside the ball of
    radius ``near_radius`` and ``epsilon0 * decay^|x|`` outside (pass
    ``near_amplitude=None`` for a purely geometric profile).  The strong
    near-zone couples observables there to the fiber index pair, while
    the weak geometric tail makes every overlap tend to 1, so all tail
    products converge and far-transported local products share a limit
    independent of the index pair.  Correlations between the near zone
    and a region embedded at clearance t then decay like decay^t, which
    keeps the mixing gap visible above roundoff through t ~ 40 while the
    far products settle fast enough for tail-limit detection.  The family
    is radial (``FiberFamily.radial``) and has no table; it is built
    without a walk.  Its state is normalized where a value is reported,
    by dividing by the total weight Z (``limit.total_weight``), walked
    beside the regions that need it.

    Default directions perturb the base along a complex phase and an
    orthogonal coordinate, giving overlap deviations first order in
    eps_x (second-order-only deviations would decay too fast to observe
    against roundoff at large clearances).
    """
    if not (0.0 < decay < 1.0):
        raise ValidationError(f"decay must lie in (0, 1), got {decay}")
    if epsilon0 <= 0:
        raise ValidationError(f"epsilon0 must be positive, got {epsilon0}")
    for name, value in (("epsilon0", epsilon0), ("near_amplitude", near_amplitude)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if base is None:
        base = np.array([1.0, 0.0], dtype=np.complex128)
    h = np.asarray(base, dtype=np.complex128)
    if directions is None:
        d = h.shape[0]
        v1 = np.zeros(d, dtype=np.complex128)
        v1[0] = 1j
        v1[1 % d] += 1.0
        v2 = np.zeros(d, dtype=np.complex128)
        v2[0] = -0.6j
        v2[1 % d] += 0.25
        directions = [v1, v2]
    dirs = np.asarray(directions, dtype=np.complex128)
    if dirs.ndim != 2:
        raise DimensionError(f"directions form an array of shape {dirs.shape}, expected (d_I, d)")
    d_I, d = dirs.shape
    if h.shape != (d,):
        raise ValidationError(
            f"base vector has shape {h.shape}, directions expect dim {d}"
        )

    def vectors(start: int, stop: int) -> np.ndarray:
        """The unit vector tuples of radii start, ..., stop - 1, stacked.
        Amplitudes take Python's float power radius by radius, which
        numpy's array power does not match to the last bit."""
        near = near_amplitude is not None
        eps = np.array([
            float(near_amplitude) if near and r <= near_radius else epsilon0 * decay**r
            for r in range(start, stop)
        ])
        with np.errstate(over="ignore"):
            vecs = h + eps[:, None, None] * dirs
            norms = np.linalg.norm(vecs, axis=2)
        # a vector whose norm is zero or overflows is left undivided, for
        # the family's verdict to name
        return vecs / np.where((norms > 0.0) & (norms < math.inf), norms, 1.0)[:, :, None]

    # the certificate goes to the family as it is made, and reads the mass
    # table below, which the family's own first blocks feed
    def remaining(r):
        return table(r)

    family = FiberFamily(
        d, d_I, None, lattice.Zd(nu), tail=FarFieldTail(np.ones((d_I, d_I), dtype=bool), remaining),
        radial=vectors,
    )
    # every per-site quantity depends on the site only through |x|_1, so
    # the family is radial, built SHELL_BLOCK radii at a time, and the
    # tail masses are tabulated per radius.  Shell masses run outward, a
    # stack of radii at a time, to the first shell past radius 3 and the
    # near zone whose mass is below 1e-30; ``beyond`` bounds all later
    # shells.  The first stack, radii 0 to 255, is the family's own first
    # four blocks, built as one run (``FiberFamily.shell_gram_run``) that
    # a walk reads again; later ones are formed here and dropped.  A profile
    # not that quiet by radius SITE_CAP, which no capped walk passes, or by
    # the first sphere whose size is past the float range, gets no
    # certificate; one whose near zone reaches radius SITE_CAP is not
    # tabulated at all.
    quiet_after = max(3, near_radius) if near_amplitude is not None else 3
    masses = []
    beyond = math.inf
    start, size = 0, 4 * SHELL_BLOCK
    while start <= SITE_CAP and quiet_after < SITE_CAP:
        stop = min(start + size, SITE_CAP + 1)
        if start:
            v = vectors(start, stop)
            grams = v @ v.conj().swapaxes(-1, -2)
        else:
            grams = family.shell_gram_run(0, size // SHELL_BLOCK)
        sizes = family.geometry.sphere_sizes(start, stop)
        n = np.count_nonzero(np.isfinite(sizes))  # the sizes grow with the radius
        with np.errstate(over="ignore"):  # a mass past the float range bounds as inf
            chunk = sizes[:n] * np.abs(grams[:n] - 1.0).max(axis=(-2, -1))
        quiet = np.flatnonzero((np.arange(start, start + n) > quiet_after) & (chunk < 1e-30))
        if quiet.size:
            masses.extend(chunk[: quiet[0] + 1].tolist())
            beyond = 1e-28
            break
        masses.extend(chunk.tolist())
        if n < len(sizes):
            break
        start, size = stop, min(2 * size, 4096)

    table = tail_remaining(masses, beyond)
    return family
