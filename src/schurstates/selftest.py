"""Seeded invariant battery behind the ``selftest`` subcommand.

Every section draws its own PCG64 stream from the run seed, checks a
family of invariants of the routes the commands take at fixed
tolerances, and reports the worst violation it saw.  The report is a
plain dict of floats/bools/ints so the CLI can serialize it
byte-identically for a given seed.
"""

from __future__ import annotations

import numpy as np

from .homogeneous import (
    HomogeneousModel,
    finite_volume_normalized,
    generic_limit,
    overlaps,
)
from .kernel import (
    certify_cp,
    kernel_gram_matrix,
    kernel_matrix,
    product_kernel_gram_matrix,
    transfer_matrix,
)
from .limit import boundary_matrix, build_from_generators, check_projectivity
from .linalg import psd_report
from .mixing import decaying_perturbation_family
from .sampling import (
    complex_gaussian,
    decaying_generator_spec,
    random_family,
    random_observable,
    rng_from_seed,
)
from .state import (
    LocalObservable,
    expectation_dense,
    expectation_extended,
    expectation_schur,
)


def _section(name, cases, worst, tol):
    return {
        "name": name,
        "cases": int(cases),
        "worst": float(worst),
        "tol": float(tol),
        "pass": bool(worst <= tol),
    }


def _negativity(rep) -> float:
    """How far a PSD verdict's smallest eigenvalue lies below zero,
    relative to the spectrum's scale."""
    return -rep.min_eigenvalue / max(1.0, rep.max_abs_eigenvalue)


def _kernel_section(seed: int) -> dict:
    rng = rng_from_seed(seed, 2)
    worst = 0.0
    cases = 0
    for _ in range(20):
        d = int(rng.integers(2, 4))
        d_I = int(rng.integers(2, 4))
        fam = random_family(rng, ["a", "b"], d, d_I)
        worst = max(worst, _negativity(certify_cp(fam, "a")))
        bs = [random_observable(rng, d) for _ in range(3)]
        worst = max(worst, _negativity(psd_report(kernel_gram_matrix(fam, "a", bs))))
        # the Schur product theorem, as check-kernel reads it on two sites,
        # with the observables paired off in turn
        gram = product_kernel_gram_matrix(fam, ("a", "b"), list(zip(bs, bs[1:] + bs[:1])))
        worst = max(worst, _negativity(psd_report(gram)))
        # the kernel's entries sum to the dense expectation on its site
        dense = expectation_dense(fam, ("b",), LocalObservable(("b",), (bs[0],)))
        summed = complex(kernel_matrix(fam, "b", bs[0]).sum())
        worst = max(worst, abs(summed - dense) / max(1.0, abs(dense)))
        cases += 4
    return _section("kernel positivity, Schur products, dense sums", cases, worst, 1e-10)


def _state_section(seed: int) -> dict:
    rng = rng_from_seed(seed, 3)
    worst = 0.0
    cases = 0
    for _ in range(20):
        d = int(rng.integers(2, 4))
        d_I = int(rng.integers(2, 4))
        region = tuple(range(4))
        fam = random_family(rng, region, d, d_I)
        obs_region = region[:2]
        obs = LocalObservable(obs_region, tuple(random_observable(rng, d) for _ in obs_region))
        dense = expectation_dense(fam, region, obs)
        ext = expectation_extended(fam, region, obs)
        schur = expectation_schur(fam, obs)
        dense_small = expectation_dense(fam, obs_region, obs)
        scale = max(1.0, abs(dense))
        worst = max(worst, abs(dense - ext) / scale)
        worst = max(worst, abs(schur - dense_small) / max(1.0, abs(dense_small)))
        cases += 2
    return _section("dense oracle vs entrywise-product paths", cases, worst, 1e-10)


def _limit_section(seed: int) -> dict:
    rng = rng_from_seed(seed, 4)
    spec = decaying_generator_spec(seed, radius=5)
    fam = build_from_generators(spec)
    worst = 0.0
    cases = 0
    region = ((0,), (1,), (-1,))
    sub = ((0,),)
    beta = boundary_matrix(fam, region)
    worst = max(worst, beta.tail_bound)
    cocycle = beta.matrix * transfer_matrix(fam, region, sub)
    worst = max(worst, float(np.max(np.abs(cocycle - boundary_matrix(fam, sub).matrix))))
    for _ in range(5):
        obs = LocalObservable(sub, (random_observable(rng, fam.d),))
        rep = check_projectivity(fam, region, obs)
        worst = max(worst, rep.gap / max(1.0, abs(rep.value_small)))
        cases += 1
    # the shell walk and the site walk of a seeded region are each within
    # their tail_bound of the limit: the excess of their difference over
    # the sum of both bounds is a violation
    radial = decaying_perturbation_family(nu=1, decay=0.5)
    picks = sorted(rng.choice(9, size=int(rng.integers(0, 4)), replace=False).tolist())
    walked = tuple((x - 4,) for x in picks)
    shell = boundary_matrix(radial, walked)
    site = boundary_matrix(radial, walked, exhaustion=radial.geometry)
    gap = float(np.max(np.abs(shell.matrix - site.matrix)))
    worst = max(worst, gap - shell.tail_bound - site.tail_bound)
    return _section("tail products, projectivity, shell and site walks", cases + 3, worst, 1e-9)


def _homogeneous_section(seed: int) -> dict:
    rng = rng_from_seed(seed, 5)
    worst = 0.0
    cases = 0
    draws = 0
    while cases < 5 and draws < 50:
        draws += 1
        vecs = complex_gaussian(rng, (2, 2))
        model = HomogeneousModel(vecs)
        if model.dominance.parallel:
            continue
        ov = overlaps(model)
        diag_max = {(i, i) for i in model.dominance.largest}
        ratio = max(
            abs(ov.matrix[i, j]) / ov.beta_max
            for i in range(2)
            for j in range(2)
            if (i, j) not in diag_max
        )
        if ratio > 0.9:
            continue
        # volume large enough for the geometric error to clear the tolerance
        n = int(np.ceil(np.log(1e-8) / np.log(max(ratio, 0.05)))) + 2
        obs = LocalObservable(("u",), (random_observable(rng, 2),))
        lim = generic_limit(model, obs)
        fv = finite_volume_normalized(model, n, obs)
        worst = max(worst, abs(fv - lim) / max(1.0, abs(lim)))
        cases += 1
    return _section("homogeneous nets vs limits", cases, worst, 1e-6)


def run_selftest(seed: int = 0) -> dict:
    """Run the full battery, sequentially."""
    sections = [
        _kernel_section(seed),
        _state_section(seed),
        _limit_section(seed),
        _homogeneous_section(seed),
    ]
    return {
        "seed": int(seed),
        "generator": "numpy PCG64 via SeedSequence",
        "sections": sections,
        "pass": all(s["pass"] for s in sections),
    }
