"""Seeded invariant battery behind the ``selftest`` subcommand.

Every section draws its own PCG64 stream from the run seed, checks a
family of invariants at fixed tolerances, and reports the worst
violation it saw.  The report is a plain dict of floats/bools/ints so
the CLI can serialize it byte-identically for a given seed.
"""

from __future__ import annotations

import numpy as np

from .homogeneous import (
    HomogeneousModel,
    constant_offdiagonal_vectors,
    finite_volume_normalized,
    generic_limit,
    overlaps,
)
from .kernel import (
    SchurKernelMap,
    certify_cp,
    kernel_gram_matrix,
    kernel_matrix,
    transfer_matrix,
)
from .limit import (
    boundary_matrix,
    build_from_generators,
    check_projectivity,
    right_square_root,
)
from .linalg import hadamard, matrix_exp, matrix_log, psd_report
from .sampling import (
    complex_gaussian,
    decaying_generator_spec,
    random_family,
    random_observable,
    random_positive_definite,
    random_unitary,
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


def _linalg_section(seed: int) -> dict:
    rng = rng_from_seed(seed, 1)
    worst = 0.0
    cases = 0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_positive_definite(rng, n, floor=0.0)
        b = random_positive_definite(rng, n, floor=0.0)
        rep = psd_report(hadamard(a, b))
        worst = max(worst, -rep.min_eigenvalue / max(1.0, rep.max_abs_eigenvalue))
        t = random_positive_definite(rng, n, floor=0.2)
        roundtrip = matrix_exp(matrix_log(t))
        worst = max(worst, float(np.max(np.abs(roundtrip - t))) / np.linalg.norm(t))
        cases += 2
    return _section("entrywise products and spectral calculus", cases, worst, 1e-10)


def _kernel_section(seed: int) -> dict:
    rng = rng_from_seed(seed, 2)
    worst = 0.0
    cases = 0
    for _ in range(20):
        d = int(rng.integers(2, 4))
        d_I = int(rng.integers(2, 4))
        fam = random_family(rng, ["a", "b"], d, d_I)
        rep = certify_cp(fam, "a")
        worst = max(worst, -rep.min_eigenvalue / max(1.0, rep.max_abs_eigenvalue))
        bs = [random_observable(rng, d) for _ in range(3)]
        rep = psd_report(kernel_gram_matrix(fam, "a", bs))
        worst = max(worst, -rep.min_eigenvalue / max(1.0, rep.max_abs_eigenvalue))
        slow = SchurKernelMap.from_family(fam, "b").apply(bs[0])
        fast = kernel_matrix(fam, "b", bs[0])
        worst = max(worst, float(np.max(np.abs(slow - fast))))
        cases += 3
    return _section("kernel positivity and dual routes", cases, worst, 1e-10)


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
    for _ in range(10):
        n = int(rng.integers(2, 5))
        t = random_positive_definite(rng, n, floor=0.2)
        h = right_square_root(t, random_unitary(rng, n))
        worst = max(
            worst, float(np.max(np.abs(h @ h.conj().T - t))) / np.linalg.norm(t)
        )
        cases += 1
    return _section("tail products, projectivity, right roots", cases + 2, worst, 1e-9)


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
        diag_max = {(i, i) for i in ov.argmax}
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
    for p in (2, 3, 4):
        vecs = constant_offdiagonal_vectors(p, 0.5)
        g = vecs @ vecs.conj().T
        off = g[~np.eye(p, dtype=bool)]
        worst = max(worst, float(np.max(np.abs(off - 0.5))))
        cases += 1
    return _section("homogeneous limits and constant-overlap builder", cases, worst, 1e-6)


def run_selftest(seed: int = 0) -> dict:
    """Run the full battery, sequentially."""
    sections = [
        _linalg_section(seed),
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
