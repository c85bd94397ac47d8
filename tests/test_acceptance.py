"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines; tolerances are pinned here
and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from schurstates.homogeneous import (
    HomogeneousModel,
    finite_volume_normalized,
    generic_limit,
    overlaps,
)
from schurstates.kernel import (
    FiberFamily,
    certify_cp,
    kernel_gram_matrix,
    product_kernel_gram_matrix,
    transfer_matrix,
)
from schurstates.limit import (
    boundary_matrix,
    build_from_generators,
    check_projectivity,
)
from schurstates.lattice import Sites, Zd
from schurstates.mixing import (
    alpha_limit,
    decaying_perturbation_family,
    mixing_gap,
    mixing_scan,
)
from schurstates.sampling import (
    complex_gaussian,
    decaying_generator_spec,
    random_family,
    random_observable,
    rng_from_seed,
)
from schurstates.state import (
    LocalObservable,
    expectation_dense,
    expectation_extended,
    expectation_schur,
)

from oracles import (
    constant_offdiagonal_vectors,
    matrix_log,
    random_positive_definite,
    random_unitary,
    right_square_root,
)


def report(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] {name}: {status}")
    assert not failures, failures[:5]


def test_criterion_1_oracle_equivalence():
    """Fast evaluation paths match the dense tensor oracle to 1e-10."""
    failures = []
    start = time.time()
    for seed in range(200):
        rng = rng_from_seed(seed, 1000)
        d = int(rng.integers(2, 4))
        d_I = int(rng.integers(2, 4))
        size = int(rng.integers(1, 7))  # |full region| <= 6
        region = tuple(range(size))
        fam = random_family(rng, region, d, d_I)
        inner = region[: int(rng.integers(1, size + 1))]
        obs = LocalObservable(
            inner, tuple(complex_gaussian(rng, (d, d)) for _ in inner)
        )
        dense_full = expectation_dense(fam, region, obs)
        dense_inner = expectation_dense(fam, inner, obs)
        fast = expectation_schur(fam, obs)
        extended = expectation_extended(fam, region, obs)
        if abs(fast - dense_inner) > 1e-10 * max(1.0, abs(dense_inner)):
            failures.append(("schur", seed, fast, dense_inner))
        if abs(extended - dense_full) > 1e-10 * max(1.0, abs(dense_full)):
            failures.append(("extended", seed, extended, dense_full))
    elapsed = time.time() - start
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    report("1 oracle equivalence (200 models, |region| <= 6, rel 1e-10)", failures)


def test_criterion_2_cp_certification():
    """Choi matrices, observable-tuple Grams and multi-site kernels are PSD."""
    failures = []
    start = time.time()
    rng = rng_from_seed(2000)
    for case in range(100):
        d = int(rng.integers(1, 4))
        d_I = int(rng.integers(1, 4))
        fam = random_family(rng, ["x", "y", "z"], d, d_I)
        rep = certify_cp(fam, "x", tol=1e-10)
        if rep.min_eigenvalue < -1e-10 * max(1.0, rep.max_abs_eigenvalue):
            failures.append(("choi", case, rep.min_eigenvalue))
        n = case % 4 + 1  # tuples up to n = 4
        k = kernel_gram_matrix(
            fam, "x", [complex_gaussian(rng, (d, d)) for _ in range(n)]
        )
        eigs = np.linalg.eigvalsh(0.5 * (k + k.conj().T))
        if eigs[0] < -1e-10 * max(1.0, float(np.max(np.abs(eigs)))):
            failures.append(("tuple-gram", case, float(eigs[0])))
        if case < 30:
            sites = ["x", "y"] if case % 2 == 0 else ["x", "y", "z"]
            tuples = [
                tuple(complex_gaussian(rng, (d, d)) for _ in sites) for _ in range(3)
            ]
            kp = product_kernel_gram_matrix(fam, sites, tuples)
            eigs = np.linalg.eigvalsh(0.5 * (kp + kp.conj().T))
            if eigs[0] < -1e-10 * max(1.0, float(np.max(np.abs(eigs)))):
                failures.append(("product-gram", case, float(eigs[0])))
    elapsed = time.time() - start
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    report("2 complete positivity certification (min-eig >= -1e-10 rel)", failures)


def test_criterion_3_limit_machinery():
    """Generator-model tails, cocycle, projectivity and right roots."""
    failures = []
    start = time.time()
    spec = decaying_generator_spec(seed=42, radius=8, d=2, nu=1)
    fam = build_from_generators(spec)

    bm = boundary_matrix(fam, ((0,),), tail_tol=1e-12)
    if bm.tail_bound > 1e-12 or not bm.rigorous:
        failures.append(("tail-bound", bm.tail_bound, bm.rigorous))

    rng = rng_from_seed(3000)
    pool = Zd(1).first(11)
    for case in range(20):
        k_small = int(rng.integers(1, 4))
        k_large = int(rng.integers(k_small + 1, 8))
        order = rng.permutation(len(pool))
        large = tuple(pool[i] for i in order[:k_large])
        small = tuple(large[:k_small])
        lhs = boundary_matrix(fam, large).matrix * transfer_matrix(fam, large, small)
        rhs = boundary_matrix(fam, small).matrix
        gap = float(np.max(np.abs(lhs - rhs)))
        if gap > 1e-10:
            failures.append(("cocycle", case, gap))

    for case in range(10):
        k_small = int(rng.integers(1, 3))
        k_large = int(rng.integers(k_small + 1, 7))
        order = rng.permutation(len(pool))
        large = tuple(pool[i] for i in order[:k_large])
        small = tuple(large[:k_small])
        obs = LocalObservable(small, tuple(random_observable(rng, 2) for _ in small))
        rep = check_projectivity(fam, large, obs, tol=1e-9)
        if not rep.passed:
            failures.append(("projectivity", case, rep.gap))

    for case in range(100):
        n = int(rng.integers(2, 5))
        t = random_positive_definite(rng, n, floor=0.05)
        w = random_unitary(rng, n)
        h = right_square_root(t, w)
        if float(np.max(np.abs(h @ h.conj().T - t))) > 1e-10 * np.linalg.norm(t):
            failures.append(("right-root", case))
        log_t = matrix_log(t)
        trace_abs = float(np.sum(np.abs(np.log(np.linalg.eigvalsh(t)))))
        if float(np.max(np.abs(log_t))) > trace_abs + 1e-12:
            failures.append(("log-entry-bound", case))
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    report(
        "3 limit machinery (tail 1e-12, cocycle 1e-10, projectivity 1e-9, "
        "roots 1e-10)",
        failures,
    )


def _generic_candidate(seed):
    """Seeded homogeneous model with a cleanly separated decay rate."""
    rng = rng_from_seed(seed, 900)
    d = int(rng.integers(2, 4))
    p = int(rng.integers(2, 4))
    model = HomogeneousModel(rng.standard_normal((p, d)).astype(complex))
    if model.dominance.parallel:
        return None
    ov = overlaps(model)
    diag_max = {(i, i) for i in model.dominance.largest}
    ratios = sorted(
        abs(ov.matrix[i, j]) / ov.beta_max
        for i in range(p)
        for j in range(p)
        if (i, j) not in diag_max
    )
    r_pred = ratios[-1]
    second = ratios[-2] if len(ratios) > 1 else 0.0
    if not (0.1 <= r_pred <= 0.75) or second > 0.6 * r_pred:
        return None
    obs_rng = rng_from_seed(seed, 901)
    obs = LocalObservable(
        (0, 1), tuple(random_observable(obs_rng, d) for _ in range(2))
    )
    return model, ov, r_pred, obs


def test_criterion_4_homogeneous_limit():
    """Normalized finite volumes converge at the predicted geometric rate
    to a convex combination of product states."""
    failures = []
    start = time.time()
    found = 0
    seed = 0
    while found < 20 and seed < 2000:
        cand = _generic_candidate(seed)
        seed += 1
        if cand is None:
            continue
        found += 1
        model, ov, r_pred, obs = cand
        lim = generic_limit(model, obs)
        scale = max(1.0, abs(lim))

        ns, gaps = [], []
        for n in range(3, 120):
            g = abs(finite_volume_normalized(model, n, obs) - lim)
            if g < 1e-11 * scale:
                break
            ns.append(n)
            gaps.append(g)
        if len(gaps) < 4:
            failures.append(("too-few-points", seed - 1, r_pred))
            continue
        rates = [gaps[k + 1] / gaps[k] for k in range(len(gaps) - 1)]
        r_fit = float(np.median(rates))
        if not (0.5 * r_pred <= r_fit <= 2.0 * r_pred):
            failures.append(("rate", seed - 1, r_pred, r_fit))

        # convex combination of multiplicative product components
        largest = model.dominance.largest
        weights = [1.0 / len(largest)] * len(largest)
        if abs(sum(weights) - 1.0) > 1e-12 or any(w <= 0 for w in weights):
            failures.append(("weights", seed - 1))
        recomposed = sum(
            w
            * np.prod(
                [
                    np.vdot(model.vectors[i], f @ model.vectors[i]) / ov.beta_max
                    for f in obs.factors
                ]
            )
            for w, i in zip(weights, largest)
        )
        if abs(recomposed - lim) > 1e-10 * scale:
            failures.append(("mixture", seed - 1, abs(recomposed - lim)))
        a_rng = rng_from_seed(seed - 1, 902)
        a = random_observable(a_rng, model.d)
        b = random_observable(a_rng, model.d)
        for i in largest:
            v = model.vectors[i]
            comp_a = np.vdot(v, a @ v) / ov.beta_max
            comp_b = np.vdot(v, b @ v) / ov.beta_max
            comp_ab = (np.vdot(v, a @ v) * np.vdot(v, b @ v)) / ov.beta_max**2
            if abs(comp_ab - comp_a * comp_b) > 1e-10 * max(1.0, abs(comp_ab)):
                failures.append(("component-multiplicativity", seed - 1, i))
    if found < 20:
        failures.append(("not-enough-models", found))
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    report(
        "4 homogeneous limit (20 models, rate within factor 2, convex "
        "product mixture 1e-10)",
        failures,
    )


def test_criterion_5_degenerate_product_regime():
    """Proportional vectors factorize; constant-overlap detection is exact."""
    failures = []
    rng = rng_from_seed(5000)
    eye = np.eye(2, dtype=complex)

    for case in range(10):
        # proportional vectors: identical rows up to positive scalars
        base = complex_gaussian(rng, (1, 2))[0]
        scales = rng.uniform(0.5, 2.0, size=2)
        model = HomogeneousModel(np.array([scales[0] * base, scales[1] * base]))
        fam = FiberFamily.homogeneous(model.vectors, Sites(("a", "b")))
        a = complex_gaussian(rng, (2, 2))
        b = complex_gaussian(rng, (2, 2))
        psi_ab = expectation_schur(fam, LocalObservable(("a", "b"), (a, b)))
        psi_1 = expectation_schur(fam, LocalObservable(("a", "b"), (eye, eye)))
        psi_a1 = expectation_schur(fam, LocalObservable(("a", "b"), (a, eye)))
        psi_1b = expectation_schur(fam, LocalObservable(("a", "b"), (eye, b)))
        gap = abs(psi_ab * psi_1 - psi_a1 * psi_1b)
        if gap > 1e-10 * max(1.0, abs(psi_a1 * psi_1b)):
            failures.append(("factorization", case, gap))

    hits = 0
    for case in range(50):
        make_constant = case % 2 == 0
        if make_constant:
            c = float(rng.uniform(0.2, 2.0))
            scale = np.sqrt(c)
            base = complex_gaussian(rng, (1, 3))[0]
            base = base / np.linalg.norm(base)
            model = HomogeneousModel(np.array([scale * base, scale * base]))
        else:
            model = HomogeneousModel(complex_gaussian(rng, (2, 3)))
        # constant overlaps: every vector one vector, the pattern all ones
        verdict = bool(model.dominance.pattern.all())
        if verdict != make_constant:
            failures.append(("detect", case, make_constant, verdict))
        hits += 1
    if hits != 50:
        failures.append(("sweep-count", hits))
    report("5 degenerate product regime (factorization 1e-10, 50-case sweep)", failures)


def test_criterion_6_mixing():
    """Perturbed lattice model mixes; orthonormal mixture does not."""
    failures = []
    start = time.time()
    fam = decaying_perturbation_family()
    a_obs = LocalObservable(
        ((0, 0),), (np.array([[0.7, 0.2], [0.2, 0.1]], dtype=complex),)
    )
    b_obs = LocalObservable(
        ((0, 0), (1, 0)),
        (
            np.array([[0.3, 0.1j], [-0.1j, 0.9]], dtype=complex),
            np.array([[1.0, 0.4], [0.4, 0.2]], dtype=complex),
        ),
    )
    alpha_rep = alpha_limit(fam, b_obs)
    if not alpha_rep.independent:
        failures.append(("alpha-independence", alpha_rep.spread))
    gaps = {t: mixing_gap(fam, a_obs, b_obs, t) for t in (5, 10, 20, 40)}
    agaps = {row.t: row.alpha_mixing_gap for row in mixing_scan(fam, a_obs, b_obs).rows}
    if gaps[40] >= 1e-6:
        failures.append(("gap-at-40", gaps[40]))
    if agaps[40] >= 1e-6:
        failures.append(("alpha-gap-at-40", agaps[40]))
    if gaps[5] < 1e3 * gaps[40]:
        failures.append(("gap-decrease", gaps[5], gaps[40]))
    if agaps[5] < 1e3 * agaps[40]:
        failures.append(("alpha-gap-decrease", agaps[5], agaps[40]))
    profile = [gaps[t] for t in (5, 10, 20, 40)]
    if not all(a > b > 0 for a, b in zip(profile, profile[1:])):
        failures.append(("gap-profile-not-decreasing", profile))

    witness = FiberFamily.homogeneous(np.eye(2, dtype=complex), Zd(2))
    proj0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    proj1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    wa = LocalObservable(((0, 0),), (proj0,))
    wb = LocalObservable(((0, 0),), (proj1,))
    wrep = alpha_limit(witness, wb)
    if wrep.independent:
        failures.append(("witness-independence-should-fail", wrep.spread))
    wgaps = [mixing_gap(witness, wa, wb, t) for t in (5, 10, 20, 40)]
    if min(wgaps) < wgaps[0] / 10.0:
        failures.append(("witness-gap-decayed", wgaps))
    elapsed = time.time() - start
    if elapsed >= 120:
        failures.append(("runtime", elapsed))
    report(
        "6 mixing (gaps < 1e-6 at t=40, decrease >= 1e3; non-mixing witness)",
        failures,
    )


def test_criterion_7_equal_offdiagonal_construction():
    """Constant off-diagonal overlaps at 1e-12 with full-rank vectors."""
    failures = []
    for p in range(2, 7):
        for c10 in range(1, 10):
            c = c10 / 10.0
            vecs = constant_offdiagonal_vectors(p, c)
            g = vecs @ vecs.conj().T
            off = g[~np.eye(p, dtype=bool)]
            dev = float(np.max(np.abs(off - c)))
            if dev > 1e-12:
                failures.append(("offdiagonal", p, c, dev))
            if np.linalg.matrix_rank(vecs, tol=1e-10) != p:
                failures.append(("rank", p, c))
    report("7 equal-off-diagonal construction (1e-12, full rank, p <= 6)", failures)


def test_criterion_8_determinism(tmp_path):
    """Selftest reports are byte-identical across runs and thread counts."""
    from schurstates.cli import main

    failures = []
    blobs = []
    for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        target = tmp_path / f"selftest_{tag}.json"
        code = main(
            [
                "selftest",
                "--seed", "123",
                "--threads", threads,
                "--output", str(target),
            ]
        )
        if code != 0:
            failures.append(("exit-code", tag, code))
        blobs.append(target.read_bytes())
    if not (blobs[0] == blobs[1] == blobs[2]):
        failures.append(("bytes-differ",))
    payload = json.loads(blobs[0])
    if not payload["results"]["pass"]:
        failures.append(("selftest-failed",))
    report("8 determinism (byte-identical selftest, threads 1 vs 4)", failures)
