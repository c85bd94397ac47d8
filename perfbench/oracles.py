"""Independent reference computations for the benchmark's correctness checks.

Each function reads the same JSON input files the command line reads and
computes the expected answer with plain numpy, without importing
``schurstates``.  None of them replays a stored copy of the program's
output.
"""

from __future__ import annotations

from functools import reduce

import numpy as np


def cmatrix(rows) -> np.ndarray:
    """Nested ``[re, im]`` pairs to a complex array of any rank."""
    a = np.asarray(rows, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def shell_count(nu: int, r: int) -> int:
    """Number of points of Z^nu with 1-norm exactly r, by recursion on the
    first coordinate."""
    if nu == 0:
        return 1 if r == 0 else 0
    return sum(shell_count(nu - 1, r - abs(c)) for c in range(-r, r + 1))


# ---------------------------------------------------------------------------
# Dense tensor contraction (eval, homog)
# ---------------------------------------------------------------------------


def dense_expectation(vectors: np.ndarray, n_sites: int, factors, normalized: bool) -> complex:
    """<Psi, (b_1 (x) ... (x) b_k (x) 1) Psi> for Psi = sum_i h_i^(x n_sites).

    ``vectors`` is the (d_I, d) homogeneous reference block; ``factors``
    act on the first ``len(factors)`` sites.  The state and the operator
    are built as explicit Kronecker products of size d^n_sites.
    """
    d = vectors.shape[1]
    psi = sum(reduce(np.kron, [h] * n_sites) for h in vectors)
    ops = list(factors) + [np.eye(d)] * (n_sites - len(factors))
    value = complex(psi.conj() @ reduce(np.kron, ops) @ psi)
    return value / complex(psi.conj() @ psi) if normalized else value


# ---------------------------------------------------------------------------
# Generator models (limit)
# ---------------------------------------------------------------------------


def generator_limit(model: dict, observable: dict) -> dict:
    """Boundary matrix and limit value of a generator model.

    At a declared site the Gram matrix is U* e^D U and the fiber vectors
    are the rows of h = U* e^{D/2} U W*; every other site carries the
    standard basis, whose Gram is exactly the identity.  Infinitely many
    identity factors annihilate the off-diagonal boundary entries, so the
    boundary is diagonal with entries prod (U* e^D U)_ii over the declared
    sites outside the observable region.
    """
    d = model["fiber_dim"]
    region = [tuple(s) for s in observable["region"]]
    inside = set(region)
    vectors = {}
    diag = np.ones(d)
    for rec in model["vectors"]["sites"]:
        site = tuple(rec["site"])
        D = np.asarray(rec["D_H"], dtype=np.float64)
        U = cmatrix(rec["U"])
        W = cmatrix(rec["W"])
        if site in inside:
            vectors[site] = (U.conj().T * np.exp(D / 2)) @ U @ W.conj().T
        else:
            diag = diag * np.real(np.einsum("ki,k,ki->i", U.conj(), np.exp(D), U))
    local = np.ones(d, dtype=np.complex128)
    for site, b in zip(region, observable["factors"]):
        h = vectors.get(site, np.eye(d))
        local = local * np.einsum("ip,pq,iq->i", h.conj(), cmatrix(b), h)
    return {"boundary": np.diag(diag).astype(np.complex128), "value": complex((local * diag).sum())}


# ---------------------------------------------------------------------------
# Perturbed lattice models (mixing-scan)
# ---------------------------------------------------------------------------


class PerturbedLimit:
    """Infinite-volume values of a ``perturbed`` lattice model.

    The model is radial: every site at 1-norm r carries the normalized
    vectors (h + eps_r v_i) / |h + eps_r v_i|, so the complement product
    of any finite region is prod_r G_r^(n_r - k_r), with n_r the shell
    size and k_r the region's sites in shell r.  Normalization rescales
    the origin's vectors by 1/sqrt(total weight of the empty region).
    """

    #: Shells beyond this radius have Gram entries equal to 1 in double
    #: precision for every model the benchmark runs (eps_r < 1e-27).
    R_MAX = 240

    def __init__(self, model: dict):
        vec = model["vectors"]
        self.nu = model["lattice"]["nu"]
        self.d_I = model["index_size"]
        base = cmatrix(vec["base"])
        dirs = cmatrix(vec["directions"])
        eps0, decay = vec["epsilon0"], vec["decay"]
        near_amp, near_r = vec.get("near_amplitude"), vec.get("near_radius", 3)
        eps = [
            near_amp if near_amp is not None and r <= near_r else eps0 * decay**r
            for r in range(self.R_MAX + 1)
        ]
        raw = np.array([base[None, :] + e * dirs for e in eps])
        self.vectors = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        self.grams = np.einsum("rip,rjp->rij", self.vectors, self.vectors.conj())
        self.shell_sizes = [shell_count(self.nu, r) for r in range(self.R_MAX + 1)]
        self.scale = 1.0
        self.total = complex(self._complement(()).sum())
        if vec.get("normalize", True):
            self.scale = 1.0 / self.total.real

    def _complement(self, region) -> np.ndarray:
        taken = [0] * (self.R_MAX + 1)
        for site in region:
            taken[sum(abs(c) for c in site)] += 1
        out = np.ones((self.d_I, self.d_I), dtype=np.complex128)
        for r, g in enumerate(self.grams):
            out = out * np.power(g, self.shell_sizes[r] - taken[r])
        origin_outside = (0,) * self.nu not in set(region)
        return out * (self.scale if origin_outside else 1.0)

    def local(self, region, factors) -> np.ndarray:
        """prod_x Tr(h_i h_j* b_x) over the region, as a (d_I, d_I) matrix."""
        out = np.ones((self.d_I, self.d_I), dtype=np.complex128)
        for site, b in zip(region, factors):
            r = sum(abs(c) for c in site)
            h = self.vectors[r] * (np.sqrt(self.scale) if r == 0 else 1.0)
            out = out * (h.conj() @ b @ h.T).T
        return out

    def value(self, region, factors) -> tuple[complex, float]:
        """The limit value and the sum of |local| entries (its error weight)."""
        m = self.local(region, factors)
        return complex((m * self._complement(region)).sum()), float(np.abs(m).sum())


def mixing_gaps(model: dict, near: dict, far: dict, t_list, tail_tol: float) -> list:
    """Expected translate-strategy mixing gaps, each with its tolerance.

    The far observable is shifted along the first axis by t + 1 + R, R
    being the largest 1-norm in its region.  The tolerance adds the
    certified error of the three limit values that enter a gap (each
    boundary entry within ``tail_tol``) and of the normalization weight
    (each of its d_I^2 entries within ``tail_tol``), plus 1e-15 roundoff.
    """
    lim = PerturbedLimit(model)
    a_region = [tuple(s) for s in near["region"]]
    a_factors = [cmatrix(f) for f in near["factors"]]
    b_region = [tuple(s) for s in far["region"]]
    b_factors = [cmatrix(f) for f in far["factors"]]
    radius = max(sum(abs(c) for c in s) for s in b_region)
    v_a, w_a = lim.value(a_region, a_factors)
    norm_err = lim.d_I**2 * tail_tol / abs(lim.total)
    out = []
    for t in t_list:
        shift = t + 1 + radius
        moved = [(s[0] + shift,) + s[1:] for s in b_region]
        v_b, w_b = lim.value(moved, b_factors)
        v_j, w_j = lim.value(a_region + moved, a_factors + b_factors)
        tol = (
            tail_tol * (w_j + abs(v_a) * w_b + abs(v_b) * w_a)
            + norm_err * (abs(v_j) + 2 * abs(v_a * v_b))
            + 1e-15
        )
        out.append((t, abs(v_j - v_a * v_b), tol))
    return out
