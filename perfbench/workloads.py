"""The benchmark's workloads.

Each workload owns its inputs, one operation (a fixed list of command
lines handed to ``schurstates.cli.main``) and a check of that
operation's outputs against ``oracles``.  Inputs and outputs live in the
workload's own directory under ``perfbench/out/``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from schurstates import cli

import oracles


def _near(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _load(path) -> dict:
    return json.loads(Path(path).read_text())


def _pair(z) -> complex:
    return complex(z[0], z[1])


def _encode(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


class Schemas:
    """The report schemas shipped in ``schemas/``."""

    def __init__(self, root: Path):
        import jsonschema
        from referencing import Registry, Resource

        directory = root / "schemas"
        defs = json.loads((directory / "defs.schema.json").read_text())
        registry = Registry().with_resource("defs.schema.json", Resource.from_contents(defs))
        self._validators = {}
        for path in directory.glob("report.*.schema.json"):
            command = path.name[len("report."):-len(".schema.json")]
            schema = json.loads(path.read_text())
            self._validators[command] = jsonschema.Draft202012Validator(schema, registry=registry)

    def problems(self, command: str, report: dict) -> list:
        return [f"{command}: schema: {e.message}" for e in self._validators[command].iter_errors(report)]


class Workload:
    """A list of command lines run back to back as one operation."""

    name = ""
    #: Run one untimed operation before timing, so lazy set-up and first
    #: calls into numpy are not timed.
    warm_up = True

    def __init__(self, root: Path, out: Path, seed: int):
        self.models = root / "models"
        self.out = out
        self.commands: list = []  # (label, argv)

    def operation(self) -> list:
        """Run every command once; return the exit codes."""
        return [cli.main(argv) for _, argv in self.commands]

    def output(self, label: str) -> Path:
        return self.out / f"{label}.out"

    def check(self, codes: list) -> list:
        """Problems found in the last operation's outputs (empty when correct)."""
        problems = [
            f"{label}: exit code {code}"
            for (label, _), code in zip(self.commands, codes)
            if code != 0
        ]
        return problems or self.check_outputs()

    def check_outputs(self) -> list:
        raise NotImplementedError


class ScanZ2(Workload):
    """The README ``mixing-scan`` example on the perturbed Z^2 model."""

    name = "scan_z2"
    # Each operation loads the model and builds its family afresh, as the
    # command line does, so a warm-up operation would warm nothing and
    # cost a timed sample (about 25 s each).
    warm_up = False
    TAIL_TOL = 1e-14
    T_LIST = (5, 10, 20, 40)

    def __init__(self, root: Path, out: Path, seed: int):
        super().__init__(root, out, seed)
        m = self.models
        self.commands = [(
            "mixing-scan",
            ["mixing-scan", "--model", str(m / "perturbed_z2.json"),
             "--observable", str(m / "observable_near.json"),
             "--observable-far", str(m / "observable_far.json"),
             "--format", "csv", "--tmax", "40", "--tail-tol", repr(self.TAIL_TOL),
             "--output", str(self.output("mixing-scan"))],
        )]
        self.expected = oracles.mixing_gaps(
            _load(m / "perturbed_z2.json"), _load(m / "observable_near.json"),
            _load(m / "observable_far.json"), self.T_LIST, self.TAIL_TOL,
        )

    def check_outputs(self) -> list:
        with open(self.output("mixing-scan"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        got_t = [int(r["t"]) for r in rows]
        if got_t != list(self.T_LIST) or any(r["strategy"] != "translate" for r in rows):
            return [f"mixing-scan: rows for t={got_t}, expected translate rows for {self.T_LIST}"]
        problems = []
        gaps = [float(r["mixing_gap"]) for r in rows]
        for (t, want, tol), got in zip(self.expected, gaps):
            if abs(got - want) > tol:
                problems.append(f"mixing-scan: gap at t={t} is {got!r}, oracle {want!r} (tol {tol:.2e})")
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"mixing-scan: gaps do not strictly decrease: {gaps}")
        alpha = [float(r["alpha_mixing_gap"]) for r in rows]
        if not all(math.isfinite(a) for a in alpha):
            problems.append(f"mixing-scan: alpha gaps not all finite: {alpha}")
        return problems


class LimitGen(Workload):
    """``limit --check-projectivity`` on a seeded generator model on Z^2."""

    name = "limit_gen"
    RADIUS = 30
    D = 2
    REGION = ((0, 0), (1, 0), (0, -1))
    SUPERSET = REGION + ((-1, 1), (2, 0), (0, 3))

    def __init__(self, root: Path, out: Path, seed: int):
        super().__init__(root, out, seed)
        self.model, self.observable = self.generate(seed)
        model_path = out / "model.json"
        obs_path = out / "observable.json"
        model_path.write_text(json.dumps(self.model, indent=1) + "\n")
        obs_path.write_text(json.dumps(self.observable, indent=1) + "\n")
        self.commands = [(
            "limit",
            ["limit", "--model", str(model_path), "--observable", str(obs_path),
             "--region", ";".join(",".join(map(str, s)) for s in self.SUPERSET),
             "--check-projectivity", "--output", str(self.output("limit"))],
        )]
        self.expected = oracles.generator_limit(self.model, self.observable)

    @classmethod
    def generate(cls, seed: int) -> tuple:
        """Every site of the 1-norm ball of radius RADIUS gets a real
        diagonal of absolute mass 2^-r and Haar unitaries U and W (QR of a
        complex Gaussian matrix with the phases of R's diagonal removed)."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
        d = cls.D

        def haar():
            z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
            q, r = np.linalg.qr(z)
            phases = np.diag(r) / np.abs(np.diag(r))
            return q * phases

        sites = []
        for x in range(-cls.RADIUS, cls.RADIUS + 1):
            rest = cls.RADIUS - abs(x)
            for y in range(-rest, rest + 1):
                raw = rng.standard_normal(d)
                diag = raw * (2.0 ** -(abs(x) + abs(y)) / np.sum(np.abs(raw)))
                sites.append({"site": [x, y], "D_H": diag.tolist(),
                              "U": _encode(haar()), "W": _encode(haar())})
        model = {
            "lattice": {"kind": "zd", "nu": 2},
            "fiber_dim": d,
            "index_size": d,
            "vectors": {"mode": "generators", "sites": sites,
                        "tail": {"beyond_radius": cls.RADIUS, "D_H": "zero"}},
            "normalized": False,
        }
        factors = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
                   for _ in cls.REGION]
        observable = {"region": [list(s) for s in cls.REGION],
                      "factors": [_encode(f) for f in factors]}
        return model, observable

    def check_outputs(self) -> list:
        return check_generator_limit(
            "limit", _load(self.output("limit")), self.expected
        )


def check_generator_limit(label: str, report: dict, expected: dict) -> list:
    """A limit report against ``oracles.generator_limit``."""
    res = report["results"]
    problems = []
    value = _pair(res["value"])
    if not _near(value, expected["value"], 1e-10):
        problems.append(f"{label}: value {value!r}, oracle {expected['value']!r}")
    boundary = oracles.cmatrix(res["boundary"])
    if not np.allclose(boundary, expected["boundary"], rtol=1e-10, atol=1e-12):
        problems.append(f"{label}: boundary {boundary.tolist()}, oracle {expected['boundary'].tolist()}")
    if res["rigorous"] is not True:
        problems.append(f"{label}: boundary not rigorous")
    if res.get("projectivity", {}).get("pass") is not True:
        problems.append(f"{label}: projectivity check did not pass")
    return problems


class ReadmeSmall(Workload):
    """The other five README examples, run back to back."""

    name = "readme_small"

    def __init__(self, root: Path, out: Path, seed: int):
        super().__init__(root, out, seed)
        m = self.models
        orth = str(m / "orthonormal.json")
        ident = str(m / "observable_identity.json")
        self.commands = [
            ("check-kernel", ["check-kernel", "--model", orth, "--seed", str(seed)]),
            ("eval", ["eval", "--model", orth, "--observable", ident, "--region", "w;x;y"]),
            ("limit", ["limit", "--model", str(m / "generator_decay.json"),
                       "--observable", str(m / "observable_site0_z1.json"),
                       "--region", "0;1;-1", "--check-projectivity"]),
            ("homog", ["homog", "--model", orth, "--observable", ident, "--total-sites", "6"]),
            ("selftest", ["selftest", "--seed", str(seed)]),
        ]
        for label, argv in self.commands:
            argv += ["--output", str(self.output(label))]
        self.schemas = Schemas(root)
        model, obs = _load(orth), _load(ident)
        reference = oracles.cmatrix(model["vectors"]["reference"])
        factors = [oracles.cmatrix(f) for f in obs["factors"]]
        self.dense_eval = oracles.dense_expectation(reference, 3, factors, normalized=False)
        self.dense_homog = oracles.dense_expectation(reference, 6, factors, normalized=True)
        self.limit_expected = oracles.generator_limit(
            _load(m / "generator_decay.json"), _load(m / "observable_site0_z1.json")
        )

    def check_outputs(self) -> list:
        problems = []
        reports = {}
        for label, _ in self.commands:
            reports[label] = _load(self.output(label))
            problems += self.schemas.problems(label, reports[label])
        if problems:
            return problems
        for label in ("check-kernel", "selftest"):
            if reports[label]["results"]["pass"] is not True:
                problems.append(f"{label}: pass is not true")
        dense = _pair(reports["eval"]["results"]["dense"])
        if not _near(dense, self.dense_eval, 1e-12):
            problems.append(f"eval: dense {dense!r}, contraction {self.dense_eval!r}")
        homog = _pair(reports["homog"]["results"]["finite_normalized"])
        if not _near(homog, self.dense_homog, 1e-12):
            problems.append(f"homog: finite_normalized {homog!r}, contraction {self.dense_homog!r}")
        problems += check_generator_limit("limit", reports["limit"], self.limit_expected)
        return problems


WORKLOADS = {w.name: w for w in (ScanZ2, LimitGen, ReadmeSmall)}
