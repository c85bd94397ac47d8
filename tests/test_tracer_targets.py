"""The benchmark tracer (``perfbench/tracer.py``) wraps package functions
by module and attribute name.  These tests read its ``TARGETS`` table
without importing or changing it, so a rename inside the package fails
here instead of only in a traced benchmark run."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from schurstates import lattice
from schurstates.kernel import FarFieldTail, FiberFamily
from schurstates.limit import boundary_matrix, build_from_generators
from schurstates.mixing import decaying_perturbation_family
from schurstates.modelfile import load_model
from schurstates.sampling import decaying_generator_spec

from conftest import ball_size

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"
MODELS = REPO / "models"


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"TARGETS not found in {TRACER}")


TARGETS = tracer_targets()


@pytest.mark.parametrize("module, attr", [(t[0], t[1]) for t in TARGETS])
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"schurstates.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"schurstates.{module}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def test_family_init_takes_provider_and_tail():
    params = inspect.signature(FiberFamily.__init__).parameters
    assert "provider" in params
    assert "tail" in params


def test_cli_parser_builder_exists():
    cli = importlib.import_module("schurstates.cli")
    assert callable(cli.build_parser)


@pytest.mark.parametrize(
    "pattern",
    [np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool)],
    ids=["IdentityTail", "OnesTail"],
)
def test_tail_certificates_keep_remaining_field(pattern):
    # the tracer times certificates through dataclasses.replace(tail, remaining=...);
    # the ids name the identity (generator) and all-ones (perturbed) patterns
    assert dataclasses.is_dataclass(FarFieldTail)
    assert "remaining" in {f.name for f in dataclasses.fields(FarFieldTail)}
    tail = FarFieldTail(pattern, lambda r: np.zeros(np.shape(r)), exact_beyond=2)
    timed = dataclasses.replace(tail, remaining=lambda r: np.zeros(np.shape(r)))
    assert timed.exact_beyond == 2
    assert np.array_equal(timed.pattern, pattern)
    p = np.full((3, 2, 2), 0.5)
    radii = np.array([0, 1, 2])
    for got, want in zip(timed.settle(p, radii), tail.settle(p, radii)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "build",
    [
        decaying_perturbation_family,
        lambda: load_model(MODELS / "perturbed_z2.json").family(),
        lambda: build_from_generators(decaying_generator_spec(seed=1, radius=3, d=2, nu=2)),
        lambda: FiberFamily.homogeneous(np.eye(2, dtype=complex), lattice.Zd(2)),
        lambda: FiberFamily.homogeneous(np.array([[1.0, 0.0], [-1.0, 0.0]]), lattice.Zd(1)),
    ],
    ids=["perturbed-raw", "perturbed-normalized", "generators", "homogeneous", "homogeneous-diverging"],
)
def test_lattice_tail_remaining_is_a_function(build):
    # the tracer wraps ``remaining`` with functools.wraps, which reads its
    # __qualname__
    remaining = build().tail.remaining
    assert inspect.isfunction(remaining)
    assert remaining.__qualname__


def test_lattice_walks_read_shells_through_shell(monkeypatch):
    # the tracer's lattice.shell_* figures cover boundary walks only if
    # the walk looks its shells up by this module attribute
    calls = []
    shell = lattice.shell

    def counting(nu, r):
        calls.append((nu, r))
        return shell(nu, r)

    monkeypatch.setattr(lattice, "shell", counting)
    vectors = [[1.0]]
    # a certificate that settles only on its exact-identity radius, 3
    tail = FarFieldTail(np.eye(1, dtype=bool), remaining=lambda r: 1.0, exact_beyond=3)
    family = FiberFamily(1, 1, lambda site: vectors, lattice.Zd(2), tail=tail)
    result = boundary_matrix(family, ())
    assert [(2, r) for r in range(-1, 4)] == calls
    assert result.sites_consumed == ball_size(2, 3)


@pytest.mark.parametrize(
    "build",
    [
        decaying_perturbation_family,
        lambda: build_from_generators(decaying_generator_spec(seed=1, radius=3, d=2, nu=2)),
    ],
    ids=["perturbed", "generators"],
)
def test_boundary_walk_takes_one_region(build):
    # the tracer counts limit.walks at ``_boundary_walk`` and reads
    # ``sites_consumed`` from what it returns
    from schurstates import limit

    params = list(inspect.signature(limit._boundary_walk).parameters)
    assert params == ["family", "region", "exhaustion", "tail_tol", "site_cap"]
    result = limit._boundary_walk(build(), ((0, 0),), None, 1e-12, limit.SITE_CAP)
    assert isinstance(result, limit.BoundaryMatrix)
    assert isinstance(result.sites_consumed, int) and result.sites_consumed > 0
