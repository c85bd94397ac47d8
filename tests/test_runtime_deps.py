"""numpy is the package's only runtime dependency: the CLI runs with every
test-only package made unimportable, on every README command that reads a
model or observable file, so that the schema check needs no jsonschema."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"

#: Installed for the tests only; the package must never import them.
TEST_ONLY = ("scipy", "sympy", "mpmath", "jsonschema", "hypothesis")

# a None entry in sys.modules makes every import of that name, and of its
# submodules, raise ImportError
SCRIPT = f"""
import sys
for name in {TEST_ONLY!r}:
    sys.modules[name] = None
try:
    import scipy.linalg
except ImportError:
    pass
else:
    sys.exit("scipy is still importable")
from schurstates.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--seed", "0"],
        [
            "limit",
            "--model", str(MODELS / "generator_decay.json"),
            "--observable", str(MODELS / "observable_site0_z1.json"),
            "--region", "0;1;-1", "--check-projectivity",
        ],
        [
            "eval",
            "--model", str(MODELS / "orthonormal.json"),
            "--observable", str(MODELS / "observable_identity.json"),
            "--region", "w;x;y",
        ],
        [
            "mixing-scan",
            "--model", str(MODELS / "perturbed_z2.json"),
            "--observable", str(MODELS / "observable_near.json"),
            "--observable-far", str(MODELS / "observable_far.json"),
            "--format", "csv", "--tmax", "40",
        ],
    ],
    ids=["selftest", "readme-limit", "readme-eval", "readme-mixing-scan"],
)
def test_cli_runs_without_test_only_packages(argv, tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv, "--output", str(tmp_path / "report.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").stat().st_size > 0
