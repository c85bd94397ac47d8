import contextlib
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from schurstates.cli import _parser, build_parser, emit_csv_flat, emit_json, main
from schurstates.errors import ValidationError
from schurstates.modelfile import encode_matrix, load_model

from conftest import perturbed_ball_product, validate_against

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


@pytest.fixture
def orthonormal_model(tmp_path):
    return write_json(
        tmp_path,
        "orth.json",
        {
            "lattice": {"kind": "sites", "sites": ["a", "b", "c"]},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {"mode": "homogeneous", "reference": encode_matrix(np.eye(2))},
        },
    )


@pytest.fixture
def identity_obs(tmp_path):
    return write_json(
        tmp_path,
        "obs.json",
        {
            "region": ["a", "b"],
            "factors": [encode_matrix(np.eye(2)), encode_matrix(np.eye(2))],
        },
    )


class TestEval:
    def test_orthonormal_identity_gives_index_count(
        self, orthonormal_model, identity_obs, capsys
    ):
        code, out, _ = run_cli(
            ["eval", "--model", orthonormal_model, "--observable", identity_obs],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.eval.schema.json")
        res = payload["results"]
        assert res["schur"] == [2.0, 0.0]
        assert res["dense"] == [2.0, 0.0]
        assert res["schur_vs_dense"] == 0.0

    def test_region_missing_an_observable_site_exits_3(
        self, orthonormal_model, identity_obs, capsys
    ):
        code, out, err = run_cli(
            ["eval", "--model", orthonormal_model, "--observable", identity_obs, "--region", "a;c"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == "precondition error: observable sites ['b'] outside region\n"

    def test_repeated_region_site_exits_1(self, capsys):
        model, obs = (str(MODELS / name) for name in ("orthonormal.json", "observable_identity.json"))
        code, out, err = run_cli(
            ["eval", "--model", model, "--observable", obs, "--region", "w;w;x"], capsys
        )
        assert (code, out) == (1, "")
        assert err == "validation error: region 'w;w;x' names site 'w' twice\n"

    def test_model_files_validate_against_schema(self):
        for name in ("orthonormal.json", "generator_decay.json", "perturbed_z2.json"):
            payload = json.loads((MODELS / name).read_text())
            validate_against(payload, "model.schema.json")

    def test_observable_files_validate(self):
        for name in (
            "observable_identity.json",
            "observable_near.json",
            "observable_far.json",
            "observable_site0_z1.json",
        ):
            payload = json.loads((MODELS / name).read_text())
            validate_against(payload, "observable.schema.json")

    def test_validation_failure_exits_1(self, tmp_path, identity_obs, capsys):
        bad = write_json(
            tmp_path,
            "bad.json",
            {
                "lattice": {"kind": "sites", "sites": ["a"]},
                "fiber_dim": 2,
                "index_size": 1,
                "vectors": {
                    "mode": "explicit",
                    "by_site": [{"site": "a", "vectors": [[[0.0, 0.0], [0.0, 0.0]]]}],
                },
            },
        )
        code, _, err = run_cli(
            ["eval", "--model", bad, "--observable", identity_obs], capsys
        )
        assert code == 1
        assert "model.vectors: site 'a': vector 0 is zero" in err

    @pytest.mark.parametrize(
        "field, value",
        [("near_amplitude", "abc"), ("near_radius", "x"), ("decay", 1.5)],
    )
    def test_bad_perturbed_field_exits_1(self, tmp_path, field, value, capsys):
        data = json.loads((MODELS / "perturbed_z2.json").read_text())
        data["vectors"][field] = value
        bad = write_json(tmp_path, "bad.json", data)
        code, out, err = run_cli(
            ["limit", "--model", bad, "--observable", str(MODELS / "observable_near.json")],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith("validation error:")
        assert f"model.vectors.{field}:" in err


class TestNonFiniteModelNumbers:
    """Python's JSON reader accepts NaN and Infinity; a model file holding
    one in a matrix or vector is refused by the schema check, which counts
    neither as a number, before any norm is formed, so stderr holds the
    validation error alone (no numpy warning) and names the entry."""

    @staticmethod
    def explicit():
        vectors = encode_matrix(np.eye(2))
        vectors[1][1] = [float("inf"), 0.0]
        return {
            "lattice": {"kind": "sites", "sites": ["w", "x"]},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {"mode": "explicit", "by_site": [
                {"site": "w", "vectors": vectors},
                {"site": "x", "vectors": encode_matrix(np.eye(2))},
            ]},
        }, "model.vectors.by_site[0].vectors[1][1][0]: expected number, got inf"

    @staticmethod
    def homogeneous():
        reference = encode_matrix(np.eye(2))
        reference[0][1] = [0.0, float("nan")]
        return {
            "lattice": {"kind": "zd", "nu": 1},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {"mode": "homogeneous", "reference": reference},
        }, "model.vectors.reference[0][1][1]: expected number, got nan"

    @staticmethod
    def perturbed():
        data = json.loads((MODELS / "perturbed_z2.json").read_text())
        data["vectors"]["directions"][1][0] = [float("-inf"), 0.0]
        data["vectors"]["base"][1] = [0.0, float("nan")]
        return data, (
            "model.vectors.base[1][1]: expected number, got nan\n"
            "  model.vectors.directions[1][0][0]: expected number, got -inf"
        )

    @pytest.mark.parametrize("mode", ["explicit", "homogeneous", "perturbed"])
    def test_exits_1_with_the_validation_error_alone(self, tmp_path, capsys, mode):
        data, message = getattr(self, mode)()
        path = write_json(tmp_path, "model.json", data)
        assert "Infinity" in Path(path).read_text() or "NaN" in Path(path).read_text()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["check-kernel", "--model", path], capsys)
        assert (code, out, caught) == (1, "", [])
        assert err == f"validation error: model validation failed:\n  {message}\n"


class TestUnreadableFiles:
    """A file that is not UTF-8, or nests deeper than the parser's
    recursion limit, is a validation error naming the file."""

    CONTENTS = {
        "not-utf8": (b'{"lattice": "\xff"}', "is not UTF-8 text: byte 13: invalid start byte"),
        "nested": (b"[" * 100_000 + b"]" * 100_000, "nests too deeply to parse"),
    }

    @pytest.mark.parametrize("kind", ["model", "observable"])
    @pytest.mark.parametrize("content", sorted(CONTENTS))
    def test_exits_1_naming_the_file(self, tmp_path, capsys, kind, content):
        raw, message = self.CONTENTS[content]
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        files = {"model": str(MODELS / "perturbed_z2.json"),
                 "observable": str(MODELS / "observable_near.json")}
        files[kind] = str(bad)
        code, out, err = run_cli(
            ["limit", "--model", files["model"], "--observable", files["observable"]], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"validation error: {kind} file {bad} {message}\n"


class TestSiteListModels:
    """Explicit vectors and ``--region`` read the declared site list."""

    @staticmethod
    def explicit_model(tmp_path, sites, entries):
        block = encode_matrix([[1.0, 0.0], [0.6, 0.8]])
        return write_json(
            tmp_path,
            "explicit.json",
            {
                "lattice": {"kind": "sites", "sites": sites},
                "fiber_dim": 2,
                "index_size": 2,
                "vectors": {
                    "mode": "explicit",
                    "by_site": [{"site": s, "vectors": block} for s in entries],
                },
            },
        )

    @pytest.fixture
    def obs_a(self, tmp_path):
        return write_json(
            tmp_path,
            "obs_a.json",
            {"region": ["a"], "factors": [encode_matrix(np.eye(2))]},
        )

    @pytest.mark.parametrize(
        "sites, entries, message",
        [
            (["a"], ["a", "b"], "by_site[1].site: 'b' is not a declared site"),
            (["a", "b"], ["a", "b", "a"], "by_site[2].site: second entry for site 'a'"),
            (["a", "b"], ["a"], "by_site: no vectors for sites ['b']"),
        ],
    )
    def test_by_site_entries_must_match_declared_sites(
        self, tmp_path, obs_a, capsys, sites, entries, message
    ):
        model = self.explicit_model(tmp_path, sites, entries)
        code, out, err = run_cli(
            ["limit", "--model", model, "--observable", obs_a], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("validation error: model validation failed:")
        assert f"model.vectors.{message}" in err

    def test_limit_on_a_site_list_is_exact(self, tmp_path, obs_a, capsys):
        # the walk covers every site outside the region: bound 0, rigorous
        model = self.explicit_model(tmp_path, ["a", "b", "c"], ["c", "a", "b"])
        code, out, err = run_cli(
            ["limit", "--model", model, "--observable", obs_a, "--region", "a;b",
             "--check-projectivity"],
            capsys,
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        validate_against(payload, "report.limit.schema.json")
        results = payload["results"]
        assert (results["rigorous"], results["tail_bound"], results["sites_consumed"]) == (
            True, 0.0, 2
        )
        assert results["projectivity"]["pass"] is True

    @pytest.fixture
    def int_site_model(self, tmp_path):
        return write_json(
            tmp_path,
            "ints.json",
            {
                "lattice": {"kind": "sites", "sites": [1, 2]},
                "fiber_dim": 2,
                "index_size": 2,
                "vectors": {"mode": "homogeneous", "reference": encode_matrix(np.eye(2))},
            },
        )

    def test_region_names_integer_sites(self, tmp_path, int_site_model, capsys):
        obs = write_json(
            tmp_path, "obs1.json", {"region": [1], "factors": [encode_matrix(np.eye(2))]}
        )
        code, out, _ = run_cli(
            ["eval", "--model", int_site_model, "--observable", obs, "--region", "1;2"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["region"] == ["1", "2"]
        # orthonormal vectors: every product state contributes 1
        assert res["extended"] == [2.0, 0.0]

    def test_unknown_region_site_exits_1(self, tmp_path, int_site_model, capsys):
        obs = write_json(
            tmp_path, "obs1.json", {"region": [1], "factors": [encode_matrix(np.eye(2))]}
        )
        code, out, err = run_cli(
            ["eval", "--model", int_site_model, "--observable", obs, "--region", "1;q"],
            capsys,
        )
        assert (code, out, err) == (1, "", "validation error: unknown site 'q'\n")


class TestCheckKernel:
    def test_report_passes_and_validates(self, capsys):
        code, out, _ = run_cli(
            ["check-kernel", "--model", str(MODELS / "orthonormal.json")], capsys
        )
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.check-kernel.schema.json")
        assert payload["results"]["pass"]
        assert len(payload["results"]["products"]) == 2


    def test_two_site_model_skips_the_three_site_group(self, tmp_path, capsys):
        model = write_json(
            tmp_path,
            "two.json",
            {
                "lattice": {"kind": "sites", "sites": ["a", "b"]},
                "fiber_dim": 2,
                "index_size": 2,
                "vectors": {"mode": "homogeneous", "reference": encode_matrix(np.eye(2))},
            },
        )
        code, out, _ = run_cli(["check-kernel", "--model", model], capsys)
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.check-kernel.schema.json")
        assert [p["sites"] for p in payload["results"]["products"]] == [["a", "b"]]
        assert payload["results"]["pass"]


class TestLimit:
    def test_generator_projectivity(self, capsys):
        code, out, _ = run_cli(
            [
                "limit",
                "--model", str(MODELS / "generator_decay.json"),
                "--observable", str(MODELS / "observable_site0_z1.json"),
                "--region", "0;1;-1",
                "--check-projectivity",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.limit.schema.json")
        res = payload["results"]
        assert res["tail_bound"] <= 1e-12
        assert res["projectivity"]["pass"]
        assert res["projectivity"]["gap"] <= 1e-9
        assert res["summability_certificate"] > 0

    def test_cancelling_tuples_leave_no_weight_to_normalize(self, tmp_path, identity_obs, capsys):
        # h_2 = -h_1 at site a and h_2 = h_1 at site b: Z = 1 - 1 - 1 + 1 = 0
        e = [[1.0, 0.0], [0.0, 0.0]]
        minus_e = [[-1.0, 0.0], [0.0, 0.0]]
        model = write_json(
            tmp_path,
            "cancel.json",
            {
                "lattice": {"kind": "sites", "sites": ["a", "b"]},
                "fiber_dim": 2,
                "index_size": 2,
                "vectors": {
                    "mode": "explicit",
                    "by_site": [
                        {"site": "a", "vectors": [e, minus_e]},
                        {"site": "b", "vectors": [e, e]},
                    ],
                },
            },
        )
        code, out, err = run_cli(["limit", "--model", model, "--observable", identity_obs], capsys)
        assert (code, out) == (1, "")
        assert err == "validation error: total boundary weight 0j cannot be normalized away\n"

    def test_empty_region_value_is_boundary_sum(self, tmp_path, capsys):
        obs = write_json(tmp_path, "empty.json", {"region": [], "factors": []})
        code, out, _ = run_cli(
            ["limit", "--model", str(MODELS / "generator_decay.json"), "--observable", obs],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.limit.schema.json")
        res = payload["results"]
        assert res["observable_region"] == []
        boundary = np.array([[complex(*z) for z in row] for row in res["boundary"]])
        assert complex(*res["value"]) == pytest.approx(boundary.sum(), rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize(
        "reference, value",
        [
            # equal norms (exactly: a Pythagorean triple) and overlap
            # 1 - 1.8e-12: the vectors differ, so the off-diagonal product
            # is exactly 0, however close its factor is to 1
            (np.array([[2.0**40 + 1, 0.0], [2.0**40 - 1, 2.0**21]]), 2.0),
            # every vector is divided by the largest norm: only the longer
            # vector's entry survives
            (np.diag([2.0, 1.0]), 1.0),
            # a positive multiple is longer, so it alone survives
            (np.array([[1.0, 0.0], [3.0, 0.0]]), 1.0),
        ],
        ids=["near-one-overlap", "norm-above-one", "positive-multiple"],
    )
    def test_constant_tail_is_decided_exactly(self, tmp_path, capsys, reference, value):
        model = write_json(
            tmp_path,
            "constant.json",
            {
                "lattice": {"kind": "zd", "nu": 1},
                "fiber_dim": 2,
                "index_size": 2,
                "vectors": {"mode": "homogeneous", "reference": encode_matrix(reference)},
            },
        )
        obs = write_json(
            tmp_path,
            "obs.json",
            {"region": [[0]], "factors": [encode_matrix(np.eye(2))]},
        )
        code, out, _ = run_cli(["limit", "--model", model, "--observable", obs], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert complex(*res["value"]) == pytest.approx(value, rel=1e-15)
        assert res["tail_bound"] == 0.0 and res["rigorous"]

    @pytest.mark.parametrize(
        "reference",
        [
            # opposite vectors: the constant off-diagonal factor is -1
            np.array([[2.0, 0.0], [-2.0, 0.0]]),
            # |G_01| = 1 but G_01 = (3 + 4i) / 5 != 1: the constant
            # off-diagonal factor spins on the unit circle and its product
            # has no limit (both norms are exactly 5)
            np.array([[3.0 + 4.0j, 0.0], [5.0, 0.0]]),
        ],
        ids=["opposite-vectors", "unit-modulus-phase"],
    )
    def test_divergent_model_exits_2(self, tmp_path, capsys, reference):
        model = write_json(
            tmp_path,
            "divergent.json",
            {
                "lattice": {"kind": "zd", "nu": 1},
                "fiber_dim": 2,
                "index_size": 2,
                "vectors": {
                    "mode": "homogeneous",
                    "reference": encode_matrix(reference),
                },
            },
        )
        obs = write_json(
            tmp_path,
            "obs.json",
            {"region": [[0]], "factors": [encode_matrix(np.eye(2))]},
        )
        code, _, err = run_cli(
            ["limit", "--model", model, "--observable", obs], capsys
        )
        assert code == 2
        assert "does not converge" in err
        # only a boundary walk asks the certificate; the model itself loads
        assert run_cli(["check-kernel", "--model", model], capsys)[0] == 0
        assert run_cli(["eval", "--model", model, "--observable", obs, "--region", "0;1"], capsys)[0] == 0

    @pytest.mark.parametrize("coordinate", ["+-1", "--1", "\u00b2"])
    def test_malformed_region_coordinate_exits_1(self, capsys, coordinate):
        code, out, err = run_cli(
            [
                "limit",
                "--model", str(MODELS / "generator_decay.json"),
                "--observable", str(MODELS / "observable_site0_z1.json"),
                "--region", f"0;{coordinate}",
                "--check-projectivity",
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"validation error: region site {coordinate!r}: expected 1 integer coordinates\n"
        )


README_LIMIT = [
    "limit",
    "--model", "models/generator_decay.json",
    "--observable", "models/observable_site0_z1.json",
    "--region", "0;1;-1",
    "--check-projectivity",
]


class TestHomogeneousLatticeReports:
    """A homogeneous lattice model walks its shells (the tuple over its
    largest norm at every site): the reports of a Z^1 model with
    h_0 = 2 e_0 and h_1 = e_1 are pinned, and its divergent variant
    (h_1 = -h_0) still fails on the walk alone."""

    GOLDEN = REPO / "tests" / "data" / "homogeneous_z1_reports.json"

    @staticmethod
    def files(tmp_path, reference):
        model = write_json(
            tmp_path,
            "z1.json",
            {
                "lattice": {"kind": "zd", "nu": 1},
                "fiber_dim": 2,
                "index_size": 2,
                "vectors": {"mode": "homogeneous", "reference": encode_matrix(reference)},
            },
        )
        obs = write_json(
            tmp_path, "p0.json", {"region": [[0]], "factors": [encode_matrix(np.diag([1.0, 0.0]))]}
        )
        return model, obs

    def test_reports_are_pinned(self, tmp_path, capsys):
        model, obs = self.files(tmp_path, np.diag([2.0, 1.0]))
        golden = json.loads(self.GOLDEN.read_text())
        for command, args in (
            ("limit", ["--observable", obs, "--region", "0;1;-3", "--check-projectivity"]),
            ("check-kernel", []),
            ("eval", ["--observable", obs, "--region", "0;1"]),
        ):
            code, out, err = run_cli([command, "--model", model, *args], capsys)
            assert (code, err) == (0, ""), command
            assert json.loads(out)["results"] == golden[command], command

    def test_divergent_variant_exits_2(self, tmp_path, capsys):
        model, obs = self.files(tmp_path, np.array([[2.0, 0.0], [-2.0, 0.0]]))
        code, out, err = run_cli(["limit", "--model", model, "--observable", obs], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "convergence error: constant tail factor (-1+0j) at entry (0, 1) has modulus 1 "
            "and is not 1: the tail product does not converge\n"
            "last partial result:\n"
            "[[ 1.+0.j -1.+0.j]\n"
            " [-1.+0.j  1.+0.j]]\n"
            "tail estimate: 0.0\n"
        )


NO_LIMIT = (
    "precondition error: reference vectors 0 and 1 have the largest norm and differ "
    "by a factor of modulus 1 other than 1; the finite-volume ratio oscillates and "
    "has no limit\n"
)


class TestHomogeneousLimits:
    """``limit`` and ``homog`` read one exact dominant pattern, so on Z^1
    with P_0 at site 0 they report one limit, that of the finite-volume
    net; where two largest-norm vectors differ by a factor c != 1 of
    modulus 1, both refuse."""

    @pytest.mark.parametrize(
        "reference, finite",
        [
            ([[2.0, 0.0], [0.0, 1.0]], 1.0),
            ([[2.0, 0.0], [-1.0, 0.0]], 1.0),
            ([[1.0, 0.0], [0.5j, 0.0]], 1.0),
            # the net at N sites is 1 / (1 + (1 - 1e-10)^(2N)): still near
            # 1/2 at N = 400, it reaches 1 only for N of order 1e11
            ([[1.0, 0.0], [0.0, 1.0 - 1e-10]], 1 / (1 + (1 - 1e-10) ** 800)),
        ],
        ids=["longer-e0", "shorter-opposite", "shorter-phase", "norm-1e-10-below"],
    )
    def test_one_limit(self, tmp_path, capsys, reference, finite):
        model, obs = TestHomogeneousLatticeReports.files(tmp_path, np.array(reference))
        code, out, err = run_cli(["limit", "--model", model, "--observable", obs], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["psi"] == [1.0, 0.0]
        code, out, err = run_cli(
            ["homog", "--model", model, "--observable", obs, "--total-sites", "400"], capsys
        )
        assert (code, err) == (0, "")
        validate_against(json.loads(out), "report.homog.schema.json")
        res = json.loads(out)["results"]
        assert res["generic_limit"] == [1.0, 0.0]
        assert abs(complex(*res["finite_normalized"]) - finite) <= 1e-12

    def test_no_limit_both_refuse(self, tmp_path, capsys):
        model, obs = TestHomogeneousLatticeReports.files(tmp_path, np.array([[2.0, 0.0], [-2.0, 0.0]]))
        assert run_cli(["limit", "--model", model, "--observable", obs], capsys)[0] == 2
        assert run_cli(["homog", "--model", model, "--observable", obs], capsys) == (3, "", NO_LIMIT)
        # the overlap analysis alone still reports
        code, out, _ = run_cli(["homog", "--model", model], capsys)
        res = json.loads(out)["results"]
        assert code == 0 and (res["argmax"], res["generic"], res["constant_overlap"]) == ([0, 1], False, False)


PHASES = (1, 1j, -1, -1j)
ENTRIES = st.builds(lambda k, m: k * PHASES[m], st.integers(0, 2), st.integers(0, 3))


@st.composite
def small_models(draw):
    """A reference tuple and a site-0 observable with entries k * i^m for
    k in {0, 1, 2}: ties, repeats and parallel pairs are common, and every
    overlap is an exact float64 integer pair."""
    p, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=d, max_size=d), min_size=p, max_size=p))
    v = np.array(rows, dtype=complex)
    v[~v.any(axis=1), 0] = 1.0  # no zero vector
    b = np.array(draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d)), dtype=complex)
    return v, b.reshape(d, d)


def run_quiet(args):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@seed(27)
@settings(max_examples=100, deadline=None, database=None)
@given(small_models())
def test_homog_and_limit_agree_on_small_integer_models(model):
    """Where a limit exists, ``homog``'s limit is ``limit``'s psi on Z^1,
    and the finite-volume net at N = 200 lies within the bound its
    decaying overlaps give; where none exists, ``limit`` exits 2 and
    ``homog`` exits 3."""
    v, b = model
    g = v @ v.conj().T  # exact: small Gaussian integers
    beta = g.diagonal().real.max()
    # the exact decision, straight from the overlaps: an entry of modulus
    # beta_max dominates, and one that is not beta_max itself has no limit
    top = np.abs(g) == beta
    dominant = top & (g == beta)
    with tempfile.TemporaryDirectory() as tmp:
        model_file = write_json(Path(tmp), "z1.json", {
            "lattice": {"kind": "zd", "nu": 1},
            "fiber_dim": v.shape[1],
            "index_size": v.shape[0],
            "vectors": {"mode": "homogeneous", "reference": encode_matrix(v)},
        })
        obs_file = write_json(Path(tmp), "b.json", {"region": [[0]], "factors": [encode_matrix(b)]})
        limit = run_quiet(["limit", "--model", model_file, "--observable", obs_file])
        homog = run_quiet(["homog", "--model", model_file, "--observable", obs_file, "--total-sites", "200"])
    event("no limit" if (top & ~dominant).any() else "a limit")
    if (top & ~dominant).any():
        assert limit[0] == 2 and "does not converge" in limit[2]
        assert homog[0] == 3 and "has no limit" in homog[2]
        return
    assert limit[0] == homog[0] == 0, (limit[2], homog[2])
    psi = complex(*json.loads(limit[1])["results"]["psi"])
    res = json.loads(homog[1])["results"]
    lim = complex(*res["generic_limit"])
    assert abs(psi - lim) <= 1e-14 * max(1.0, abs(lim))
    # psi_N = sum local g^(N-1) / sum g^N with g = G / beta_max: the
    # dominant entries are 1 and every other has modulus at most r < 1
    local = v @ b.T @ v.conj().T  # local[i, j] = <h_j, b h_i>
    n, rest = 200, ~dominant
    r = np.abs(g[rest]).max() / beta if rest.any() else 0.0
    e_num = np.abs(local[rest]).sum() / beta * r ** (n - 1)
    e_den = rest.sum() * r**n
    bound = (e_num + abs(lim) * e_den) / (dominant.sum() - e_den)
    assert abs(complex(*res["finite_normalized"]) - lim) <= bound + 1e-12 * max(1.0, abs(lim))


class TestProjectivityWalk:
    """``limit --check-projectivity`` checks its superset first and then
    walks the observable region, the superset and the empty region (the
    total weight Z's) side by side, once."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The regions of every ``limit._walk`` call, in call order."""
        from schurstates import limit

        calls = []
        walk = limit._walk

        def recorded(family, regions, *args):
            calls.append([tuple(region) for region in regions])
            return walk(family, regions, *args)

        monkeypatch.setattr(limit, "_walk", recorded)
        monkeypatch.chdir(REPO)
        return calls

    def test_one_walk_for_both_regions(self, walks, capsys):
        code, out, err = run_cli(README_LIMIT, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["projectivity"]["pass"]
        assert walks == [[((0,),), ((0,), (1,), (-1,)), ()]]

    def test_region_missing_an_observable_site_is_not_walked(self, walks, capsys):
        code, out, err = run_cli(README_LIMIT[:6] + ["1;-1"] + README_LIMIT[7:], capsys)
        assert (code, out) == (3, "")
        assert err == "precondition error: observable sites [(0,)] outside region\n"
        assert walks == [[((0,),)]]

    def test_repeated_region_site_is_not_walked(self, walks, capsys):
        # refused as the region flag's fault, after the observable region's
        # own walk, as every faulty superset is
        code, out, err = run_cli(README_LIMIT[:6] + ["0;1;1"] + README_LIMIT[7:], capsys)
        assert (code, out) == (1, "")
        assert err == "validation error: region '0;1;1' names site (1,) twice\n"
        assert walks == [[((0,),)]]

    @staticmethod
    def far_model(tmp_path):
        """A model whose declared site at 1-norm 800 of Z^2 keeps the tail
        open past the 10^6-site cap (radius about 707), and an observable
        on the origin."""
        identity = encode_matrix(np.eye(2))
        sites = [{"site": s, "D_H": [0.1, -0.1], "U": identity, "W": identity}
                 for s in ([0, 0], [800, 0])]
        model = write_json(tmp_path, "far.json", {
            "lattice": {"kind": "zd", "nu": 2}, "fiber_dim": 2, "index_size": 2,
            "vectors": {"mode": "generators", "sites": sites,
                        "tail": {"beyond_radius": 800, "D_H": "zero"}},
        })
        obs = write_json(tmp_path, "obs.json", {"region": [[0, 0]], "factors": [identity]})
        return ["limit", "--model", model, "--observable", obs, "--check-projectivity"]

    @pytest.mark.parametrize(
        "region, walked",
        [
            (["--region", "0,0;1,1"], [[((0, 0),), ((0, 0), (1, 1)), ()]]),
            # the observable region's own walk, and its fault, come before
            # a faulty or missing superset, as when that walk ran first
            (["--region", "1,1"], [[((0, 0),)]]),
            ([], [[((0, 0),)]]),
        ],
    )
    def test_walk_past_the_site_cap_exits_2(self, walks, tmp_path, capsys, region, walked):
        code, out, err = run_cli(self.far_model(tmp_path) + region, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(
            "convergence error: boundary product did not settle within 1000000 sites\n"
        )
        assert walks == walked

    def test_readme_report_matches_golden(self, walks, tmp_path):
        # captured from the README command when each region had its own
        # walk, and again for the Z and psi fields alone; run from the
        # repository root, so that the report's model field is the README's
        # relative path, not this checkout's
        out = tmp_path / "limit.json"
        assert main(README_LIMIT + ["--output", str(out)]) == 0
        golden = REPO / "tests" / "data" / "limit_generator_decay.json"
        assert out.read_bytes() == golden.read_bytes()


README_REPORTS = {
    "check_kernel_orthonormal.json": ["check-kernel", "--model", "models/orthonormal.json"],
    "eval_orthonormal_wxy.json": [
        "eval", "--model", "models/orthonormal.json",
        "--observable", "models/observable_identity.json", "--region", "w;x;y",
    ],
    "homog_orthonormal_6.json": [
        "homog", "--model", "models/orthonormal.json",
        "--observable", "models/observable_identity.json", "--total-sites", "6",
    ],
    "selftest_seed0.json": ["selftest", "--seed", "0"],
}


@pytest.mark.parametrize("golden", sorted(README_REPORTS))
def test_readme_report_matches_golden(golden, tmp_path, monkeypatch):
    # the other README commands' reports, byte for byte; run from the
    # repository root, so that the model field is the README's relative path
    monkeypatch.chdir(REPO)
    out = tmp_path / golden
    assert main(README_REPORTS[golden] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (REPO / "tests" / "data" / golden).read_bytes()


class TestQuietNearZone:
    def test_limit_counts_shells_past_the_near_zone(self, tmp_path, capsys):
        # a near zone of amplitude 0 has all-ones shells out to radius 10;
        # the certificate must still count the perturbed shells past it
        model = json.loads((MODELS / "perturbed_z2.json").read_text())
        model["vectors"].update(near_amplitude=0.0, near_radius=10)
        code, out, _ = run_cli(
            [
                "limit",
                "--model", write_json(tmp_path, "quiet.json", model),
                "--observable", str(MODELS / "observable_near.json"),
            ],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["observable_region"] == ["(0, 0)"]
        pairs = np.array(results["boundary"])
        boundary = pairs[..., 0] + 1j * pairs[..., 1]
        want = perturbed_ball_product(2, 1, 200, near_amplitude=0.0, near_radius=10)
        assert abs(want[0, 1] - 1.0) > 1e-5
        assert results["rigorous"]
        assert np.max(np.abs(boundary - want)) <= results["tail_bound"] + 1e-13


class TestTolerances:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    @pytest.mark.parametrize("flag", ["--tol", "--tail-tol"])
    @pytest.mark.parametrize("command", ["limit", "mixing-scan", "selftest"])
    def test_malformed_value_exits_1_before_loading(self, capsys, command, flag, value):
        # the model path does not exist: the flag is refused before any load
        args = [command, f"{flag}={value}"]
        if command != "selftest":
            args += ["--model", str(MODELS / "missing.json"), "--observable", "x.json"]
        if command == "mixing-scan":
            args += ["--observable-far", "x.json"]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"validation error: {flag} must be a finite number >= 0")

    def test_zero_tail_tol_is_valid(self, capsys):
        code, out, _ = run_cli(
            [
                "limit",
                "--model", str(MODELS / "generator_decay.json"),
                "--observable", str(MODELS / "observable_site0_z1.json"),
                "--tail-tol", "0",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["tail_bound"] == 0.0


class TestSeed:
    @pytest.mark.parametrize("seed", ["-1", "-3"])
    @pytest.mark.parametrize(
        "command", ["check-kernel", "eval", "limit", "homog", "mixing-scan", "selftest"]
    )
    def test_negative_seed_exits_1_before_loading(self, capsys, command, seed):
        # the model path does not exist: the seed is refused before any load
        args = [command, "--seed", seed]
        if command != "selftest":
            args += ["--model", str(MODELS / "missing.json")]
        if command in ("eval", "limit", "mixing-scan"):
            args += ["--observable", "x.json"]
        if command == "mixing-scan":
            args += ["--observable-far", "x.json"]
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (1, "", "validation error: --seed must be an integer >= 0\n")


class TestUsageErrors:
    """A command line argparse cannot read is a validation failure, exit
    1, with argparse's usage text and its error line on stderr."""

    @pytest.mark.parametrize(
        "args, error",
        [
            (["selftest", "--tol", "abc"], "schurstates selftest: error: argument --tol: invalid float value: 'abc'"),
            (["selftest", "--seed", "x"], "schurstates selftest: error: argument --seed: invalid int value: 'x'"),
            (
                ["limit", "--model", "m.json"],
                "schurstates limit: error: the following arguments are required: --observable",
            ),
        ],
        ids=["tol", "seed", "missing-observable"],
    )
    def test_exits_1_with_usage(self, capsys, args, error):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: schurstates {args[0]} [-h]")
        assert err.endswith(f"\n{error}\n")

    def test_help_exits_0(self, capsys):
        code, out, err = run_cli(["selftest", "--help"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: schurstates selftest [-h]")

    def test_process_exit_codes(self):
        # the console entry point exits with what main returns
        run = functools.partial(
            subprocess.run, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        )
        usage = run([sys.executable, "-m", "schurstates.cli", "selftest", "--tol", "abc"])
        assert (usage.returncode, usage.stdout) == (1, "")
        assert usage.stderr.endswith("error: argument --tol: invalid float value: 'abc'\n")
        assert run([sys.executable, "-m", "schurstates.cli", "--help"]).returncode == 0


def readme_command_lines():
    """The argument lists of the ``schurstates ...`` lines in README.md."""
    text = (REPO / "README.md").read_text().replace("\\\n", " ")
    return [
        shlex.split(line)[1:]
        for line in text.splitlines()
        if re.match(r"schurstates [a-z]", line)
    ]


class TestParser:
    def test_each_call_returns_its_own_parser(self):
        parsers = [build_parser() for _ in range(3)]
        assert len({id(p) for p in parsers + [_parser()]}) == 4

    def test_attributes_set_on_a_parser_stay_on_it(self):
        # a tracer wraps parse_args on the parser each call returns; were
        # the parsers one object, the last would nest 1100 wrappers
        def wrapped(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)

            return wrapper

        for _ in range(1100):
            parser = build_parser()
            parser.parse_args = wrapped(parser.parse_args)
        assert parser.parse_args(["selftest"]).command == "selftest"
        assert "parse_args" not in vars(build_parser())
        assert "parse_args" not in vars(_parser())

    def test_readme_lines_parse_as_with_a_fresh_parser(self):
        lines = readme_command_lines()
        assert len(lines) == 6
        for argv in lines:
            assert build_parser().parse_args(argv) == _parser.__wrapped__().parse_args(argv)


def strict_json(text: str):
    """A report read as JSON proper: ``NaN`` and ``Infinity``, which
    Python's reader (and so a schema check) takes as numbers, are refused."""

    def refuse(name):
        raise AssertionError(f"{name} is not a JSON number")

    return json.loads(text, parse_constant=refuse)


def finite_cells(text: str) -> None:
    """Every cell of a CSV report that reads as a number is finite."""
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), line


class TestReportsHoldOnlyNumbers:
    """No report carries NaN or Infinity: every README command's report
    is read strictly, in both formats, and a report that would hold one
    is refused (exit 1) naming its key, with nothing written."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: argv[0])
    def test_readme_command(self, argv, fmt, monkeypatch, capsys):
        monkeypatch.chdir(REPO)
        if "--format" in argv:
            argv = argv[: argv.index("--format")] + argv[argv.index("--format") + 2 :]
        code, out, err = run_cli(argv + ["--format", fmt], capsys)
        assert (code, err) == (0, "")
        if fmt == "json":
            strict_json(out)
        else:
            finite_cells(out)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_report_refused(self, fmt, tmp_path, monkeypatch, capsys):
        # diag(1e300, 1e300) at w and x: each site kernel is finite, their
        # product and the dense amplitudes overflow
        monkeypatch.chdir(REPO)
        obs = write_json(
            tmp_path, "huge.json",
            {"region": ["w", "x"], "factors": [encode_matrix(np.diag([1e300, 1e300]))] * 2},
        )
        with pytest.warns(RuntimeWarning):
            code, out, err = run_cli([
                "eval", "--model", "models/orthonormal.json", "--observable", obs,
                "--region", "w;x;y", "--format", fmt,
            ], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "validation error: report key 'results.dense[0]' holds the non-finite number nan\n"
        )

    @pytest.mark.parametrize("emit", [emit_json, emit_csv_flat])
    def test_emit_refuses_by_key(self, emit):
        for bad in (math.nan, math.inf, -math.inf):
            out = io.StringIO()
            with pytest.raises(ValidationError, match=r"^report key 'results\.z\[1\]' holds the non-finite number"):
                emit({"results": {"a": 1.0, "z": [0.0, bad]}}, out)
            assert out.getvalue() == ""

    def test_scan_keeps_its_missing_values(self, capsys):
        # a generator model does not mix: alpha is missing at every row,
        # and one row leaves no decrease fraction
        argv = [
            "mixing-scan", "--model", str(MODELS / "generator_decay.json"),
            "--observable", str(MODELS / "observable_site0_z1.json"),
            "--observable-far", str(MODELS / "observable_site0_z1.json"), "--tmax", "5",
        ]
        code, out, _ = run_cli(argv, capsys)
        report = strict_json(out)["results"]
        assert code == 0
        assert report["rows"][0]["alpha_mixing_gap"] is None
        assert report["decrease_fraction"] == {"translate": None}
        code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0 and out.splitlines()[1].endswith(",nan")


class TestFaultyVectorsRefusedAtLoad:
    """A vector whose squared norm overflows, or a zero vector, is refused
    when the model is loaded (exit 1), named by its site, or its index in
    the reference tuple, and its index, before any command reads it."""

    @staticmethod
    def orthonormal(tmp_path, entry):
        model = json.loads((MODELS / "orthonormal.json").read_text())
        model["vectors"]["reference"][1][1] = [entry, 0.0]
        return write_json(tmp_path, "m.json", model)

    @pytest.mark.parametrize("command", ["eval", "check-kernel", "homog"])
    @pytest.mark.parametrize(
        "entry, fault", [(1e200, "has a squared norm past the float64 range"), (0.0, "is zero")]
    )
    def test_site_list(self, command, entry, fault, tmp_path, capsys):
        args = [command, "--model", self.orthonormal(tmp_path, entry)]
        if command != "check-kernel":
            args += ["--observable", str(MODELS / "observable_identity.json")]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"validation error: model validation failed:\n  model.vectors: site 'w': vector 1 {fault}\n"
        )

    def test_lattice_limit(self, tmp_path, capsys):
        model = write_json(tmp_path, "z1.json", {
            "lattice": {"kind": "zd", "nu": 1},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {"mode": "homogeneous", "reference": encode_matrix(np.diag([1e200, 1.0]))},
        })
        obs = write_json(tmp_path, "p0.json", {"region": [[0]], "factors": [encode_matrix(np.eye(2))]})
        code, out, err = run_cli(["limit", "--model", model, "--observable", obs], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "validation error: model validation failed:\n  model.vectors: reference vectors: "
            "vector 0 has a squared norm past the float64 range\n"
        )

    @pytest.mark.parametrize(
        "vectors, fault",
        [
            ({"base": [[1e200, 0.0], [0.0, 0.0]]}, "has a squared norm past the float64 range"),
            ({"direction": [[0.0, 1e200], [1.0, 0.0]]}, "has a squared norm past the float64 range"),
            # 1 + 0.5 * -2 is exactly 0
            ({"direction": [[-2.0, 0.0], [0.0, 0.0]], "near_amplitude": 0.5}, "is zero"),
        ],
        ids=["base", "direction", "zero"],
    )
    def test_perturbed(self, vectors, fault, tmp_path, capsys):
        # the perturbed family divides each vector by its norm, except one
        # whose norm is zero or overflows, which the verdict then names
        model = json.loads((MODELS / "perturbed_z2.json").read_text())
        model["lattice"]["nu"] = 1
        vectors = dict(vectors)
        if "direction" in vectors:
            model["vectors"]["directions"][0] = vectors.pop("direction")
        model["vectors"].update(vectors)
        args = [
            "limit", "--model", write_json(tmp_path, "z1.json", model),
            "--observable", str(MODELS / "observable_identity.json"),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(args, capsys)
        assert caught == []
        assert (code, out) == (1, "")
        assert err == f"validation error: model validation failed:\n  model.vectors: radius 0: vector 0 {fault}\n"


class TestPerturbedZ3AtSiteCap:
    """A nu=3 perturbed model needs about 2.6M sites to certify its tail,
    more than the site cap; the shell walk sees the cap coming from the
    shell sizes and stops at once.  The model loads without a walk, so
    the error comes from the command's own walk."""

    @pytest.fixture
    def z3_files(self, tmp_path):
        model = json.loads((MODELS / "perturbed_z2.json").read_text())
        model["lattice"]["nu"] = 3
        paths = {"model": write_json(tmp_path, "z3.json", model)}
        for name in ("near", "far"):
            obs = json.loads((MODELS / f"observable_{name}.json").read_text())
            obs["region"] = [site + [0] for site in obs["region"]]
            paths[name] = write_json(tmp_path, f"{name}.json", obs)
        return paths

    @pytest.mark.parametrize("command", ["mixing-scan", "limit"])
    def test_exits_2_fast(self, z3_files, capsys, command):
        args = [command, "--model", z3_files["model"], "--observable", z3_files["near"]]
        if command == "mixing-scan":
            args += ["--observable-far", z3_files["far"], "--tmax", "40"]
        # no normalization declared, so a load walks nothing
        assert "normalized" not in json.loads(Path(z3_files["model"]).read_text())
        load_model(z3_files["model"])
        start = time.perf_counter()
        code, out, err = run_cli(args, capsys)
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, "")
        assert err.startswith(
            "convergence error: boundary product did not settle within 1000000 sites\n"
        )
        assert elapsed < 1.0


class TestSpheresPastTheFloatRange:
    """On Z^400 and Z^(10^6) a sphere's site count passes the float range
    at radius about 400 and 60: it reads as inf, the perturbed mass table
    stops there with no certificate past it, and a walk stops at the site
    cap as on Z^3, with no floating-point warning, which ``-W error``
    would turn into a traceback.  On Z^(8 * 10^307) the sphere of radius
    1 holds 1.6e308 sites, and its mass in a strong near zone is past the
    float range too: it bounds as inf."""

    CASES = {
        "400": (400, {}, (
            "[[1.+2.20116850e-12j 0.+0.00000000e+00j]\n"
            " [0.+0.00000000e+00j 1.-4.38403102e-12j]]\n"
            "tail estimate: 1.0142320548072504e+304\n"
        )),
        "10**6": (10**6, {}, (
            "[[1.        +6.86147644e-18j 0.87509402+4.33706896e-01j]\n"
            " [0.87509402-4.33706896e-01j 1.        -1.36658895e-17j]]\n"
            "tail estimate: 1.0142320547350047e+304\n"
        )),
        "8*10**307": (8 * 10**307, {"near_amplitude": 10.0, "near_radius": 1}, (
            "[[ 1.        -2.77679372e-18j -0.36465975+1.71604589e-01j]\n"
            " [-0.36465975-1.71604589e-01j  1.        +1.18227552e-17j]]\n"
            "tail estimate: 1.0142320547350045e+304\n"
        )),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_limit_exits_2_at_the_site_cap(self, tmp_path, case):
        nu, vectors, partial = self.CASES[case]
        model = json.loads((MODELS / "perturbed_z2.json").read_text())
        model["lattice"]["nu"] = nu
        model["vectors"].update(vectors)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "schurstates.cli", "limit",
             "--model", write_json(tmp_path, "model.json", model),
             "--observable", write_json(tmp_path, "empty.json", {"region": [], "factors": []})],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "convergence error: boundary product did not settle within 1000000 sites\n"
            "last partial result:\n" + partial
        )


class TestHomog:
    def test_orthonormal_reports_identity_overlaps(self, orthonormal_model, capsys):
        code, out, _ = run_cli(["homog", "--model", orthonormal_model], capsys)
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.homog.schema.json")
        res = payload["results"]
        assert res["beta_max"] == 1.0
        assert res["argmax"] == [0, 1]
        assert res["generic"] is True

    @pytest.mark.parametrize(
        "reference, beta, volume",
        # 1/sqrt(2) rounds down, and its square to 0.4999999999999999
        [(2 * np.eye(2), 4.0, "600"), (2 * np.eye(2), 4.0, "2000"), (np.eye(2) / math.sqrt(2), 0.4999999999999999, "100000")],
        ids=["2I-600", "2I-2000", "halves-100000"],
    )
    def test_volume_past_the_float_range(self, tmp_path, capsys, reference, beta, volume):
        # M^N overflows (2I) or underflows to 0 (e_0/sqrt2, e_1/sqrt2), but
        # (M / beta_max)^N = I: the net at N is its limit, 1/2 on P_0
        model, obs = TestHomogeneousLatticeReports.files(tmp_path, reference)
        code, out, err = run_cli(
            ["homog", "--model", model, "--observable", obs, "--total-sites", volume], capsys
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "command": "homog",
            "model": model,
            "seed": 0,
            "results": {
                "beta": [[[beta, 0.0], [0.0, 0.0]], [[0.0, 0.0], [beta, 0.0]]],
                "beta_max": beta,
                "argmax": [0, 1],
                "generic": True,
                "constant_overlap": False,
                "finite_normalized": [0.5, 0.0],
                "generic_limit": [0.5, 0.0],
            },
        }

    @pytest.mark.parametrize("volume", ["5", "101", "100001"])
    def test_cancelling_weight_exits_3(self, tmp_path, capsys, volume):
        # (h, -h): the weight 2 + 2 (-1)^N is exactly 0 at every odd N
        model, obs = TestHomogeneousLatticeReports.files(tmp_path, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        code, out, err = run_cli(
            ["homog", "--model", model, "--observable", obs, "--total-sites", volume], capsys
        )
        assert (code, out) == (3, "")
        assert err == f"precondition error: normalization weight 0j is degenerate for volume {volume}\n"

    @pytest.mark.parametrize("volume", ["0", "-3", "1"])
    def test_volume_below_the_region_exits_3(self, volume, capsys):
        # 0 is a volume like any other, not a missing --total-sites
        model, obs = (str(MODELS / name) for name in ("orthonormal.json", "observable_identity.json"))
        code, out, err = run_cli(
            ["homog", "--model", model, "--observable", obs, "--total-sites", volume], capsys
        )
        assert (code, out) == (3, "")
        assert err == (
            f"precondition error: total volume {volume} smaller than the observable region (2 sites)\n"
        )

    def test_non_homogeneous_model_exits_3(self, capsys):
        code, _, err = run_cli(
            ["homog", "--model", str(MODELS / "generator_decay.json")], capsys
        )
        assert code == 3
        assert "homogeneous" in err


class TestSelftest:
    def test_passes_and_validates(self, capsys):
        code, out, _ = run_cli(["selftest", "--seed", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.selftest.schema.json")
        assert payload["results"]["pass"]

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        outputs = []
        for threads in ("1", "4", "1"):
            target = tmp_path / f"report_{len(outputs)}.json"
            code = main(
                ["selftest", "--seed", "7", "--threads", threads, "--output", str(target)]
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["selftest", "--seed", "3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("results.pass,") for line in lines)


class TestMixingScanCli:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--format", "csv",
                "--tmax", "10",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,strategy,mixing_gap,alpha_mixing_gap"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["5", "10"]
        gaps = [float(r[2]) for r in rows]
        assert all(g > 0 for g in gaps)
        assert gaps[1] < gaps[0]

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--tmax", "5",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.mixing-scan.schema.json")
        assert payload["results"]["alpha_independent"] is True

    def test_tmax_below_every_clearance_exits_1(self, capsys):
        code, out, err = run_cli(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--tmax", "4",
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "validation error: --tmax 4 leaves no clearances to scan\n"

    def test_non_cauchy_alpha_reports_no_alpha_gap(self, tmp_path, capsys):
        # epsilon0 = 1e-3: the transported products are not Cauchy, so
        # alpha has no limit and every alpha gap is missing
        data = json.loads((MODELS / "perturbed_z2.json").read_text())
        data["vectors"]["epsilon0"] = 1e-3
        model = write_json(tmp_path, "loud.json", data)
        code, out, _ = run_cli(
            [
                "mixing-scan",
                "--model", model,
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--tmax", "40",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate_against(payload, "report.mixing-scan.schema.json")
        res = payload["results"]
        assert res["alpha_independent"] is False
        assert [row["t"] for row in res["rows"]] == [5, 10, 20, 40]
        assert [row["alpha_mixing_gap"] for row in res["rows"]] == [None] * 4
        assert all(row["mixing_gap"] > 0 for row in res["rows"])

    @pytest.mark.parametrize(
        "strategies, named", [("translate,translate", "translate"), ("random,translate,random", "random")]
    )
    def test_repeated_strategy_refused(self, capsys, strategies, named):
        code, out, err = run_cli(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--format", "csv", "--tmax", "10", "--strategies", strategies,
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert f"mixing scan names the strategy '{named}' twice" in err

    def test_later_unknown_strategy_fails_before_any_row(self, capsys):
        code, out, err = run_cli(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--format", "csv", "--tmax", "10", "--strategies", "translate,sideways",
            ],
            capsys,
        )
        assert (code, out) == (1, "")
        assert "unknown embedding strategy 'sideways'" in err

    def test_site_list_model_refused_before_the_observables(self, capsys, tmp_path):
        # the scan asks the mixing module's one lattice rule, before it
        # reads an observable file (here one that does not exist)
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(
            [
                "mixing-scan",
                "--model", str(MODELS / "orthonormal.json"),
                "--observable", missing, "--observable-far", missing,
            ],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == "precondition error: tail limits require a lattice model\n"

    def test_readme_scan_matches_golden_csv(self, tmp_path):
        # captured from the README command with the shell-by-shell walk,
        # after tests/test_mp_oracle.py put every gap within its certified
        # error of a 50-digit recomputation; any change in the order of
        # the floating-point products shows up here
        out = tmp_path / "scan.csv"
        code = main(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--format", "csv", "--tmax", "40", "--tail-tol", "1e-14",
                "--output", str(out),
            ]
        )
        assert code == 0
        golden = REPO / "tests" / "data" / "mixing_scan_perturbed_z2.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_readme_scan_walks_once(self, tmp_path, monkeypatch):
        # the model loads without a walk, and the scan walks every row's
        # regions and the empty region (Z's) side by side, once
        from schurstates import limit

        calls = []
        walk = limit._walk

        def recorded(family, regions, *args):
            calls.append([tuple(region) for region in regions])
            return walk(family, regions, *args)

        monkeypatch.setattr(limit, "_walk", recorded)
        code = main(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--format", "csv", "--tmax", "40",
                "--output", str(tmp_path / "scan.csv"),
            ]
        )
        assert code == 0
        ((first, *rows),) = calls
        assert first == () and len(rows) == 9  # 4 joint and 4 far regions, and psi(a)'s


class TestDeterminism:
    def test_eval_byte_identical(self, tmp_path, orthonormal_model, identity_obs):
        blobs = []
        for k in range(2):
            target = tmp_path / f"out{k}.json"
            code = main(
                [
                    "eval",
                    "--model", orthonormal_model,
                    "--observable", identity_obs,
                    "--output", str(target),
                ]
            )
            assert code == 0
            blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_uses_lf_and_17_digits(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        code = main(
            [
                "mixing-scan",
                "--model", str(MODELS / "perturbed_z2.json"),
                "--observable", str(MODELS / "observable_near.json"),
                "--observable-far", str(MODELS / "observable_far.json"),
                "--format", "csv",
                "--tmax", "5",
                "--output", str(target),
            ]
        )
        assert code == 0
        raw = target.read_bytes()
        assert b"\r" not in raw
        value = raw.decode().strip().split("\n")[1].split(",")[2]
        assert float(value) > 0
        mantissa = value.split("e")[0].replace(".", "").replace("-", "").lstrip("0")
        assert len(mantissa) >= 15  # 17 significant digits requested
