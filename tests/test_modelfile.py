import copy
import json
from pathlib import Path

import numpy as np
import pytest

from schurstates import limit, modelfile
from schurstates.errors import ValidationError
from schurstates.lattice import Sites, Zd
from schurstates.modelfile import (
    encode_matrix,
    load_model,
    load_observable,
    parse_observable,
    parse_region,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def minimal_homogeneous(d=2):
    return {
        "lattice": {"kind": "sites", "sites": ["a", "b"]},
        "fiber_dim": d,
        "index_size": d,
        "vectors": {"mode": "homogeneous", "reference": encode_matrix(np.eye(d))},
    }


class TestLoadModel:
    def test_minimal_homogeneous(self, tmp_path):
        spec = load_model(write(tmp_path, "m.json", minimal_homogeneous()))
        fam = spec.family()
        np.testing.assert_allclose(fam.gram("a"), np.eye(2))

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"lattice": }')
        with pytest.raises(ValidationError, match="line 1"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_model(tmp_path / "absent.json")

    def test_zero_vector_named_with_coordinates(self, tmp_path):
        data = {
            "lattice": {"kind": "sites", "sites": ["a"]},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {
                "mode": "explicit",
                "by_site": [
                    {
                        "site": "a",
                        "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    }
                ],
            },
        }
        with pytest.raises(ValidationError, match=r"model\.vectors: site 'a': vector 1 is zero$"):
            load_model(write(tmp_path, "m.json", data))

    def test_collects_multiple_violations(self, tmp_path):
        data = {
            "lattice": {"kind": "sites", "sites": []},
            "fiber_dim": 0,
            "index_size": 2,
            "vectors": {"mode": "nonsense"},
        }
        with pytest.raises(ValidationError) as exc:
            load_model(write(tmp_path, "m.json", data))
        assert str(exc.value) == (
            "model validation failed:\n"
            "  model.lattice.sites: length must be >= 1, got 0\n"
            "  model.fiber_dim: must be >= 1, got 0\n"
            "  model.vectors.mode: expected one of 'explicit', 'homogeneous', 'generators', "
            "'perturbed', got 'nonsense'"
        )

    def test_generator_roundtrip(self, tmp_path):
        from schurstates.modelfile import encode_matrix
        from schurstates.sampling import decaying_generator_spec

        spec0 = decaying_generator_spec(seed=4, radius=2, d=2, nu=1)
        data = {
            "lattice": {"kind": "zd", "nu": 1},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {
                "mode": "generators",
                "sites": [
                    {
                        "site": list(site),
                        "D_H": [float(v) for v in diag],
                        "U": encode_matrix(u),
                        "W": encode_matrix(w),
                    }
                    for site, diag, u, w in zip(spec0.keys, spec0.diag, spec0.u, spec0.w)
                ],
                "tail": {"beyond_radius": 2, "D_H": "zero"},
            },
        }
        spec = load_model(write(tmp_path, "g.json", data))
        assert spec.summability_certificate == pytest.approx(
            spec0.summability_certificate()
        )
        fam = spec.family()
        from schurstates.limit import build_from_generators

        ref = build_from_generators(spec0)
        np.testing.assert_allclose(fam.gram((1,)), ref.gram((1,)), atol=1e-12)

    def test_generator_requires_square(self, tmp_path):
        data = {
            "lattice": {"kind": "zd", "nu": 1},
            "fiber_dim": 2,
            "index_size": 3,
            "vectors": {
                "mode": "generators",
                "sites": [],
                "tail": {"beyond_radius": 0, "D_H": "zero"},
            },
        }
        with pytest.raises(ValidationError, match="fiber_dim == index_size"):
            load_model(write(tmp_path, "g.json", data))

    def test_normalization_flag_verified(self, tmp_path):
        data = minimal_homogeneous()
        data["normalized"] = True  # orthonormal pair has total weight 2
        with pytest.raises(ValidationError, match="total boundary weight"):
            load_model(write(tmp_path, "m.json", data))

    def test_normalized_perturbed_accepted(self, tmp_path):
        # every value of a perturbed model is divided by its walked Z, so
        # the model declares nothing and its load walks nothing
        data = {
            "lattice": {"kind": "zd", "nu": 1},
            "fiber_dim": 2,
            "index_size": 2,
            "vectors": {
                "mode": "perturbed",
                "base": [[1.0, 0.0], [0.0, 0.0]],
                "directions": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -0.6], [0.25, 0.0]]],
                "epsilon0": 1e-4,
                "decay": 0.5,
                "near_amplitude": 0.2,
                "near_radius": 1,
            },
        }
        spec = load_model(write(tmp_path, "p.json", data))
        assert spec.geometry == Zd(1)

    def test_perturbed_field_errors_are_collected(self, tmp_path):
        data = json.loads((MODELS / "perturbed_z2.json").read_text())
        data["vectors"].update(near_amplitude="abc", near_radius="x", decay=1.5)
        with pytest.raises(ValidationError) as exc:
            load_model(write(tmp_path, "p.json", data))
        for field in ("near_amplitude", "near_radius", "decay"):
            assert f"model.vectors.{field}:" in str(exc.value)

    @pytest.mark.parametrize("field", ["epsilon0", "decay", "near_amplitude"])
    def test_perturbed_number_past_float_is_a_field_error(self, tmp_path, field):
        data = json.loads((MODELS / "perturbed_z2.json").read_text())
        data["vectors"][field] = 10**400
        with pytest.raises(ValidationError, match=f"model.vectors.{field}: "):
            load_model(write(tmp_path, "p.json", data))

    def test_family_built_once_per_load(self, tmp_path, monkeypatch):
        walked = []
        walk = modelfile.boundary_matrix

        def recording(family, *args, **kwargs):
            walked.append(family)
            return walk(family, *args, **kwargs)

        monkeypatch.setattr(modelfile, "boundary_matrix", recording)
        # d_I = 1 with unit vectors: the total boundary weight is 1
        s = 1.0 / np.sqrt(2.0)
        data = {
            "lattice": {"kind": "sites", "sites": ["a", "b"]},
            "fiber_dim": 2,
            "index_size": 1,
            "vectors": {
                "mode": "explicit",
                "by_site": [
                    {"site": "a", "vectors": encode_matrix([[1.0, 0.0]])},
                    {"site": "b", "vectors": encode_matrix([[s, 1j * s]])},
                ],
            },
            "normalized": True,
        }
        spec = load_model(write(tmp_path, "n.json", data))
        assert spec.family() is spec.family()
        assert len(walked) == 1
        assert walked[0] is spec.family()

    def test_self_normalized_family_is_not_walked_again(self, tmp_path, monkeypatch):
        # the README model has every reported state value divided by its
        # walked weight Z and declares no normalization: the load builds
        # its family once and walks nothing
        walks, builds = [], []
        walk, build = limit._walk, modelfile.decaying_perturbation_family
        monkeypatch.setattr(limit, "_walk", lambda *args: walks.append(args) or walk(*args))
        monkeypatch.setattr(
            modelfile, "decaying_perturbation_family", lambda **kw: builds.append(build(**kw)) or builds[-1]
        )
        spec = load_model(MODELS / "perturbed_z2.json")
        assert walks == []
        assert builds == [spec.family()] and spec.family().table is None

    def test_raw_perturbed_family_declared_normalized_is_walked(self, tmp_path):
        data = json.loads((MODELS / "perturbed_z2.json").read_text())
        data["normalized"] = True
        with pytest.raises(ValidationError) as exc:
            load_model(write(tmp_path, "raw.json", data))
        assert str(exc.value) == (
            "model declares normalization but the total boundary weight is "
            "(2.5389997293335007+5.551115123125783e-17j) (|deviation| = 1.539e+00 > 1e-08)"
        )


    def test_explicit_family_walks_declared_order(self, tmp_path):
        blocks = {
            "a": [[1.0, 0.0]],
            "b": [[0.6, 0.8]],
            "c": [[0.0, 1.0]],
        }
        data = {
            "lattice": {"kind": "sites", "sites": ["a", "b", "c"]},
            "fiber_dim": 2,
            "index_size": 1,
            "vectors": {
                "mode": "explicit",
                "by_site": [
                    {"site": s, "vectors": encode_matrix(blocks[s])} for s in ("c", "a", "b")
                ],
            },
        }
        spec = load_model(write(tmp_path, "e.json", data))
        assert spec.family().geometry == spec.geometry
        assert spec.family().geometry.sites == ("a", "b", "c")
        # one table, in the declared order
        assert list(spec.family().table.rows) == ["a", "b", "c"]
        for s, block in blocks.items():
            np.testing.assert_array_equal(spec.family().vectors(s), block)

    def test_non_finite_explicit_vector_refused_at_load(self, tmp_path):
        data = {
            "lattice": {"kind": "sites", "sites": ["a", "b"]},
            "fiber_dim": 2,
            "index_size": 1,
            "vectors": {
                "mode": "explicit",
                "by_site": [
                    {"site": "a", "vectors": encode_matrix([[1.0, 0.0]])},
                    {"site": "b", "vectors": [[[float("nan"), 0.0], [1.0, 0.0]]]},
                ],
            },
        }
        # refused by the schema check, as no number, without a stand-in zero vector
        with pytest.raises(ValidationError) as exc:
            load_model(write(tmp_path, "e.json", data))
        assert str(exc.value) == (
            "model validation failed:\n"
            "  model.vectors.by_site[1].vectors[0][0][0]: expected number, got nan"
        )


    def test_undecodable_explicit_site_reported_once(self, tmp_path):
        data = {
            "lattice": {"kind": "sites", "sites": ["a"]},
            "fiber_dim": 2,
            "index_size": 1,
            "vectors": {
                "mode": "explicit",
                "by_site": [
                    {"site": "a", "vectors": encode_matrix([[1.0, 0.0]])},
                    {"site": [1], "vectors": encode_matrix([[1.0, 0.0]])},
                ],
            },
        }
        with pytest.raises(ValidationError) as exc:
            load_model(write(tmp_path, "e.json", data))
        assert str(exc.value) == (
            "model validation failed:\n"
            "  model.vectors.by_site[1].site: expected a string or integer name, got [1]"
        )


def model_file(name):
    return json.loads((MODELS / name).read_text())


def explicit_sites(sites, by_site):
    return {
        "lattice": {"kind": "sites", "sites": sites},
        "fiber_dim": 2,
        "index_size": 2,
        "vectors": {"mode": "explicit", "by_site": by_site},
    }


EYE = encode_matrix(np.eye(2))

#: Model files refused for their structure, each with its whole message.
STRUCTURE_FAULTS = {
    "explicit_on_zd": (
        {**explicit_sites([], []), "lattice": {"kind": "zd", "nu": 1}},
        "model: explicit vectors require an enumerated site list",
    ),
    "generators_on_sites": (
        {**model_file("generator_decay.json"), "lattice": {"kind": "sites", "sites": ["a"]}},
        "model: generator vectors require a zd lattice",
    ),
    "perturbed_on_sites": (
        {**model_file("perturbed_z2.json"), "lattice": {"kind": "sites", "sites": ["a"]}},
        "model: perturbed vectors require a zd lattice",
    ),
    "duplicate_sites": (
        {**minimal_homogeneous(), "lattice": {"kind": "sites", "sites": ["a", "a"]}},
        "model.lattice.sites: duplicate site names",
    ),
    "by_site_not_object": (
        explicit_sites(["a"], [["a", EYE]]),
        "model.vectors.by_site[0]: expected object, got array",
    ),
    "explicit_block_shape": (
        explicit_sites(["a"], [{"site": "a", "vectors": EYE[:1]}]),
        "model.vectors.by_site[0].vectors: shape (1, 2) != (2, 2) at site 'a'",
    ),
    "explicit_block_not_array": (
        explicit_sites(["a"], [{"site": "a", "vectors": "x"}]),
        "model.vectors.by_site[0].vectors: expected array, got string",
    ),
    "reference_shape": (
        {**minimal_homogeneous(), "vectors": {"mode": "homogeneous", "reference": EYE[:1]}},
        "model.vectors.reference: shape (1, 2) != (2, 2)",
    ),
    # a vector field that is not an array is reported once, by the schema
    # check: it is neither decoded nor measured
    "perturbed_base_not_array": (
        {
            **model_file("perturbed_z2.json"),
            "vectors": {**model_file("perturbed_z2.json")["vectors"], "base": {"re": 1.0}},
        },
        "model.vectors.base: expected array, got object",
    ),
    "perturbed_directions_not_array": (
        {
            **model_file("perturbed_z2.json"),
            "vectors": {**model_file("perturbed_z2.json")["vectors"], "directions": "x"},
        },
        "model.vectors.directions: expected array, got string",
    ),
    "perturbed_base_length": (
        {
            **model_file("perturbed_z2.json"),
            "vectors": {**model_file("perturbed_z2.json")["vectors"], "base": [[1.0, 0.0]]},
        },
        "model.vectors.base: shape (1,) != (2,)",
    ),
    "perturbed_base_missing": (
        {
            **model_file("perturbed_z2.json"),
            "vectors": {k: v for k, v in model_file("perturbed_z2.json")["vectors"].items() if k != "base"},
        },
        "model.vectors: missing required field 'base'",
    ),
    "reference_not_array": (
        {**minimal_homogeneous(), "vectors": {"mode": "homogeneous", "reference": 1.0}},
        "model.vectors.reference: expected array, got number",
    ),
    # a field that fails its schema inside is not measured either
    "reference_not_decoded": (
        {**minimal_homogeneous(), "vectors": {"mode": "homogeneous", "reference": [1.0]}},
        "model.vectors.reference[0]: expected array, got number",
    ),
}


@pytest.mark.parametrize("data, message", STRUCTURE_FAULTS.values(), ids=STRUCTURE_FAULTS.keys())
def test_structure_fault_refused(data, message):
    with pytest.raises(ValidationError) as exc:
        modelfile.parse_model(data)
    assert str(exc.value) == "model validation failed:\n  " + message


def test_top_level_array_refused():
    with pytest.raises(ValidationError) as exc:
        modelfile.parse_model([minimal_homogeneous()])
    assert str(exc.value) == "model validation failed:\n  model: expected object, got array"
    obs = {"region": ["a"], "factors": [EYE]}
    with pytest.raises(ValidationError) as exc:
        parse_observable([obs], Sites(("a",)))
    assert str(exc.value) == "observable validation failed:\n  observable: expected object, got array"


class TestCollectorPause:
    """Both loaders pause the cyclic collector from the decode until the
    decoded tree is dropped, and leave it as they found it, whether the
    load succeeds or fails."""

    #: file name -> (contents, error message or None)
    FILES = {
        "valid": (None, None),
        "unreadable": ("", "cannot read"),
        "not_json": ('{"region": ', "is not valid JSON"),
        "not_utf8": (b"\xff\xfe", "is not UTF-8 text"),
        "invalid": ({"region": [[0]], "factors": []}, "validation failed"),
    }

    @staticmethod
    def load(kind, tmp_path, name):
        contents, _ = TestCollectorPause.FILES[name]
        path = tmp_path / f"{name}.json"
        if contents is None:  # a valid file of the kind
            contents = (
                minimal_homogeneous() if kind == "model"
                else {"region": [[0]], "factors": [encode_matrix(np.eye(2))]}
            )
        if name == "unreadable":
            path = tmp_path / "absent.json"
        elif isinstance(contents, bytes):
            path.write_bytes(contents)
        elif isinstance(contents, str):
            path.write_text(contents)
        else:
            path.write_text(json.dumps(contents))
        if kind == "model":
            return load_model(path)
        return load_observable(path, Zd(1))

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", sorted(FILES))
    @pytest.mark.parametrize("kind", ["model", "observable"])
    def test_state_restored(self, kind, name, enabled, tmp_path, monkeypatch):
        import gc

        parse = {"model": "parse_model", "observable": "parse_observable"}[kind]
        seen = []
        original = getattr(modelfile, parse)

        def recorded(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(modelfile, parse, recorded)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            message = self.FILES[name][1]
            if message is None:
                self.load(kind, tmp_path, name)
            else:
                with pytest.raises(ValidationError, match=message):
                    self.load(kind, tmp_path, name)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        # validation ran with the collector paused, if the file decoded
        assert seen == ([False] if name in ("valid", "invalid") else [])


class TestObservable:
    def test_roundtrip(self, tmp_path):
        data = {
            "region": [[0, 0], [1, 0]],
            "factors": [encode_matrix(np.eye(2)), encode_matrix(1j * np.eye(2))],
        }
        obs = load_observable(write(tmp_path, "o.json", data), Zd(2))
        assert obs.region == ((0, 0), (1, 0))
        np.testing.assert_allclose(obs.factors[1], 1j * np.eye(2))

    def test_region_factor_count_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            parse_observable(
                {
                    "region": [[0]],
                    "factors": [encode_matrix(np.eye(2)), encode_matrix(np.eye(2))],
                },
                Zd(1),
            )
        assert str(exc.value) == "observable validation failed:\n  observable: 1 sites vs 2 factors"

    @pytest.mark.parametrize(
        "region, factors, fault",
        [
            ([[0]], [np.ones((2, 3))], "factor at site (0,) has shape (2, 3), expected (2, 2)"),
            ([[0], [1]], [np.eye(2), np.eye(3)], "factor at site (1,) has shape (3, 3), expected (2, 2)"),
            ([[0], [0]], [np.eye(2)] * 2, "region has duplicate sites"),
        ],
        ids=["not-square", "two-sizes", "duplicate-site"],
    )
    def test_observable_fault_is_named_under_the_header(self, region, factors, fault):
        # the observable's own checks, reported as the parser's are
        with pytest.raises(ValidationError) as exc:
            parse_observable({"region": region, "factors": [encode_matrix(f) for f in factors]}, Zd(1))
        assert str(exc.value) == f"observable validation failed:\n  observable: {fault}"

    def test_factor_entry_past_float(self):
        big = 10**400
        with pytest.raises(ValidationError) as exc:
            parse_observable(
                {"region": [[0]], "factors": [[[[1.0, 0.0], [0.0, -big]], [[0.0, 0.0], [1.0, 0.0]]]]},
                Zd(1),
            )
        assert str(exc.value) == (
            "observable validation failed:\n"
            f"  observable.factors[0][0][1][1]: expected number, got {-big}"
        )

    def test_bad_complex_pair(self):
        with pytest.raises(ValidationError) as exc:
            parse_observable(
                {"region": [[0]], "factors": [[[1.0, [0, 0]]]]}, Zd(1)
            )
        assert str(exc.value) == (
            "observable validation failed:\n"
            "  observable.factors[0][0][0]: expected array, got number"
        )


class TestParseRegion:
    def test_lattice_sites(self):
        assert parse_region("0,0; 1,0;-1,2", Zd(2)) == ((0, 0), (1, 0), (-1, 2))

    def test_named_sites(self):
        assert parse_region("a;b; c", Sites(("a", "b", "c"))) == ("a", "b", "c")

    def test_integer_sites_by_digits(self):
        assert parse_region("2;-1", Sites((-1, 2, "x"))) == (2, -1)
        # a string site of the same text takes precedence
        assert parse_region("1;x", Sites((1, "1", "x"))) == ("1", "x")

    def test_unknown_site(self):
        with pytest.raises(ValidationError, match="unknown site 'q'"):
            parse_region("1;q", Sites((1, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            parse_region("0,0;1", Zd(2))

    def test_empty(self):
        with pytest.raises(ValidationError):
            parse_region(" ; ", Zd(2))

    @pytest.mark.parametrize(
        "text, geometry, message",
        [
            ("0;1;+1", Zd(1), "region '0;1;+1' names site (1,) twice"),
            ("a;b;a;a", Sites(("a", "b")), "region 'a;b;a;a' names site 'a' twice"),
        ],
        ids=["lattice", "named"],
    )
    def test_repeated_site(self, text, geometry, message):
        with pytest.raises(ValidationError) as exc:
            parse_region(text, geometry)
        assert str(exc.value) == message


class TestDecodeMatrix:
    """A numeric nest of [re, im] pairs takes one array conversion; the
    schema check walks anything else, and alone writes messages."""

    @staticmethod
    def walked(rows):
        return np.array(
            [[complex(float(re), float(im)) for re, im in row] for row in rows],
            dtype=np.complex128,
        )

    def test_array_route_is_bit_identical(self):
        rows = [
            [[0.1, -0.0], [3, -2], [2**60 + 1, 0.5]],
            [[1e300, 5e-324], [-7, 0.25], [-0.0, 1e-300]],
            [[2**70, 0], [1, 2], [0.5, 0.25]],
        ]
        got = modelfile._pairs(rows, 2)
        assert got.dtype == np.complex128 and got.shape == (3, 3) and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), self.walked(rows).view(np.int64))
        # what a file holds reaches the parser as this array
        obs = parse_observable({"region": [[0]], "factors": [rows]}, Zd(1))
        assert obs.factors[0].tobytes() == got.tobytes()

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_walked(self, value):
        cases = [
            ([[[1.0, value]]], ["[0][0][1]: expected number"]),
            ([[[value, value]]], ["[0][0][0]: expected number", "[0][0][1]: expected number"]),
            ([[value]], ["[0][0]: expected array"]),
        ]
        for rows, faults in cases:
            assert modelfile._pairs(rows, 2) is None
            with pytest.raises(ValidationError) as exc:
                parse_observable({"region": [[0]], "factors": [rows]}, Zd(1))
            assert str(exc.value) == "observable validation failed:" + "".join(
                f"\n  observable.factors[0]{fault}, got boolean" for fault in faults
            )


def generator_model(spec) -> dict:
    """The model file of a ``GeneratorSpec``; JSON keeps every double."""
    sites = [
        {"site": list(site), "D_H": diag.tolist(), "U": encode_matrix(u), "W": encode_matrix(w)}
        for site, diag, u, w in zip(spec.keys, spec.diag, spec.u, spec.w)
    ]
    return {
        "lattice": {"kind": "zd", "nu": spec.nu},
        "fiber_dim": spec.d,
        "index_size": spec.d,
        "vectors": {
            "mode": "generators",
            "sites": sites,
            "tail": {"beyond_radius": spec.tail_radius, "D_H": "zero"},
        },
    }


def limit_gen_model() -> dict:
    """The benchmark's seeded ``limit_gen`` model (1861 sites of Z^2)."""
    import sys

    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    # the benchmark's workloads import their own ``oracles``, which shares
    # its name with the tests' module; each sees its own
    tests_oracles = sys.modules.pop("oracles", None)
    sys.path.insert(0, perfbench)
    try:
        from workloads import LimitGen
    finally:
        sys.path.remove(perfbench)
        sys.modules.pop("oracles", None)
        if tests_oracles is not None:
            sys.modules["oracles"] = tests_oracles
    return LimitGen.generate(1)[0]


def seeded_generator_model(nu, d) -> dict:
    from schurstates.sampling import decaying_generator_spec

    return generator_model(decaying_generator_spec(seed=31, radius=4, d=d, nu=nu))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: The ``$ref`` of the generator site table, and of a matrix.
TABLE = "model.schema.json#/$defs/generator_sites"
MATRIX = "defs.schema.json#/$defs/matrix"


def counted(monkeypatch, ref) -> list:
    """The values handed to the decoder of ``ref``, recorded."""
    calls = []
    decode = modelfile.DECODERS[ref]
    monkeypatch.setitem(modelfile.DECODERS, ref, lambda value: calls.append(value) or decode(value))
    return calls


def outcome(data):
    """``parse_model``'s verdict on ``data``: its message, or the certificate
    and the table of the family it builds."""
    try:
        spec = modelfile.parse_model(copy.deepcopy(data))
    except ValidationError as exc:
        return str(exc)
    table = spec.family().table
    return (spec.summability_certificate, list(table.rows.items()),
            *(a.tobytes() for a in (table.vectors, table.grams, table.radii)))


def walked_outcome(data, monkeypatch):
    """``outcome`` with the column conversion refusing every table, which
    the schema check then walks and the parser reads record by record."""
    with monkeypatch.context() as m:
        m.setitem(modelfile.DECODERS, TABLE, lambda records: None)
        return outcome(data)


class TestGeneratorRoutes:
    """A generator table is read as columns, one array conversion per
    field, and not walked; the schema check's walk and the record-by-
    record read, which alone write per-field messages, are its oracle."""

    @pytest.mark.parametrize(
        "model", [(1, 2), (2, 3), "limit_gen"], ids=["nu1", "nu2", "limit_gen"]
    )
    def test_walk_is_bit_identical(self, model, monkeypatch):
        data = limit_gen_model() if model == "limit_gen" else seeded_generator_model(*model)
        tables = counted(monkeypatch, TABLE)
        matrices = counted(monkeypatch, MATRIX)
        stacked = modelfile.parse_model(data)
        assert len(tables) == 1 and matrices == []
        monkeypatch.setitem(modelfile.DECODERS, TABLE, lambda records: None)
        walked = modelfile.parse_model(data)
        assert len(matrices) == 2 * len(data["vectors"]["sites"])
        assert walked.summability_certificate == stacked.summability_certificate
        fams = stacked.family(), walked.family()
        for rec in data["vectors"]["sites"]:
            site = tuple(rec["site"])
            assert same_bits(fams[0].vectors(site), fams[1].vectors(site))
            assert same_bits(fams[0].gram(site), fams[1].gram(site))
        radius = data["vectors"]["tail"]["beyond_radius"]
        for r in range(-1, radius + 2):
            assert fams[0].tail.remaining(r) == fams[1].tail.remaining(r)

    def test_one_bool_sends_the_table_to_the_walk(self, monkeypatch):
        data = seeded_generator_model(1, 2)
        data["vectors"]["sites"][3]["U"][1][0] = [True, 0.0]
        matrices = counted(monkeypatch, MATRIX)
        with pytest.raises(ValidationError) as exc:
            modelfile.parse_model(data)
        assert str(exc.value) == (
            "model validation failed:\n  model.vectors.sites[3].U[1][0][0]: expected number, got boolean"
        )
        assert len(matrices) == 2 * len(data["vectors"]["sites"])


def _set(path, value):
    """An edit of the seeded nu = 2 table: ``path`` leads from the site
    list into one record, and its last step is replaced by ``value``."""

    def edit(records):
        *lead, last = path
        node = records
        for step in lead:
            node = node[step]
        node[last] = value

    return edit


def _every(key, value):
    """An edit giving every record's ``key`` the same ``value``."""

    def edit(records):
        for rec in records:
            rec[key] = copy.deepcopy(value)

    return edit


def _drop(k, key):
    def edit(records):
        del records[k][key]

    return edit


#: Malformed or unusual generator tables, each an edit of the seeded
#: nu = 2, d = 2 table.
TABLE_EDITS = {
    "ragged-site": _set((5, "site"), [1, 2, 3]),
    "ragged-D_H": _set((5, "D_H"), [0.1, 0.2, 0.3]),
    "ragged-U-rows": _set((5, "U"), [[[1.0, 0.0], [0.0, 0.0]]] * 3),
    "ragged-U-row": _set((5, "U", 1), [[0.0, 0.0]]),
    "ragged-W-pair": _set((5, "W", 0, 1), [0.0, 0.0, 0.0]),
    "short-U-pair": _set((5, "U", 0, 0), [1.0]),
    "bool-site": _set((5, "site", 0), True),
    "bool-D_H": _set((5, "D_H", 1), False),
    "bool-U": _set((5, "U", 0, 0, 1), True),
    "null-W": _set((5, "W", 1, 1, 0), None),
    "null-row": _set((5, "U", 1), None),
    "string-D_H": _set((5, "D_H", 0), "0.5"),
    "string-pair": _set((5, "W", 0, 0), "ab"),
    "dict-U": _set((5, "U", 0, 0, 0), {"re": 1.0}),
    "dict-pair": _set((5, "U", 0, 0), {"re": 1.0, "im": 0.0}),
    "float-coordinate": _set((5, "site", 1), 2.0),
    "coordinate-past-int64": _set((5, "site", 0), 2**63),
    "entry-past-float": _set((5, "D_H", 0), 10**400),
    "record-not-object": _set((5,), [[0, 0], [0.1, 0.2]]),
    "missing-W": _drop(5, "W"),
    "empty-D_H": _every("D_H", []),
    # an empty object or string where a list ends, in every record
    "empty-object-D_H": _every("D_H", {}),
    "empty-string-site": _every("site", ""),
    # non-finite numbers, which Python's JSON reader gives
    "nan-D_H": _set((5, "D_H", 0), float("nan")),
    "inf-U": _set((5, "U", 1, 0, 0), float("inf")),
    "nan-W-imag": _set((5, "W", 0, 1, 1), float("nan")),
    # well formed but for the declared sizes, which the spec checks
    "every-D_H-of-three": _every("D_H", [0.1, -0.2, 0.05]),
    "integer-entries": _set((5, "U"), [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
}


class TestColumnLoader:
    """The flattening column loader against the schema check's walk and
    the record-by-record read: on any table it returns None, and the
    walk then writes its messages, or columns from which the parser
    reaches the walk's verdict, or family, bit for bit."""

    @pytest.mark.parametrize("edit", TABLE_EDITS.values(), ids=TABLE_EDITS.keys())
    def test_none_or_the_walks_columns(self, edit, monkeypatch):
        data = seeded_generator_model(2, 2)
        edit(data["vectors"]["sites"])
        if modelfile._generator_columns(data["vectors"]["sites"]) is None:
            return
        assert outcome(data) == walked_outcome(data, monkeypatch)

    @pytest.mark.parametrize(
        "name, taken",
        [("ragged-site", False), ("bool-U", False), ("float-coordinate", False),
         ("coordinate-past-int64", False), ("record-not-object", False), ("missing-W", False),
         ("empty-object-D_H", False), ("empty-string-site", False),
         ("nan-D_H", False), ("inf-U", False), ("nan-W-imag", False),
         ("empty-D_H", True), ("every-D_H-of-three", True), ("integer-entries", True)],
    )
    def test_which_tables_are_taken(self, name, taken, monkeypatch):
        data = seeded_generator_model(2, 2)
        records = data["vectors"]["sites"]
        TABLE_EDITS[name](records)
        assert (modelfile._generator_columns(records) is not None) == taken
        assert outcome(data) == walked_outcome(data, monkeypatch)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("nan-D_H", "model.vectors.sites[5].D_H[0]: expected number, got nan"),
            ("inf-U", "model.vectors.sites[5].U[1][0][0]: expected number, got inf"),
            ("nan-W-imag", "model.vectors.sites[5].W[0][1][1]: expected number, got nan"),
        ],
    )
    def test_non_finite_numbers_are_named_by_path(self, name, message):
        data = seeded_generator_model(2, 2)
        TABLE_EDITS[name](data["vectors"]["sites"])
        assert outcome(data) == "model validation failed:\n  " + message

    def test_untouched_table_is_taken(self, monkeypatch):
        data = seeded_generator_model(2, 2)
        records = data["vectors"]["sites"]
        sites, diag, u, w = modelfile._generator_columns(records)
        assert sites.shape == (len(records), 2) and u.shape == (len(records), 2, 2)
        assert isinstance(outcome(data), tuple)
        assert outcome(data) == walked_outcome(data, monkeypatch)

    def test_sites_of_another_dimension_are_named(self, monkeypatch):
        # a table the columns take, but whose sites have one coordinate
        # too many for the lattice: each is named, as the walk names it
        data = seeded_generator_model(2, 2)
        data["lattice"]["nu"] = 1
        message = outcome(data)
        assert message == walked_outcome(data, monkeypatch)
        lines = message.split("\n  ")
        assert lines[:2] == [
            "model validation failed:",
            f"model.vectors.sites[0].site: expected 1 integer coordinates, got {data['vectors']['sites'][0]['site']!r}",
        ]
        assert len(lines) == 1 + len(data["vectors"]["sites"])
