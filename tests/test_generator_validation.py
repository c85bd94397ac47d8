"""Exit codes and messages of the ``limit`` command on faulty generator
models.

The expected values were captured from the eigendecomposition build
(two ``hermitian_function`` calls per site, per-entry decoding) and are
held fixed: the stacked closed-form build and the column loader must
report the same first fault with the same text and exit code.  Those of
the field faults are the schema check's, which walks a table that the
column loader refuses and names every faulty field.  Two cases were
faults of the per-record loader: ``diag_longer_than_fiber_dim`` built a
three-dimensional family for ``fiber_dim`` 2 (and failed only on the
observable), and ``diag_empty`` raised a traceback.
"""

import copy
import json
import warnings

import pytest

from schurstates.cli import main

U = [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]]
W = [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]]
NOT_UNITARY = [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
IDENTITY_3 = [
    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
]


def base_model():
    """Three valid sites of Z^1, tail radius 2."""
    sites = [
        {"site": [s], "D_H": list(dh), "U": copy.deepcopy(U), "W": copy.deepcopy(W)}
        for s, dh in ((0, (0.25, -0.5)), (-1, (0.125, 0.0)), (1, (-0.25, 0.1)))
    ]
    return {
        "lattice": {"kind": "zd", "nu": 1},
        "fiber_dim": 2,
        "index_size": 2,
        "vectors": {
            "mode": "generators",
            "sites": sites,
            "tail": {"beyond_radius": 2, "D_H": "zero"},
        },
    }


def set_entry(k, name, i, j, value):
    def edit(m):
        m["vectors"]["sites"][k][name][i][j] = value
    return edit


def set_field(k, name, value):
    def edit(m):
        m["vectors"]["sites"][k][name] = copy.deepcopy(value)
    return edit


def both(*edits):
    def edit(m):
        for e in edits:
            e(m)
    return edit


def drop_field(k, name):
    def edit(m):
        del m["vectors"]["sites"][k][name]
    return edit


def set_record(k, value):
    def edit(m):
        m["vectors"]["sites"][k] = value
    return edit


def set_sites(value):
    def edit(m):
        m["vectors"]["sites"] = value
    return edit


def every_site(name, value):
    def edit(m):
        for rec in m["vectors"]["sites"]:
            rec[name] = copy.deepcopy(value)
    return edit


def drop_last_entry(k, name, i):
    def edit(m):
        m["vectors"]["sites"][k][name][i].pop()
    return edit


FAILED = "validation error: model validation failed:\n  "

#: A JSON integer no float holds.
PAST_FLOAT = 10**400

#: name -> (edit, exit code, complete stderr)
VALIDATION = {
    "u_entry_true": (
        set_entry(0, "U", 0, 0, True), 1,
        FAILED + "model.vectors.sites[0].U[0][0]: expected array, got boolean\n",
    ),
    "u_pair_with_true": (
        set_entry(0, "U", 0, 0, [True, 0.0]), 1,
        FAILED + "model.vectors.sites[0].U[0][0][0]: expected number, got boolean\n",
    ),
    "u_pair_of_ints_with_false": (
        set_entry(0, "U", 1, 0, [0, False]), 1,
        FAILED + "model.vectors.sites[0].U[1][0][1]: expected number, got boolean\n",
    ),
    "u_entry_string": (
        set_entry(0, "U", 1, 1, "0.6"), 1,
        FAILED + "model.vectors.sites[0].U[1][1]: expected array, got string\n",
    ),
    "u_pair_with_string": (
        set_entry(0, "U", 1, 1, ["0.6", 0.0]), 1,
        FAILED + "model.vectors.sites[0].U[1][1][0]: expected number, got string\n",
    ),
    "u_pair_with_null": (
        set_entry(2, "U", 1, 0, [None, 0.0]), 1,
        FAILED + "model.vectors.sites[2].U[1][0][0]: expected number, got null\n",
    ),
    "u_short_row": (
        drop_last_entry(1, "U", 1), 1,
        FAILED + "model.vectors.sites[1].U: rows differ in length\n",
    ),
    "u_triple": (
        set_entry(0, "U", 0, 1, [0.0, 0.8, 0.0]), 1,
        FAILED + "model.vectors.sites[0].U[0][1]: length must be <= 2, got 3\n",
    ),
    "u_single": (
        set_entry(0, "U", 0, 1, [0.8]), 1,
        FAILED + "model.vectors.sites[0].U[0][1]: length must be >= 2, got 1\n",
    ),
    "u_entry_past_float": (
        set_entry(0, "U", 0, 0, [PAST_FLOAT, 0]), 1,
        FAILED + f"model.vectors.sites[0].U[0][0][0]: expected number, got {PAST_FLOAT}\n",
    ),
    "w_entry_true": (
        set_entry(2, "W", 1, 0, True), 1,
        FAILED + "model.vectors.sites[2].W[1][0]: expected array, got boolean\n",
    ),
    "u_not_nested": (
        set_field(0, "U", "identity"), 1,
        FAILED + "model.vectors.sites[0].U: expected array, got string\n",
    ),
    "u_empty": (
        set_field(0, "U", []), 1,
        FAILED + "model.vectors.sites[0].U: length must be >= 1, got 0\n",
    ),
    "u_wrong_shape": (
        set_field(1, "U", IDENTITY_3), 1,
        FAILED + "model.vectors: site (-1,): U has shape (3, 3), expected (2, 2)\n",
    ),
    "w_not_square": (
        set_field(1, "W", IDENTITY_3[:2]), 1,
        FAILED + "model.vectors: site (-1,): W has shape (2, 3), expected (2, 2)\n",
    ),
    "bad_w_early_bad_u_later_decode": (
        both(set_entry(0, "W", 0, 0, [1.0]), set_entry(2, "U", 1, 0, None)), 1,
        FAILED + "model.vectors.sites[0].W[0][0]: length must be >= 2, got 1\n"
        "  model.vectors.sites[2].U[1][0]: expected array, got null\n",
    ),
    "bad_w_early_bad_u_later_isometry": (
        both(set_field(0, "W", NOT_UNITARY), set_field(2, "U", NOT_UNITARY)), 1,
        FAILED + "model.vectors: site (0,): W deviates from isometry by 5.000e-01\n",
    ),
    "u_and_w_at_one_site": (
        both(set_field(1, "W", NOT_UNITARY), set_field(1, "U", NOT_UNITARY)), 1,
        FAILED + "model.vectors: site (-1,): U deviates from isometry by 5.000e-01\n",
    ),
    "beyond_radius_before_isometry": (
        both(set_field(0, "site", [3]), set_field(1, "U", NOT_UNITARY)), 1,
        FAILED + "model.vectors: site (3,) lies beyond the declared tail radius 2\n",
    ),
    "isometry_before_beyond_radius": (
        both(set_field(0, "W", NOT_UNITARY), set_field(2, "site", [-4])), 1,
        FAILED + "model.vectors: site (0,): W deviates from isometry by 5.000e-01\n",
    ),
    "diag_wrong_length": (
        set_field(1, "D_H", [0.1, 0.2, 0.3]), 1,
        FAILED + "model.vectors: site (-1,): diagonal has shape (3,)\n",
    ),
    "diag_bool": (
        set_field(1, "D_H", [True, 0.2]), 1,
        FAILED + "model.vectors.sites[1].D_H[0]: expected number, got boolean\n",
    ),
    "diag_past_float": (
        set_field(2, "D_H", [0.5, -PAST_FLOAT]), 1,
        FAILED + f"model.vectors.sites[2].D_H[1]: expected number, got {-PAST_FLOAT}\n",
    ),
    "decode_error_and_beyond_radius": (
        both(set_entry(0, "U", 0, 0, "x"), set_field(1, "site", [5])), 1,
        FAILED + "model.vectors.sites[0].U[0][0]: expected array, got string\n",
    ),
    "site_true": (
        set_field(1, "site", [True]), 1,
        FAILED + "model.vectors.sites[1].site[0]: expected integer, got boolean\n",
    ),
    "site_fraction": (
        set_field(1, "site", [1.5]), 1,
        FAILED + "model.vectors.sites[1].site[0]: expected integer, got number\n",
    ),
    "site_two_coordinates": (
        set_field(1, "site", [0, 0]), 1,
        FAILED + "model.vectors.sites[1].site: expected 1 integer coordinates, got [0, 0]\n",
    ),
    "site_past_int64": (
        set_field(1, "site", [2**70]), 1,
        FAILED + "model.vectors: site (1180591620717411303424,) lies beyond the declared "
        "tail radius 2\n",
    ),
    "site_integral_float": (set_field(1, "site", [2.0]), 0, ""),
    "site_missing": (
        drop_field(1, "site"), 1,
        FAILED + "model.vectors.sites[1]: missing required field 'site'\n",
    ),
    "record_not_object": (
        set_record(1, [0]), 1,
        FAILED + "model.vectors.sites[1]: expected object, got array\n",
    ),
    "site_twice": (
        set_field(2, "site", [0]), 1,
        FAILED + "model.vectors: generator model declares a site twice\n",
    ),
    "diag_string": (
        set_field(1, "D_H", "0.1"), 1,
        FAILED + "model.vectors.sites[1].D_H: expected array, got string\n",
    ),
    "no_sites": (
        set_sites([]), 1,
        FAILED + "model.vectors: generator model declares no sites\n",
    ),
    "diag_longer_than_fiber_dim": (
        both(every_site("D_H", [0.1, 0.2, 0.3]), every_site("U", IDENTITY_3),
             every_site("W", IDENTITY_3)), 1,
        FAILED + "model.vectors: site (0,): diagonal has shape (3,)\n",
    ),
    "diag_empty": (
        set_field(0, "D_H", []), 1,
        FAILED + "model.vectors: site (0,): diagonal has shape (0,)\n",
    ),
    "valid": (lambda m: None, 0, ""),
    # the eigenvalue floor exp(min D) <= 1e-12 exp(max D): a spread of
    # 27.6 is inside it, 27.64 outside
    "floor_inside": (set_field(0, "D_H", [13.8, -13.8]), 0, ""),
    # fiber vectors of norm e^-20 are small but not zero; so are those of
    # site 0's U, which mixes an entry of D below -64.5 with one above
    "small_not_vanishing": (set_field(0, "D_H", [-40.0, -40.0]), 0, ""),
    "one_entry_below_vanishing": (set_field(0, "D_H", [-40.0, -65.0]), 0, ""),
}

#: name -> (edit, exit code, site the new message names).  The messages
#: of the eigendecomposition build named its spectral primitive, which
#: the closed form no longer calls; only the exit codes are held.
PRECONDITION = {
    "floor_outside": (set_field(0, "D_H", [13.82, -13.82]), 3, "(0,)"),
    "floor_outside_late": (set_field(2, "D_H", [-20.0, 8.0]), 3, "(1,)"),
    "overflow": (set_field(0, "D_H", [800.0, 800.0]), 3, "(0,)"),
    "underflow": (set_field(1, "D_H", [-800.0, -800.0]), 3, "(-1,)"),
    # fiber vectors of norm e^-35, which the table would take for zero
    # vectors (this exited 1, "zero fiber vector at index 0")
    "vanishing": (set_field(0, "D_H", [-70.0, -70.0]), 3, "(0,)"),
}

#: Non-finite entries (Python's JSON reader accepts NaN and Infinity)
#: exit 1; the schema check names each by its path, as it names one in
#: any other field.
NON_FINITE = {
    "nan_u": (set_entry(1, "U", 0, 0, [float("nan"), 0.0]), "model.vectors.sites[1].U[0][0][0]: expected number, got nan"),
    "inf_w": (set_entry(1, "W", 0, 0, [float("inf"), 0.0]), "model.vectors.sites[1].W[0][0][0]: expected number, got inf"),
    "nan_diag": (set_field(1, "D_H", [float("nan"), 0.0]), "model.vectors.sites[1].D_H[0]: expected number, got nan"),
}


def run_limit(tmp_path, capsys, edit):
    model = base_model()
    edit(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({
        "region": [[0]],
        "factors": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]],
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["limit", "--model", str(path), "--observable", str(obs),
                     "--output", str(tmp_path / "report.json")])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err, [str(w.message) for w in caught]


@pytest.mark.parametrize("name", sorted(VALIDATION))
def test_validation_message_and_exit_code(name, tmp_path, capsys):
    edit, code, err = VALIDATION[name]
    assert run_limit(tmp_path, capsys, edit) == (code, err, [])


@pytest.mark.parametrize("name", sorted(PRECONDITION))
def test_precondition_exit_code_without_warnings(name, tmp_path, capsys):
    edit, code, site = PRECONDITION[name]
    got_code, err, caught = run_limit(tmp_path, capsys, edit)
    assert got_code == code
    assert err.startswith(f"precondition error: site {site}: ")
    assert err.count("\n") == 1
    assert caught == []


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_entries_exit_1(name, tmp_path, capsys):
    edit, message = NON_FINITE[name]
    assert run_limit(tmp_path, capsys, edit) == (1, FAILED + message + "\n", [])
