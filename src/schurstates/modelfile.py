"""Model and observable files.

One JSON format describes every model the engine accepts.  Complex
numbers serialize as two-element arrays [re, im] of doubles; matrices
are nested arrays of those pairs.  A model file declares its geometry
(an integer lattice of some dimension, or an enumerated site list), the
fiber dimension ``d`` and index count ``d_I``, and exactly one vector
source:

* ``explicit``     — one vector block for each enumerated site, walked
                     in declared order;
* ``homogeneous``  — one reference block copied to every site;
* ``generators``   — per-site diagonal/unitary/isometry records with a
                     zero-beyond-radius tail rule;
* ``perturbed``    — the decaying-perturbation lattice family, given by
                     a base vector, direction vectors and decay profile.

Validation collects every fault of a file's structure it can find
(types, shapes, sites and the decoding of every number, with site and
field coordinates) instead of stopping at the first.  ``parse_model``
switches on the mode once, and a file whose structure is sound builds
its family there, once: the values of its vectors are judged by that
build alone (``kernel.check_vectors``), which names the first faulty
vector under ``model.vectors``.
"""

from __future__ import annotations

import cmath
import functools
import gc
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lattice
from .errors import ValidationError
from .kernel import FiberFamily
from .limit import GeneratorSpec, boundary_matrix, build_from_generators
from .mixing import decaying_perturbation_family
from .state import LocalObservable

#: Tolerance for the declared-normalization check at load time.
NORMALIZATION_TOL = 1e-8


# ---------------------------------------------------------------------------
# Complex codecs
# ---------------------------------------------------------------------------


def encode_complex(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def decode_complex(pair, where: str, errors: list) -> complex:
    """A complex number from an [re, im] pair of finite JSON numbers
    (Python's JSON reader also gives NaN and Infinity, which are refused)."""
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(_is_number(v) for v in pair)
    ):
        errors.append(f"{where}: expected [re, im], got {pair!r}")
        return 0j
    z = complex(float(pair[0]), float(pair[1]))
    if not cmath.isfinite(z):
        errors.append(f"{where}: non-finite number in {pair!r}")
        return 0j
    return z


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[encode_complex(z) for z in row] for row in m]


def decode_matrix(rows, where: str, errors: list) -> np.ndarray:
    """A matrix from nested [re, im] pairs; every fault goes to ``errors``.

    A well-formed nest of finite numbers takes one array conversion;
    anything else (ragged, non-numeric, non-finite, or holding a JSON
    bool, which numpy would read as 0 or 1) is walked entry by entry,
    which alone writes messages.
    """
    try:
        a = np.asarray(rows)
    except (ValueError, TypeError, OverflowError):
        a = None
    if (
        a is not None
        and a.ndim == 3
        and a.shape[2] == 2
        and a.dtype.kind in "if"
        and not any(type(v) is bool for row in rows for pair in row for v in pair)
        and np.isfinite(a).all()
    ):
        return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0].copy()
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        errors.append(f"{where}: expected a non-empty nested array")
        return np.zeros((1, 1), dtype=np.complex128)
    width = len(rows[0])
    out = np.zeros((len(rows), width), dtype=np.complex128)
    for i, row in enumerate(rows):
        if len(row) != width:
            errors.append(f"{where}: row {i} has length {len(row)}, expected {width}")
            continue
        for j, pair in enumerate(row):
            out[i, j] = decode_complex(pair, f"{where}[{i}][{j}]", errors)
    return out


def decode_vector(entries, where: str, errors: list) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        errors.append(f"{where}: expected a non-empty array")
        return np.zeros(1, dtype=np.complex128)
    return np.array(
        [decode_complex(p, f"{where}[{k}]", errors) for k, p in enumerate(entries)],
        dtype=np.complex128,
    )


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Parsed, validated model file and the fiber family it describes,
    built once when the file is loaded."""

    mode: str                      # explicit | homogeneous | generators | perturbed
    geometry: lattice.Zd | lattice.Sites
    _family: FiberFamily
    reference: np.ndarray | None = None            # homogeneous models only
    summability_certificate: float | None = None   # generator models only

    def family(self) -> FiberFamily:
        """The family built at load: the normalization check and every
        command share its vector, Gram and boundary caches."""
        return self._family


def _is_number(value) -> bool:
    """A JSON number that a float holds: Python's bool is an int, but
    JSON's true is not, and an integer past the float range is refused."""
    if isinstance(value, float):
        return True
    if not isinstance(value, int) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _require(data: dict, key: str, types, where: str, errors: list, default=None):
    if key not in data:
        errors.append(f"{where}: missing required field {key!r}")
        return default
    value = data[key]
    if types is int and lattice.json_int(value) is not None:
        return lattice.json_int(value)
    if types is int or (types is not None and not isinstance(value, types)):
        errors.append(
            f"{where}.{key}: expected {getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}"
        )
        return default
    return value


def parse_model(data: dict) -> ModelSpec:
    """Validate raw JSON data into a ModelSpec, collecting every fault of
    its structure, and build its family.

    A NaN or Infinity, which Python's JSON reader accepts, is refused
    where its matrix or vector is decoded.  Once the structure is sound
    the mode's family is built, once, and a ``ValidationError`` of its
    constructor (the first zero vector, or one whose squared norm
    overflows) is reported under ``model.vectors``.  A model declaring
    ``"normalized": true`` has its total boundary weight checked by
    ``_check_normalization``.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError("model: top level must be a JSON object")

    lat = _require(data, "lattice", dict, "model", errors, {})
    # the one switch on the kind of site; an invalid geometry leaves the
    # one-dimensional lattice in place so the rest can still be checked
    geometry = lattice.Zd(1)
    kind = _require(lat, "kind", str, "model.lattice", errors, "")
    if kind == "zd":
        nu = _require(lat, "nu", int, "model.lattice", errors, 1)
        if nu < 1:
            errors.append(f"model.lattice.nu: must be >= 1, got {nu}")
        else:
            geometry = lattice.Zd(nu)
    elif kind == "sites":
        raw_sites = _require(lat, "sites", list, "model.lattice", errors, [])
        sites = [
            lattice.Sites.decode(s, f"model.lattice.sites[{k}]", errors)
            for k, s in enumerate(raw_sites)
        ]
        if len(set(sites)) != len(sites):
            errors.append("model.lattice.sites: duplicate site names")
        elif not sites:
            errors.append("model.lattice.sites: empty site list")
        else:
            geometry = lattice.Sites(sites)
    else:
        errors.append(f"model.lattice.kind: expected 'zd' or 'sites', got {kind!r}")

    d = _require(data, "fiber_dim", int, "model", errors, 1)
    d_I = _require(data, "index_size", int, "model", errors, 1)
    if d < 1:
        errors.append(f"model.fiber_dim: must be >= 1, got {d}")
    if d_I < 1:
        errors.append(f"model.index_size: must be >= 1, got {d_I}")

    vectors = _require(data, "vectors", dict, "model", errors, {})
    mode = _require(vectors, "mode", str, "model.vectors", errors, "")
    # each mode branch sets ``build``, its family constructor, and what
    # else its model carries
    build = reference = certificate = None

    def decoded(key, decode):
        """Field ``key`` of the vectors, decoded; None once it has failed,
        as a type or in its decoding, so its fault is reported once."""
        known = len(errors)
        raw = _require(vectors, key, list, "model.vectors", errors)
        value = decode(raw, f"model.vectors.{key}", errors) if len(errors) == known else None
        return value if len(errors) == known else None

    if mode == "explicit":
        if kind != "sites":
            errors.append("model: explicit vectors require an enumerated site list")
        by_site_raw = _require(vectors, "by_site", list, "model.vectors", errors, [])
        by_site = {}
        for k, rec in enumerate(by_site_raw):
            where = f"model.vectors.by_site[{k}]"
            if not isinstance(rec, dict):
                errors.append(f"{where}: expected an object")
                continue
            known = len(errors)
            site = lattice.Sites.decode(rec.get("site"), f"{where}.site", errors)
            if site in by_site:
                errors.append(f"{where}.site: second entry for site {site!r}")
            elif geometry.finite and site not in geometry.site_set and len(errors) == known:
                errors.append(f"{where}.site: {site!r} is not a declared site")
            known = len(errors)
            block = by_site[site] = decode_matrix(rec.get("vectors"), f"{where}.vectors", errors)
            if len(errors) == known and block.shape != (d_I, d):
                errors.append(f"{where}.vectors: shape {block.shape} != ({d_I}, {d}) at site {site!r}")
        if not errors:
            missing = [s for s in geometry.sites if s not in by_site]
            if missing:
                errors.append(f"model.vectors.by_site: no vectors for sites {missing!r}")
        # one table in the declared site order
        build = lambda: FiberFamily.explicit({s: by_site[s] for s in geometry.sites})

    elif mode == "homogeneous":
        reference = decoded("reference", decode_matrix)
        if reference is not None and reference.shape != (d_I, d):
            errors.append(f"model.vectors.reference: shape {reference.shape} != ({d_I}, {d})")
        build = functools.partial(FiberFamily.homogeneous, reference, geometry)

    elif mode == "generators":
        if kind != "zd":
            errors.append("model: generator vectors require a zd lattice")
            geometry = lattice.Zd(1)  # still check the site coordinates
        if d != d_I:
            errors.append(
                f"model: generator models need fiber_dim == index_size, "
                f"got {d} != {d_I}"
            )
        site_raw = _require(vectors, "sites", list, "model.vectors", errors, [])
        tail = _require(vectors, "tail", dict, "model.vectors", errors, {})
        radius = _require(tail, "beyond_radius", int, "model.vectors.tail", errors, 0)
        if radius < 0:
            errors.append(f"model.vectors.tail.beyond_radius: must be >= 0, got {radius}")
        if _require(tail, "D_H", str, "model.vectors.tail", errors, "zero") != "zero":
            errors.append("model.vectors.tail.D_H: only 'zero' tails are supported")
        columns = _generator_columns(site_raw, geometry.nu)
        if columns is None:
            columns = _walk_generators(site_raw, geometry, errors)
        if not errors:
            try:
                gen = GeneratorSpec(*columns, tail_radius=radius, nu=geometry.nu, d=d)
            except ValidationError as exc:
                errors.append(f"model.vectors: {exc}")
            else:
                certificate = gen.summability_certificate()
                build = functools.partial(build_from_generators, gen)

    elif mode == "perturbed":
        if kind != "zd":
            errors.append("model: perturbed vectors require a zd lattice")
        base = decoded("base", decode_vector)
        dirs = decoded("directions", decode_matrix)
        if dirs is not None and dirs.shape != (d_I, d):
            errors.append(f"model.vectors.directions: shape {dirs.shape} != ({d_I}, {d})")
        if base is not None and base.shape != (d,):
            errors.append(f"model.vectors.base: length {base.shape[0]} != {d}")
        eps = vectors.get("epsilon0", 6e-7)
        decay = vectors.get("decay", 0.78)
        near_amp = vectors.get("near_amplitude")
        near_radius = vectors.get("near_radius", 3)
        if not _is_number(eps) or eps <= 0:
            errors.append(f"model.vectors.epsilon0: must be positive, got {eps!r}")
        if not _is_number(decay) or not 0 < decay < 1:
            errors.append(f"model.vectors.decay: must lie in (0, 1), got {decay!r}")
        if near_amp is not None and not _is_number(near_amp):
            errors.append(
                f"model.vectors.near_amplitude: expected a number or null, got {near_amp!r}"
            )
        if lattice.json_int(near_radius) is None or near_radius < 0:
            errors.append(
                f"model.vectors.near_radius: expected an integer >= 0, got {near_radius!r}"
            )
        if not errors:
            build = functools.partial(
                decaying_perturbation_family,
                nu=geometry.nu,
                epsilon0=float(eps),
                decay=float(decay),
                near_amplitude=near_amp,
                near_radius=int(near_radius),
                base=base,
                directions=dirs,
            )

    else:
        errors.append(
            "model.vectors.mode: expected one of 'explicit', 'homogeneous', "
            f"'generators', 'perturbed', got {mode!r}"
        )

    normalized = data.get("normalized", False)
    if not isinstance(normalized, bool):
        errors.append("model.normalized: expected a boolean")
        normalized = False

    if not errors:
        try:
            family = build()
        except ValidationError as exc:
            errors.append(f"model.vectors: {exc}")
    if errors:
        raise ValidationError(
            "model validation failed:\n  " + "\n  ".join(errors)
        )
    if normalized:
        _check_normalization(family)
    return ModelSpec(mode, geometry, family, reference, certificate)


def _check_normalization(family: FiberFamily) -> None:
    """The total boundary weight, walked on the empty region, must be 1
    within ``NORMALIZATION_TOL``."""
    total = complex(boundary_matrix(family, (), tail_tol=1e-10).matrix.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(
            f"model declares normalization but the total boundary weight is "
            f"{total!r} (|deviation| = {abs(total - 1.0):.3e} > {NORMALIZATION_TOL})"
        )


#: (key, nesting depth, leaf types) of each field of a generator record.
GENERATOR_FIELDS = (
    ("site", 1, {int}),
    ("D_H", 1, {int, float}),
    ("U", 3, {int, float}),
    ("W", 3, {int, float}),
)


def _generator_columns(records: list, nu: int) -> tuple | None:
    """A generator site table as the columns of ``GeneratorSpec`` (sites,
    diagonals, U, W), each field flattened once and converted by one
    array conversion; or None for a table that only ``_walk_generators``
    reads: one that is ragged, holds anything but JSON numbers (a bool
    included), or has a coordinate that is not a JSON integer literal
    (2.0 included, which the walk reads as 2) or lies past int64."""
    try:
        sites, diag, u, w = columns = [
            _flattened([rec.get(key) for rec in records], depth, types)
            for key, depth, types in GENERATOR_FIELDS
        ]
    except (AttributeError, TypeError, ValueError, OverflowError):
        return None
    if any(c is None for c in columns) or sites.shape[1] != nu or {u.shape[3], w.shape[3]} != {2}:
        return None
    return sites, diag, *(m.view(np.complex128)[..., 0] for m in (u, w))


def _flattened(column: list, depth: int, types: set) -> np.ndarray | None:
    """A column of lists nested ``depth`` deep as one array: lists of one
    length at each level, checked with one ``set(map(len, ...))`` per
    level, and leaves all of the ``types`` (numpy would read a bool as 0
    or 1); else None.  Integer leaves stay exact, past int64 refused."""
    shape = [len(column)]
    for _ in range(depth):
        lengths = set(map(len, column))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        column = list(itertools.chain.from_iterable(column))
    if not set(map(type, column)) <= types:
        return None
    return np.array(column, dtype=np.int64 if types == {int} else np.float64).reshape(shape)


def _walk_generators(records: list, geometry: lattice.Zd, errors: list) -> tuple:
    """The columns of ``_generator_columns`` read record by record, with
    a message in ``errors`` for every faulty field; the diagonal and
    matrix columns are lists of per-record arrays."""
    sites, diags, us, ws = [], [], [], []
    for k, rec in enumerate(records):
        where = f"model.vectors.sites[{k}]"
        if not isinstance(rec, dict):
            errors.append(f"{where}: expected an object")
            continue
        site = geometry.decode(rec.get("site"), f"{where}.site", errors)
        diag_raw = rec.get("D_H")
        if not isinstance(diag_raw, list) or not all(_is_number(v) for v in diag_raw):
            errors.append(f"{where}.D_H: expected an array of reals")
            continue
        sites.append(site)
        diags.append(np.asarray(diag_raw, float))
        us.append(decode_matrix(rec.get("U"), f"{where}.U", errors))
        ws.append(decode_matrix(rec.get("W"), f"{where}.W", errors))
    return sites, diags, us, ws


def _read_json(path, what: str):
    """The parsed contents of a JSON file; an unreadable or malformed
    file is a validation error naming ``what`` the file holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{what} file {path} is not UTF-8 text: byte {exc.start}: {exc.reason}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{what} file {path} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ValidationError(f"{what} file {path} nests too deeply to parse") from exc


def _collector_paused(load: Callable) -> Callable:
    """``load`` with the cyclic garbage collector paused while it runs,
    and restored to its earlier state (enabled or not) however it ends.

    A decoded JSON file is a tree of lists and dicts without reference
    cycles, tens of thousands of them for a large model, which reference
    counting frees when ``load`` returns.  Unpaused, the collector sweeps
    them again and again while they are decoded and validated; a pause
    that ended before the drop would leave it one whole-tree sweep.
    """

    @functools.wraps(load)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def load_model(path) -> ModelSpec:
    """Read and validate a model file, with the collector paused from the
    decode until the decoded tree is dropped (``_collector_paused``)."""
    return parse_model(_read_json(path, "model"))


# ---------------------------------------------------------------------------
# Observable files
# ---------------------------------------------------------------------------


def parse_observable(data: dict, geometry) -> LocalObservable:
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError("observable: top level must be a JSON object")
    region_raw = _require(data, "region", list, "observable", errors, [])
    region = tuple(
        geometry.decode(s, f"observable.region[{k}]", errors)
        for k, s in enumerate(region_raw)
    )
    factors_raw = _require(data, "factors", list, "observable", errors, [])
    factors = tuple(
        decode_matrix(m, f"observable.factors[{k}]", errors)
        for k, m in enumerate(factors_raw)
    )
    if len(region) != len(factors):
        errors.append(
            f"observable: {len(region)} region sites vs {len(factors)} factors"
        )
    if errors:
        raise ValidationError(
            "observable validation failed:\n  " + "\n  ".join(errors)
        )
    return LocalObservable(region, factors)


@_collector_paused
def load_observable(path, geometry) -> LocalObservable:
    """Read and validate an observable file, with the collector paused as
    ``load_model`` pauses it."""
    return parse_observable(_read_json(path, "observable"), geometry)


def parse_region(text: str, geometry) -> tuple:
    """Parse the --region flag: sites separated by ';' (lattice
    coordinates by ',')."""
    sites = tuple(geometry.parse(part.strip()) for part in text.split(";") if part.strip())
    if not sites:
        raise ValidationError(f"region {text!r} contains no sites")
    return sites
