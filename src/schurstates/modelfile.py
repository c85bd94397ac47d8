"""Model and observable files.

The shipped input schemas (``schema``) are the one statement of both
formats.  Complex numbers serialize as [re, im] pairs of doubles, and
matrices as nested arrays of those pairs.  A model file declares its
geometry (an integer lattice of some dimension, or an enumerated site
list), the fiber dimension ``d``, the index count ``d_I`` and one vector
source: ``explicit`` (a vector block for each enumerated site, walked in
declared order), ``homogeneous`` (one reference block at every site),
``generators`` (per-site diagonal/unitary/isometry records with a
zero-beyond-radius tail rule) or ``perturbed`` (the decaying-perturbation
lattice family: a base vector, direction vectors and a decay profile).

A file is checked against its schema first, which reports every fault
of its structure as ``<JSON path>: <fault>``, as in
``model.lattice.nu: must be >= 1, got 0``.  Its decoders are one array
conversion (``_array``), for each matrix, vector and generator column:
what that refuses, a NaN or Infinity included, the check walks and names
by its path.  Sites are read as the file holds them (``_sites``).  The
parser then judges only what a schema cannot say: shapes against
``fiber_dim``/``index_size``, declared and duplicate sites, a site's form
for its geometry, ``d == d_I`` and the lattice kind each mode needs, and
the generator columns; an observable's own checks are reported under
``observable``.  A sound file builds its family once, here, and
the values of its vectors are judged by that build alone
(``kernel.check_vectors``), which names the first faulty vector under
``model.vectors``.
"""
from __future__ import annotations

import functools
import gc
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lattice, schema
from .errors import ValidationError
from .kernel import FiberFamily
from .limit import GeneratorSpec, boundary_matrix, build_from_generators
from .mixing import decaying_perturbation_family
from .state import LocalObservable

#: Tolerance for the declared-normalization check at load time.
NORMALIZATION_TOL = 1e-8

#: The lattice kind each vector mode needs, and the fault of a model
#: declaring another.
NEEDS = {
    "explicit": ("sites", "explicit vectors require an enumerated site list"),
    "generators": ("zd", "generator vectors require a zd lattice"),
    "perturbed": ("zd", "perturbed vectors require a zd lattice"),
}


# ---------------------------------------------------------------------------
# Complex codecs
# ---------------------------------------------------------------------------


def encode_complex(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[encode_complex(z) for z in row] for row in m]


def _array(value, depth: int, integer: bool = False) -> np.ndarray | None:
    """``value``, lists nested ``depth`` deep around finite JSON numbers
    (ints alone if ``integer``), as one float64 (int64) array: one
    ``set(map(len, ...))`` per level, one check of the leaves' types
    (numpy would read a bool as 1) and one conversion; None for anything
    else, an int past the dtype included, which the schema check walks."""
    leaves, shape = [value], []
    try:
        for _ in range(depth):
            lengths = set(map(len, leaves))
            # one length per level, and no str or dict where a list ends empty
            if len(lengths) != 1 or 0 in lengths and set(map(type, leaves)) != {list}:
                return None
            shape.append(lengths.pop())
            leaves = list(itertools.chain.from_iterable(leaves))
        if not set(map(type, leaves)) <= ({int} if integer else {int, float}):
            return None
        a = np.array(leaves, dtype=np.int64 if integer else np.float64).reshape(shape)
    except (TypeError, OverflowError):
        return None
    return a if integer or np.count_nonzero(np.isfinite(a)) == a.size else None


def _pairs(value, depth: int) -> np.ndarray | None:
    """``value``, arrays nested ``depth`` deep around [re, im] pairs, as
    one complex array (``_array``); None for anything else."""
    a = _array(value, depth + 1)
    return None if a is None or a.shape[-1] != 2 else a.view(np.complex128)[..., 0]


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


def _refuse(root: str, faults: list) -> None:
    if faults:
        raise ValidationError(f"{root} validation failed:\n  " + "\n  ".join(faults))


def _checked(data, root: str) -> dict:
    """What the check of ``data`` against the ``root`` schema decoded, by
    path; every fault it finds is refused at once."""
    faults, decoded = schema.checker().check(data, f"{root}.schema.json", DECODERS)
    _refuse(root, faults)
    return decoded


def _matrix(decoded: dict, root: str, errors: list, path: tuple, shape=None, at: str = ""):
    """The matrix (or vector) the schema check decoded at ``path``, with a
    fault in ``errors`` if its rows differ in length or its shape is not
    ``shape``."""
    m = decoded.get(path)
    if m is None:
        errors.append(f"{schema.where(root, path)}: rows differ in length")
    elif shape is not None and m.shape != shape:
        errors.append(f"{schema.where(root, path)}: shape {m.shape} != {shape}{at}")
    return m


def _sites(raws: list, geometry, at: str, errors: list) -> list:
    """Each schema-checked JSON site of ``raws`` as a site of ``geometry``:
    on a site list a name (a string, or an integer, 2.0 read as 2), on a
    lattice the tuple of its nu integer coordinates; a fault in
    ``errors``, at ``at.format(k)``, for one of another form."""
    if geometry.finite:
        sites = [None if type(raw) is list else raw if type(raw) is str else int(raw) for raw in raws]
    else:
        nu = geometry.nu
        sites = [tuple(map(int, raw)) if type(raw) is list and len(raw) == nu else None for raw in raws]
    if None in sites:
        form = "a string or integer name" if geometry.finite else f"{geometry.nu} integer coordinates"
        errors += [f"{at.format(k)}: expected {form}, got {raw!r}" for k, raw in enumerate(raws) if sites[k] is None]
    return sites


def parse_model(data) -> ModelSpec:
    """Check raw JSON data against the model schema, judge what the schema
    cannot say, collecting every fault, and build the model's family, once:
    a ``ValidationError`` of its constructor (the first zero vector, or one
    whose squared norm overflows) is reported under ``model.vectors``.  A
    model declaring ``"normalized": true`` has its total boundary weight
    checked by ``_check_normalization``."""
    decoded = _checked(data, "model")
    errors: list[str] = []
    lat, vectors = data["lattice"], data["vectors"]
    mode = vectors["mode"]
    d, d_I = int(data["fiber_dim"]), int(data["index_size"])
    kind, fault = NEEDS.get(mode, (lat["kind"], ""))
    if lat["kind"] != kind:
        _refuse("model", [f"model: {fault}"])
    if kind == "zd":
        geometry = lattice.Zd(int(lat["nu"]))
    else:
        sites = _sites(lat["sites"], lattice.Sites, "model.lattice.sites[{}]", errors)
        if not errors and len(set(sites)) != len(sites):
            errors.append("model.lattice.sites: duplicate site names")
        _refuse("model", errors)
        geometry = lattice.Sites(sites)
    matrix = functools.partial(_matrix, decoded, "model", errors)
    reference = certificate = None

    if mode == "explicit":
        entries = vectors["by_site"]
        at = "model.vectors.by_site[{}].site"
        by_site = {}
        for k, site in enumerate(_sites([e["site"] for e in entries], lattice.Sites, at, errors)):
            if site is None:
                continue
            if site in by_site:
                errors.append(f"{at.format(k)}: second entry for site {site!r}")
            elif site not in geometry.site_set:
                errors.append(f"{at.format(k)}: {site!r} is not a declared site")
            by_site[site] = matrix(("vectors", "by_site", k, "vectors"), (d_I, d), f" at site {site!r}")
        if not errors:
            missing = [s for s in geometry.sites if s not in by_site]
            if missing:
                errors.append(f"model.vectors.by_site: no vectors for sites {missing!r}")
        # one table in the declared site order
        build = lambda: FiberFamily.explicit({s: by_site[s] for s in geometry.sites})

    elif mode == "homogeneous":
        reference = matrix(("vectors", "reference"), (d_I, d))
        build = functools.partial(FiberFamily.homogeneous, reference, geometry)

    elif mode == "generators":
        if d != d_I:
            errors.append(f"model: generator models need fiber_dim == index_size, got {d} != {d_I}")
        records = vectors["sites"]
        columns = decoded.get(("vectors", "sites"))
        if columns is None:  # a table the schema check walked, read record by record
            columns = (
                None,
                [np.asarray(rec["D_H"], dtype=float) for rec in records],
                *([matrix(("vectors", "sites", k, key)) for k in range(len(records))] for key in ("U", "W")),
            )
        if columns[0] is None or columns[0].shape[1] != geometry.nu:
            raws = [rec["site"] for rec in records]
            columns = (_sites(raws, geometry, "model.vectors.sites[{}].site", errors), *columns[1:])

        def build():
            nonlocal certificate
            gen = GeneratorSpec(*columns, tail_radius=int(vectors["tail"]["beyond_radius"]), nu=geometry.nu, d=d)
            certificate = gen.summability_certificate()
            return build_from_generators(gen)

    else:  # perturbed
        dirs = matrix(("vectors", "directions"), (d_I, d))
        base = matrix(("vectors", "base"), (d,))
        build = functools.partial(
            decaying_perturbation_family,
            nu=geometry.nu,
            epsilon0=float(vectors.get("epsilon0", 6e-7)),
            decay=float(vectors.get("decay", 0.78)),
            near_amplitude=vectors.get("near_amplitude"),
            near_radius=int(vectors.get("near_radius", 3)),
            base=base,
            directions=dirs,
        )

    if not errors:
        try:
            family = build()
        except ValidationError as exc:
            errors.append(f"model.vectors: {exc}")
    _refuse("model", errors)
    if data.get("normalized", False):
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


def _generator_columns(records: list) -> tuple | None:
    """A generator site table as the columns of ``GeneratorSpec`` (sites,
    diagonals, U, W), each field converted by one ``_array`` call; or
    None, for the schema check to walk, for a table that ``_array``
    refuses in any field, a coordinate that is not an int literal (2.0
    included) among them.  Every table it takes is one the schema accepts."""
    try:
        sites, diag, u, w = ([rec.get(key) for rec in records] for key in ("site", "D_H", "U", "W"))
    except (AttributeError, TypeError):
        return None
    columns = _array(sites, 2, integer=True), _array(diag, 2), _pairs(u, 3), _pairs(w, 3)
    return None if any(c is None for c in columns) else columns


#: The decoder of each ``$ref`` that the schema check hands a value to
#: first: what it returns stands for the value, which is walked only when
#: the decoder refuses it.
DECODERS = {
    "defs.schema.json#/$defs/vector": functools.partial(_pairs, depth=1),
    "defs.schema.json#/$defs/matrix": functools.partial(_pairs, depth=2),
    "model.schema.json#/$defs/generator_sites": _generator_columns,
}


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


def _load(parse: Callable, path, what: str, *args):
    """``parse`` of the JSON file ``path`` holding ``what``, with the cyclic
    garbage collector paused from the decode until the decoded tree is
    dropped, and left enabled or not as it was, however the load ends.
    The tree holds no cycle, but tens of thousands of lists and dicts for
    a large model, which an unpaused collector would sweep again and again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(_read_json(path, what), *args)
    finally:
        if enabled:
            gc.enable()


def load_model(path) -> ModelSpec:
    """Read and validate a model file (``_load``)."""
    return _load(parse_model, path, "model")


# ---------------------------------------------------------------------------
# Observable files
# ---------------------------------------------------------------------------


def parse_observable(data, geometry) -> LocalObservable:
    """Check raw JSON data against the observable schema, and its region's
    sites against ``geometry``, collecting every fault; the observable's
    own checks (``LocalObservable``: one factor per site, no site twice,
    square factors of one size) report their fault under ``observable``."""
    decoded = _checked(data, "observable")
    errors: list[str] = []
    region = _sites(data["region"], geometry, "observable.region[{}]", errors)
    factors = [_matrix(decoded, "observable", errors, ("factors", k)) for k in range(len(data["factors"]))]
    _refuse("observable", errors)
    try:
        return LocalObservable(tuple(region), tuple(factors))
    except ValidationError as exc:
        _refuse("observable", [f"observable: {exc}"])


def load_observable(path, geometry) -> LocalObservable:
    """Read and validate an observable file (``_load``)."""
    return _load(parse_observable, path, "observable", geometry)


def parse_region(text: str, geometry) -> tuple:
    """Parse the --region flag: sites separated by ';' (lattice
    coordinates by ','), each named once."""
    sites = tuple(geometry.parse(part.strip()) for part in text.split(";") if part.strip())
    if not sites:
        raise ValidationError(f"region {text!r} contains no sites")
    if len(set(sites)) < len(sites):
        repeated = next(x for i, x in enumerate(sites) if x in sites[:i])
        raise ValidationError(f"region {text!r} names site {repeated!r} twice")
    return sites
