"""The input file formats, stated once: the shipped schemas and their checker.

``model.schema.json``, ``observable.schema.json`` and ``defs.schema.json``
(JSON Schema 2020-12, in this package's ``schemas/``) are the one
statement of the model and observable formats.  ``Checker`` knows the
validation keywords of ``KEYWORDS`` and, when it loads a schema, refuses
any other (``ANNOTATIONS`` aside) and any ``oneOf`` whose branches are not
objects named by the ``const`` of one required property (a lattice's
``kind``, the vectors' ``mode``), so that a fault names a field of the
branch a file chose.  It reports every fault as ``<JSON path>: <fault>``,
as in ``model.vectors.decay: must be < 1, got 1.5``.  A number is one a
finite double holds: not NaN or Infinity, which Python's JSON reader
accepts, nor an integer past the float range; 2.0 is an integer, and
``true`` neither.  A ``$ref`` with a decoder is handed to it first, and
walked only when the decoder refuses it.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from pathlib import Path
from typing import Callable

#: The validation keywords the checker knows.
KEYWORDS = frozenset({
    "type", "required", "properties", "items", "prefixItems", "minItems", "maxItems",
    "const", "minimum", "exclusiveMinimum", "exclusiveMaximum", "oneOf", "$ref",
})

#: Keywords that a schema may carry and that validate nothing.
ANNOTATIONS = frozenset({"$schema", "$defs", "title", "description"})

#: The input schemas, shipped in this package's ``schemas/`` directory.
INPUTS = ("defs.schema.json", "model.schema.json", "observable.schema.json")

#: keyword -> (test, sign) of each bound on a number, and on an array's length.
BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
          "exclusiveMaximum": (operator.lt, "<")}
LENGTHS = {"minItems": (operator.ge, ">="), "maxItems": (operator.le, "<=")}

#: The Python types of JSON numbers, and the largest finite double.
NUMBERS = (int, float)
FLOAT_MAX = sys.float_info.max

#: Each JSON type's test, in the order that names a value's type.
TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: type(v) is bool,
    "number": lambda v: type(v) in NUMBERS and abs(v) <= FLOAT_MAX,
    "integer": lambda v: (type(v) is int or type(v) is float and v.is_integer()) and abs(v) <= FLOAT_MAX,
    "string": lambda v: type(v) is str,
    "array": lambda v: type(v) is list,
    "object": lambda v: type(v) is dict,
}


def type_name(value) -> str:
    """The JSON type of ``value``, or the value itself for a number that
    no finite double holds."""
    return next((name for name, test in TYPES.items() if test(value)), repr(value))


def where(root: str, path: tuple) -> str:
    """A JSON path as messages give it, as in ``model.vectors.sites[3].U``."""
    return root + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)


def _either(names: list) -> str:
    """``a``, ``a or b``, ``a, b or c``."""
    return " or ".join([", ".join(names[:-1]), names[-1]] if len(names) > 1 else names)


def _equal(value, const) -> bool:
    """JSON equality as ``const`` judges it: ``true`` is not 1."""
    return (type(value) is bool) == (type(const) is bool) and value == const


class _Run:
    """One check: its decoders, faults and decoded values."""

    __slots__ = ("root", "decoders", "faults", "decoded")

    def __init__(self, root: str, decoders: dict):
        self.root, self.decoders, self.faults, self.decoded = root, decoders, [], {}

    def fault(self, path: tuple, message: str) -> None:
        self.faults.append(f"{where(self.root, path)}: {message}")


class Checker:
    """Schema documents by file name, each node compiled, when they are
    loaded, into one function check(value, path, run)."""

    def __init__(self, documents: dict):
        self.defs = {
            f"{name}#/$defs/{key}": (name, node)
            for name, document in documents.items()
            for key, node in document.get("$defs", {}).items()
        }
        self.compiled = {ref: self._compile(node, name, ref) for ref, (name, node) in self.defs.items()}
        self.roots = {name: self._compile(doc, name, f"{name}#") for name, doc in documents.items()}

    def check(self, value, name: str, decoders: dict) -> tuple[list, dict]:
        """Every fault of ``value`` against document ``name``, its paths from
        the document's stem (``model`` for ``model.schema.json``), and what
        ``decoders`` (by the ``$ref`` each serves, returning None to refuse
        a value) decoded, by path (a tuple of keys and indices)."""
        run = _Run(name.split(".")[0], decoders)
        self.roots[name](value, (), run)
        return run.faults, run.decoded

    def _compile(self, node: dict, name: str, at: str) -> Callable:
        """``node`` of document ``name``, at ``at``, as a function that
        reports its value's faults to ``run``."""
        unknown = sorted(set(node) - KEYWORDS - ANNOTATIONS - ({"$defs"} if at == f"{name}#" else set()))
        if unknown:
            raise ValueError(f"{at}: unsupported schema keyword {unknown[0]!r}")
        sub = lambda child, step: self._compile(child, name, f"{at}/{step}")
        ref = node.get("$ref")
        if ref is not None:
            ref = (name if ref.startswith("#") else "") + ref
            if ref not in self.defs:
                raise ValueError(f"{at}: unresolved $ref {ref!r}")
        names = [node["type"]] if isinstance(node.get("type"), str) else node.get("type", [])
        test = TYPES[names[0]] if len(names) == 1 else (lambda v: any(TYPES[t](v) for t in names))
        has_const, const = "const" in node, node.get("const")
        one_of = self._one_of(node["oneOf"], name, f"{at}/oneOf") if "oneOf" in node else None
        required = node.get("required", ())
        properties = [(key, sub(child, f"properties/{key}")) for key, child in node.get("properties", {}).items()]
        prefix = [sub(child, f"prefixItems/{k}") for k, child in enumerate(node.get("prefixItems", ()))]
        items = sub(node["items"], "items") if "items" in node else None
        bounds = [(node[key], *BOUNDS[key]) for key in BOUNDS if key in node]
        lengths = [(node[key], *LENGTHS[key]) for key in LENGTHS if key in node]
        ref_only = not set(node) & KEYWORDS - {"$ref"}

        def check(value, path, run):
            if ref is not None:
                decode = run.decoders.get(ref)
                got = None if decode is None else decode(value)
                if got is None:
                    self.compiled[ref](value, path, run)
                else:
                    run.decoded[path] = got
                if ref_only:
                    return
            if names and not test(value):
                return run.fault(path, f"expected {_either(names)}, got {type_name(value)}")
            if has_const and not _equal(value, const):
                run.fault(path, f"expected {const!r}, got {value!r}")
            if one_of is not None:
                one_of(value, path, run)
            kind = type(value)
            if kind is dict:
                for key in required:
                    if key not in value:
                        run.fault(path, f"missing required field {key!r}")
                for key, check_property in properties:
                    if key in value:
                        check_property(value[key], path + (key,), run)
            elif kind is list:
                for k, check_item in enumerate(prefix[: len(value)] if prefix else ()):
                    check_item(value[k], path + (k,), run)
                if items is not None:
                    for k in range(len(prefix), len(value)):
                        items(value[k], path + (k,), run)
                for limit, holds, sign in lengths:
                    if not holds(len(value), limit):
                        run.fault(path, f"length must be {sign} {limit}, got {len(value)}")
            elif bounds and kind in NUMBERS:
                for limit, holds, sign in bounds:
                    if not holds(value, limit):
                        run.fault(path, f"must be {sign} {limit}, got {value!r}")

        return check

    def _one_of(self, nodes: list, name: str, at: str) -> Callable:
        """The check of a ``oneOf`` of objects told apart by the const of
        one property that each requires: the branch that a value names."""
        keys = [{k for k in n.get("required", ()) if "const" in n.get("properties", {}).get(k, {})} for n in nodes]
        key = min(set.intersection(*keys) if keys else (), default=None)
        consts = [node["properties"][key]["const"] for node in nodes] if key else []
        if not all(node.get("type") == "object" for node in nodes) or key is None or len(set(consts)) < len(nodes):
            raise ValueError(f"{at}: branches are not objects told apart by a required const")
        branches = [(const, self._compile(node, name, f"{at}/{k}")) for k, (const, node) in enumerate(zip(consts, nodes))]
        expected = ", ".join(map(repr, consts))

        def check(value, path, run):
            if type(value) is not dict:
                return run.fault(path, f"expected object, got {type_name(value)}")
            if key not in value:
                return run.fault(path, f"missing required field {key!r}")
            branch = next((branch for const, branch in branches if _equal(value[key], const)), None)
            if branch is None:
                return run.fault(path + (key,), f"expected one of {expected}, got {value[key]!r}")
            branch(value, path, run)

        return check


@functools.lru_cache(maxsize=None)
def checker() -> Checker:
    """The checker of the shipped input schemas, loaded once."""
    directory = Path(__file__).with_name("schemas")
    return Checker({name: json.loads((directory / name).read_text()) for name in INPUTS})
