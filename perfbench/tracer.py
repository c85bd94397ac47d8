"""Per-layer self time and counts, recorded by wrapping the public
functions of ``schurstates`` from outside the package.

Wrappers are installed by rebinding module attributes, including the
copies that ``from ... import`` made in other modules (for example
``mixing.limit_state_eval`` and ``cli.mixing_scan``), and removed again
by ``uninstall``.  A wrapped call's self time is its duration minus the
time spent in wrapped calls it made.  Calls that happen about 1e5 times
per operation are only aggregated; every other call made during the
first traced operation is also kept as a span (name, start, end, parent
span) for ``spans_jsonl``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

#: (module, attribute, time metric, call counter or None, leaf).  Several
#: attributes may share a time metric; their self times add up.
TARGETS = (
    ("lattice", "shell", "lattice.shell_s", "lattice.shell_calls", False),
    ("kernel", "FiberFamily.gram", "kernel.gram_s", "kernel.gram_calls", True),
    ("kernel", "FiberFamily.vectors", "kernel.vectors_s", None, True),
    ("kernel", "certify_cp", "kernel.certify_cp_s", None, False),
    ("kernel", "kernel_gram_matrix", "kernel.kernel_gram_matrix_s", None, False),
    ("kernel", "product_kernel_gram_matrix", "kernel.product_kernel_gram_matrix_s", None, False),
    ("kernel", "product_kernel_matrix", "kernel.product_kernel_matrix_s", None, False),
    ("linalg", "hermitian_function", "linalg.hermitian_function_s", "linalg.hermitian_function_calls", False),
    ("linalg", "psd_report", "linalg.psd_report_s", None, False),
    ("state", "expectation_dense", "state.expectation_dense_s", None, False),
    ("state", "expectation_schur", "state.expectation_schur_s", None, False),
    ("state", "expectation_extended", "state.expectation_extended_s", None, False),
    ("limit", "boundary_matrix", "limit.boundary_s", "limit.boundary_calls", False),
    # the walk behind a boundary_matrix cache miss; its time stays in boundary_s
    ("limit", "_boundary_walk", "limit.boundary_s", "limit.walks", False),
    ("limit", "build_from_generators", "limit.build_from_generators_s", None, False),
    ("limit", "limit_state_eval", "limit.limit_state_eval_s", None, False),
    ("limit", "check_projectivity", "limit.check_projectivity_s", None, False),
    ("mixing", "decaying_perturbation_family", "mixing.family_build_s", "mixing.family_builds", False),
    ("mixing", "mixing_scan", "mixing.mixing_scan_s", None, False),
    ("mixing", "mixing_gap", "mixing.mixing_gap_s", None, False),
    ("mixing", "alpha_limit", "mixing.alpha_limit_s", None, False),
    ("modelfile", "load_model", "modelfile.load_model_s", None, False),
    ("modelfile", "load_observable", "modelfile.load_observable_s", None, False),
    ("modelfile", "ModelSpec.family", "modelfile.family_s", None, False),
    ("homogeneous", "overlaps", "homogeneous.overlaps_s", None, False),
    ("homogeneous", "finite_volume_normalized", "homogeneous.finite_volume_normalized_s", None, False),
    ("homogeneous", "generic_limit", "homogeneous.generic_limit_s", None, False),
    ("selftest", "run_selftest", "selftest.run_selftest_s", None, False),
    ("cli", "emit", "cli.emit_s", None, False),
    ("cli", "emit_json", "cli.emit_s", None, False),
    ("cli", "emit_csv_flat", "cli.emit_s", None, False),
    ("cli", "fmt", "cli.emit_s", None, True),
)

#: Counts recorded by result hooks and by wrappers that TARGETS does not list.
EXTRA_COUNTS = (
    "lattice.sites_listed",
    "kernel.vectors_sites",
    "limit.sites_consumed",
    "limit.tail_remaining_calls",
)

#: Times recorded by wrappers that TARGETS does not list.
EXTRA_TIMES = ("limit.tail_remaining_s", "cli.parse_s")


class Tracer:
    """Installs wrappers into the loaded ``schurstates`` modules."""

    def __init__(self):
        self.times: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.spans: list = []
        self.record_spans = True
        self._stack: list = []  # [child seconds, span index or None]
        self._undo: list = []   # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def _timed(self, fn, time_metric, call_counter=None, leaf=False, on_result=None):
        stack = self._stack
        times = self.times
        counts = self.counts
        spans = self.spans
        clock = time.perf_counter
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if not leaf and self.record_spans:
                frame[1] = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                times[time_metric] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] is not None:
                    spans[frame[1]][1:3] = [t0, t1]
            if call_counter is not None:
                counts[call_counter] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _family_init(self, init):
        """Count vector builds at the provider and time tail certificates."""
        signature = inspect.signature(init)
        counts = self.counts
        timed = self._timed

        def counting(provider):
            def build(site):
                counts["kernel.vectors_sites"] += 1
                return provider(site)

            return build

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["provider"] = counting(bound.arguments["provider"])
            tail = bound.arguments.get("tail")
            if tail is not None and dataclasses.is_dataclass(tail) and hasattr(tail, "remaining"):
                bound.arguments["tail"] = dataclasses.replace(
                    tail,
                    remaining=timed(
                        tail.remaining, "limit.tail_remaining_s", "limit.tail_remaining_calls"
                    ),
                )
            return init(*bound.args, **bound.kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace ``original`` wherever a schurstates module holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "schurstates" or mod_name.startswith("schurstates.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import schurstates.cli  # noqa: F401  (loads every module wrapped below)

        packages = {name: sys.modules[f"schurstates.{name}"] for name in
                    {t[0] for t in TARGETS}}
        for module, attr, time_metric, counter, leaf in TARGETS:
            owner = packages[module]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            on_result = None
            if attr == "shell":
                on_result = self._count_sites_listed
            elif attr == "_boundary_walk":
                on_result = self._count_sites_consumed
            wrapper = self._timed(original, time_metric, counter, leaf, on_result)
            if path:
                self._undo.append((owner, last, original))
                setattr(owner, last, wrapper)
            else:
                self._rebind(original, wrapper)
        family = packages["kernel"].FiberFamily
        self._undo.append((family, "__init__", family.__init__))
        family.__init__ = self._family_init(family.__init__)
        cli = packages["cli"]
        self._undo.append((cli, "build_parser", cli.build_parser))
        cli.build_parser = self._timed_parser(cli.build_parser)

    def _timed_parser(self, build_parser):
        """``cli.parse_s`` covers building the parser and ``parse_args``."""
        timed = self._timed

        @functools.wraps(build_parser)
        def build():
            parser = build_parser()
            parser.parse_args = timed(parser.parse_args, "cli.parse_s")
            return parser

        return timed(build, "cli.parse_s")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _count_sites_listed(self, sites) -> None:
        self.counts["lattice.sites_listed"] += len(sites)

    def _count_sites_consumed(self, boundary) -> None:
        self.counts["limit.sites_consumed"] += boundary.sites_consumed

    # -- results --------------------------------------------------------

    def per_op(self, ops: int) -> dict:
        """Every time and count metric divided by the number of operations."""
        names = {t[2] for t in TARGETS} | set(EXTRA_TIMES)
        counters = {t[3] for t in TARGETS if t[3]} | set(EXTRA_COUNTS)
        out = {name: (self.times.get(name, 0.0) / ops, "s") for name in names}
        out.update({name: (self.counts.get(name, 0) / ops, "count") for name in counters})
        return out

    def spans_jsonl(self) -> str:
        return "".join(
            json.dumps({"name": n, "start": s, "end": e, "parent": p}) + "\n"
            for n, s, e, p in self.spans
        )
