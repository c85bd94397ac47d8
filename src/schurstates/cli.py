"""Command-line front end.

Subcommands map one-to-one onto the library surface:

* ``check-kernel``  — Choi and observable-tuple positivity report;
* ``eval``          — finite-volume expectations, dense vs fast paths;
* ``limit``         — boundary matrix, limit expectation, projectivity;
* ``homog``         — overlap analysis and normalized limits;
* ``mixing-scan``   — gap table over clearances and strategies;
* ``selftest``      — seeded invariant battery.

Output is deterministic for fixed (model, flags, seed): JSON is dumped
with sorted keys, CSV uses LF line endings and 17-significant-digit
doubles.  Exit codes: 0 success, 1 validation failure (a usage error too)
or failed check, 2 convergence failure, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys

import numpy as np

from .errors import (
    ConvergenceError,
    PreconditionError,
    SchurStateError,
    ValidationError,
)
from .homogeneous import HomogeneousModel, finite_volume_normalized, generic_limit, overlaps
from .kernel import certify_cp, kernel_gram_matrix, product_kernel_gram_matrix
from .limit import (
    boundary_matrices,
    boundary_matrix,
    check_projectivity,
    limit_state_eval,
    superset_region,
    total_weight,
)
from .linalg import psd_report
from .mixing import DEFAULT_T_SEQUENCE, mixing_scan, require_lattice
from .modelfile import encode_complex, encode_matrix, load_model, load_observable, parse_region
from .sampling import random_observable, rng_from_seed
from .selftest import run_selftest
from .state import (
    DEFAULT_DENSE_CAP,
    expectation_dense,
    expectation_extended,
    expectation_schur,
)

def fmt(x: float) -> str:
    """17-significant-digit rendering used in every CSV cell."""
    return format(float(x), ".17g")


def emit_json(payload: dict, stream) -> None:
    """The payload as JSON; a NaN or infinity, which JSON cannot hold, is
    refused by ``flatten``, naming its key, before anything is written."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError:
        flatten("", payload, [])
        raise
    stream.write(text)
    stream.write("\n")


def flatten(prefix: str, value, rows: list) -> None:
    """The payload's leaves as (key, text) rows; a non-finite number is
    refused, naming its key."""
    if isinstance(value, dict):
        for k in sorted(value):
            flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"report key {prefix!r} holds the non-finite number {value}")
        rows.append((prefix, fmt(value)))
    elif isinstance(value, bool):
        rows.append((prefix, "true" if value else "false"))
    else:
        rows.append((prefix, str(value)))


def emit_csv_flat(payload: dict, stream) -> None:
    rows: list = []
    flatten("", payload, rows)
    stream.write("key,value\n")
    for key, val in rows:
        stream.write(f"{key},{val}\n")


def emit(payload: dict, fmt_name: str, stream) -> None:
    if fmt_name == "csv":
        emit_csv_flat(payload, stream)
    else:
        emit_json(payload, stream)


def _envelope(args, command: str, results: dict) -> dict:
    return {
        "command": command,
        "model": getattr(args, "model", None),
        "seed": getattr(args, "seed", None),
        "results": results,
    }


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_check_kernel(args, out) -> int:
    spec = load_model(args.model)
    family = spec.family()
    sites = spec.geometry.first(4)
    rng = rng_from_seed(args.seed, 11)
    tol = args.tol
    site_reports = []
    all_pass = True
    for x in sites:
        rep = certify_cp(family, x, tol)
        gram_eigs = {}
        gram_ok = True
        for n in range(1, 5):
            bs = [random_observable(rng, family.d) for _ in range(n)]
            gram = psd_report(kernel_gram_matrix(family, x, bs), tol)
            gram_eigs[str(n)] = gram.min_eigenvalue
            gram_ok = gram_ok and gram.is_psd
        all_pass = all_pass and rep.is_psd and gram_ok
        site_reports.append(
            {
                "site": str(x),
                "choi_min_eigenvalue": rep.min_eigenvalue,
                "cp_pass": rep.is_psd,
                "tuple_gram_min_eigenvalues": gram_eigs,
                "tuple_gram_pass": gram_ok,
            }
        )
    product_reports = []
    for count in (2, 3):
        if len(sites) < count:
            continue
        group = sites[:count]
        tuples = [
            tuple(random_observable(rng, family.d) for _ in group) for _ in range(3)
        ]
        prod = psd_report(product_kernel_gram_matrix(family, group, tuples), tol)
        all_pass = all_pass and prod.is_psd
        product_reports.append(
            {
                "sites": [str(s) for s in group],
                "min_eigenvalue": prod.min_eigenvalue,
                "pass": prod.is_psd,
            }
        )
    emit(
        _envelope(
            args,
            "check-kernel",
            {
                "sites": site_reports,
                "products": product_reports,
                "pass": all_pass,
            },
        ),
        args.format,
        out,
    )
    return 0 if all_pass else 1


def cmd_eval(args, out) -> int:
    spec = load_model(args.model)
    family = spec.family()
    obs = load_observable(args.observable, spec.geometry)
    region = parse_region(args.region, spec.geometry) if args.region else obs.region
    fast = expectation_schur(family, obs)
    extended = expectation_extended(family, region, obs)
    results = {
        "observable_region": [str(s) for s in obs.region],
        "region": [str(s) for s in region],
        "schur": encode_complex(fast),
        "extended": encode_complex(extended),
    }
    if len(region) <= DEFAULT_DENSE_CAP:
        dense = expectation_dense(family, region, obs)
        dense_small = expectation_dense(family, obs.region, obs)
        results["dense"] = encode_complex(dense)
        results["schur_vs_dense"] = abs(fast - dense_small)
        results["extended_vs_dense"] = abs(extended - dense)
    emit(_envelope(args, "eval", results), args.format, out)
    return 0


def cmd_limit(args, out) -> int:
    """The observable's boundary matrix and limit value, the total weight
    Z and the normalized value psi = value / Z, and with
    ``--check-projectivity`` the projectivity gap on the ``--region``
    superset.  ``value``, ``boundary`` and the projectivity gap are those
    of the unnormalized functional.  The superset is read and checked to
    hold every observable site first; then one walk forms the boundary
    matrices of the observable region, the superset and the empty region
    (Z's) side by side, and ``check_projectivity`` reads them from the
    cache.  A faulty superset is reported without a walk of it, after the
    observable region's own walk, whose faults come first."""
    spec = load_model(args.model)
    family = spec.family()
    obs = load_observable(args.observable, spec.geometry)
    regions = [obs.region]
    if args.check_projectivity:
        try:
            if not args.region:
                raise ValidationError(
                    "--check-projectivity needs --region with a superset of the "
                    "observable region"
                )
            regions.append(superset_region(parse_region(args.region, spec.geometry), obs))
        except SchurStateError:
            boundary_matrix(family, obs.region, tail_tol=args.tail_tol)
            raise
    beta, *_, empty = boundary_matrices(family, regions + [()], tail_tol=args.tail_tol)
    value = limit_state_eval(family, obs, tail_tol=args.tail_tol)
    z = total_weight(empty)
    results = {
        "observable_region": [str(s) for s in obs.region],
        "boundary": encode_matrix(beta.matrix),
        "tail_bound": beta.tail_bound,
        "sites_consumed": beta.sites_consumed,
        "rigorous": beta.rigorous,
        "value": encode_complex(value),
        "Z": z,
        "psi": encode_complex(value / z),
    }
    if spec.summability_certificate is not None:
        results["summability_certificate"] = spec.summability_certificate
    if args.check_projectivity:
        rep = check_projectivity(
            family, regions[1], obs, tol=args.tol, tail_tol=args.tail_tol
        )
        results["projectivity"] = {
            "region": [str(s) for s in rep.region],
            "gap": rep.gap,
            "tol": rep.tol,
            "pass": rep.passed,
        }
        emit(_envelope(args, "limit", results), args.format, out)
        return 0 if rep.passed else 1
    emit(_envelope(args, "limit", results), args.format, out)
    return 0


def cmd_homog(args, out) -> int:
    """The overlap analysis of a homogeneous model, every verdict from its
    one exact ``dominance`` reading, and with ``--observable`` its
    normalized limit as ``generic_limit``, refused (exit 3) where no
    limit exists."""
    spec = load_model(args.model)
    if spec.reference is None:
        raise PreconditionError(
            f"the homog command needs a homogeneous model, got mode {spec.mode!r}"
        )
    model = HomogeneousModel(spec.reference)
    ov = overlaps(model)
    dom = model.dominance
    results = {
        "beta": encode_matrix(ov.matrix),
        "beta_max": ov.beta_max,
        "argmax": list(ov.argmax),
        "generic": not dom.parallel,
        "constant_overlap": bool(dom.pattern.all()),
    }
    if args.observable:
        obs = load_observable(args.observable, spec.geometry)
        if args.total_sites is not None:
            results["finite_normalized"] = encode_complex(
                finite_volume_normalized(model, args.total_sites, obs)
            )
        results["generic_limit"] = encode_complex(generic_limit(model, obs))
    emit(_envelope(args, "homog", results), args.format, out)
    return 0


def cmd_mixing_scan(args, out) -> int:
    spec = load_model(args.model)
    family = spec.family()
    require_lattice(family)
    obs_a = load_observable(args.observable, spec.geometry)
    obs_b = load_observable(args.observable_far, spec.geometry)
    t_list = [t for t in DEFAULT_T_SEQUENCE if t <= args.tmax]
    if not t_list:
        raise ValidationError(f"--tmax {args.tmax} leaves no clearances to scan")
    strategies = tuple(args.strategies.split(","))
    result = mixing_scan(
        family,
        obs_a,
        obs_b,
        t_list=t_list,
        strategies=strategies,
        seed=args.seed,
        tail_tol=args.tail_tol,
    )
    if args.format == "csv":
        out.write("t,strategy,mixing_gap,alpha_mixing_gap\n")
        for row in result.rows:
            out.write(
                f"{row.t},{row.strategy},{fmt(row.mixing_gap)},"
                f"{fmt(row.alpha_mixing_gap)}\n"
            )
    else:
        emit_json(
            _envelope(
                args,
                "mixing-scan",
                {
                    "rows": [
                        {
                            "t": row.t,
                            "strategy": row.strategy,
                            "mixing_gap": row.mixing_gap,
                            "alpha_mixing_gap": (
                                None
                                if np.isnan(row.alpha_mixing_gap)
                                else row.alpha_mixing_gap
                            ),
                        }
                        for row in result.rows
                    ],
                    "alpha_independent": result.alpha_independent,
                    "decrease_fraction": {
                        k: (None if np.isnan(v) else v)
                        for k, v in result.decrease_fraction.items()
                    },
                },
            ),
            out,
        )
    return 0


def cmd_selftest(args, out) -> int:
    report = run_selftest(seed=args.seed)
    emit(_envelope(args, "selftest", report), args.format, out)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser this process builds; ``build_parser`` hands out copies."""
    parser = argparse.ArgumentParser(
        prog="schurstates",
        description=(
            "Superposition states from per-site fiber vectors: finite-volume "
            "evaluation, infinite-volume limits and mixing diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model file (JSON)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float, default=1e-10, help="positivity tolerance")
        p.add_argument(
            "--tail-tol", dest="tail_tol", type=float, default=1e-12,
            help="tail product stopping tolerance",
        )
        p.add_argument("--seed", type=int, default=0)
        # accepted for compatibility and ignored: evaluation is sequential,
        # and reports are byte-identical whatever the value
        p.add_argument(
            "--threads", type=int, default=1,
            help="worker hint; evaluation is deterministic regardless",
        )
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("check-kernel", help="Choi and observable-tuple positivity report")
    common(p)
    p.set_defaults(func=cmd_check_kernel)

    p = sub.add_parser("eval", help="finite-volume expectations, dense vs fast paths")
    common(p)
    p.add_argument("--observable", required=True, help="observable file (JSON)")
    p.add_argument("--region", help="evaluation region, sites ';'-separated")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("limit", help="boundary matrix and limit expectation")
    common(p)
    p.add_argument("--observable", required=True)
    p.add_argument("--region", help="superset region for the projectivity check")
    p.add_argument(
        "--check-projectivity", action="store_true",
        help="compare the limit on --region (observable extended by identity)",
    )
    p.set_defaults(func=cmd_limit, tol=1e-9)

    p = sub.add_parser("homog", help="overlap analysis and normalized limits")
    common(p)
    p.add_argument("--observable")
    p.add_argument(
        "--total-sites", dest="total_sites", type=int,
        help="finite volume size for the normalized expectation",
    )
    p.set_defaults(func=cmd_homog)

    p = sub.add_parser("mixing-scan", help="gap table over clearances")
    common(p)
    p.add_argument("--observable", required=True, help="near-region observable")
    p.add_argument(
        "--observable-far", dest="observable_far", required=True,
        help="observable transported far away",
    )
    p.add_argument("--tmax", type=int, default=40)
    p.add_argument(
        "--strategies", default="translate",
        help="comma-separated embedding strategies (translate, random)",
    )
    p.set_defaults(func=cmd_mixing_scan, tail_tol=1e-14)

    p = sub.add_parser("selftest", help="seeded invariant battery")
    common(p, model=False)
    p.set_defaults(func=cmd_selftest)

    return parser


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: a shallow copy of the one built per
    process, so an attribute set on what one call returns (a wrapped
    ``parse_args``, say) stays off every later call's parser."""
    return copy.copy(_parser())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's exit: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        for flag, value in (("--tol", args.tol), ("--tail-tol", args.tail_tol)):
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{flag} must be a finite number >= 0, got {value}")
        if args.seed < 0:
            raise ValidationError("--seed must be an integer >= 0")
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                return args.func(args, fh)
        return args.func(args, sys.stdout)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        if exc.last_partial is not None:
            print(f"last partial result:\n{exc.last_partial}", file=sys.stderr)
        if exc.tail_estimate is not None:
            print(f"tail estimate: {exc.tail_estimate}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except SchurStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
