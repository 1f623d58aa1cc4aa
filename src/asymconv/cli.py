"""Command-line surface: type combination, case constants, expansion
convolution, batch verification reports, Bernstein root bookkeeping and
the monomial demo.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 parse error, 3 domain error.  All JSON output goes through the
canonical serializer (sorted keys, fixed float formatting), so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .convolution_engine import (
    CaseTag,
    bernstein_combine,
    convolve_expansions,
    convolve_terms,
)
from .expansion_algebra import (
    Chirality,
    Expansion,
    ExponentSetType,
    canonical_json,
    combine_types,
    kernel_term,
)
from .fiber_demo import MonomialGerm, thom_sebastiani_demo
from .quadrature_oracle import (
    IllConditioned,
    KernelSpec,
    ToleranceNotMet,
    VerificationReport,
    verify_constant,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

#: Accepts plain negatives, decimals and fractions like -1/2 as option
#: values; argparse's stock matcher only knows the first two.
_NEGATIVE_TOKEN = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

#: How tight the measured normalization spread must be to report the
#: calibration as consistent.
_RHO_CONSISTENCY = 1e-3


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    command: str
    inputs: Tuple[str, ...] = ()
    output: Optional[str] = None
    tolerance: float = 1e-2
    jobs: int = 1

    def __post_init__(self) -> None:
        if not (self.tolerance > 0.0):
            raise ValueError("tolerance must be > 0")
        if self.jobs < 1:
            raise ValueError("parallelism must be >= 1")


def default_tolerance() -> float:
    """Verification tolerance: ASYMCONV_TOL when set, else 1e-2."""
    raw = os.environ.get("ASYMCONV_TOL")
    if raw is None:
        return 1e-2
    try:
        return float(raw)
    except ValueError:
        raise ValueError("ASYMCONV_TOL must parse as a float, got %r" % raw)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_failure(path: str, exc: Exception) -> int:
    if isinstance(exc, json.JSONDecodeError):
        sys.stderr.write(
            "parse error in %s at line %d column %d: %s\n"
            % (path, exc.lineno, exc.colno, exc.msg)
        )
    else:
        sys.stderr.write("cannot read %s: %s\n" % (path, exc))
    return EXIT_PARSE


def _domain_failure(message: str) -> int:
    sys.stderr.write("domain error: %s\n" % message)
    return EXIT_DOMAIN


# ---------------------------------------------------------------------------
# types


def _load_type(path: str):
    """Returns (exit_code, type); exit_code 0 means success."""
    try:
        raw = _read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return _parse_failure(path, exc), None
    try:
        entries = {Fraction(k): v for k, v in raw["entries"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        sys.stderr.write(
            "parse error in %s: not an exponent-type document (%s)\n" % (path, exc)
        )
        return EXIT_PARSE, None
    try:
        return EXIT_OK, ExponentSetType(entries=entries)
    except ValueError as exc:
        return _domain_failure("%s: %s" % (path, exc)), None


def cmd_types(config: RunConfig) -> int:
    code, left = _load_type(config.inputs[0])
    if code != EXIT_OK:
        return code
    code, right = _load_type(config.inputs[1])
    if code != EXIT_OK:
        return code
    combined = combine_types(left, right)
    sys.stdout.write(canonical_json(combined.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# constant


def cmd_constant(args: argparse.Namespace) -> int:
    try:
        for flag, x in (("a", args.a), ("b", args.b)):
            if x <= -1:
                raise ValueError("precondition violated: %s > -1 (got %s)" % (flag, x))
        first = kernel_term(args.a, args.p, Chirality.HOLO, args.j)
        second = kernel_term(args.b, args.q, Chirality(args.chirality), args.k)
        result = convolve_terms(first, second)
    except ValueError as exc:
        return _domain_failure(str(exc))
    sys.stdout.write(canonical_json(result.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# convolve


def _load_expansion(path: str):
    try:
        raw = _read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return _parse_failure(path, exc), None
    try:
        expansion = Expansion.from_json_dict(raw)
    except (KeyError, TypeError, IndexError) as exc:
        sys.stderr.write(
            "parse error in %s: not an expansion document (%s)\n" % (path, exc)
        )
        return EXIT_PARSE, None
    except ValueError as exc:
        return _domain_failure("%s: %s" % (path, exc)), None
    return EXIT_OK, expansion


def cmd_convolve(config: RunConfig) -> int:
    code, left = _load_expansion(config.inputs[0])
    if code != EXIT_OK:
        return code
    code, right = _load_expansion(config.inputs[1])
    if code != EXIT_OK:
        return code
    try:
        out = convolve_expansions(left, right)
    except ValueError as exc:
        return _domain_failure(str(exc))
    sys.stdout.write(canonical_json(out.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(config: RunConfig) -> int:
    path = config.inputs[0]
    try:
        raw = _read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return _parse_failure(path, exc)
    if not isinstance(raw, list):
        sys.stderr.write("parse error in %s: expected a JSON array of specs\n" % path)
        return EXIT_PARSE
    specs: List[KernelSpec] = []
    for index, item in enumerate(raw):
        try:
            specs.append(KernelSpec.from_json_dict(item))
        except (KeyError, TypeError, AttributeError) as exc:
            sys.stderr.write(
                "parse error in %s: spec %d is malformed (%s)\n" % (path, index, exc)
            )
            return EXIT_PARSE
        except ValueError as exc:
            return _domain_failure("spec %d: %s" % (index, exc))

    reports: List[Optional[VerificationReport]] = []
    failures: List[str] = []
    try:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(_verify_one, specs))
    except ValueError as exc:
        return _domain_failure(str(exc))
    for spec, (report, problem) in zip(specs, outcomes):
        reports.append(report)
        if problem is not None:
            failures.append("%s: %s" % (json.dumps(spec.to_json_dict()), problem))
        elif report.relative_error > config.tolerance:
            failures.append(
                "%s: relative error %.3e exceeds tolerance %.3e"
                % (
                    json.dumps(spec.to_json_dict()),
                    report.relative_error,
                    config.tolerance,
                )
            )

    done = [r for r in reports if r is not None]
    # The consistency summary concerns the one global measure
    # normalization; both-integer kernels carry their own scale constant
    # and would poison the pool.
    norms = [
        r.normalization_used
        for r in done
        if r.normalization_used is not None and r.case is not CaseTag.BOTH_INTEGER
    ]
    rho_block = None
    if norms:
        mean = sum(norms) / len(norms)
        spread = max(abs(n - mean) / abs(mean) for n in norms)
        rho_block = {
            "mean": mean,
            "max_relative_deviation": spread,
            "consistent": spread <= _RHO_CONSISTENCY,
        }

    doc = {
        "all_passed": not failures,
        "tolerance": config.tolerance,
        "failures": failures,
        "reports": [r.to_json_dict() for r in done],
        "rho_norm": rho_block,
    }
    if config.output is not None:
        with open(config.output + ".json", "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
        with open(config.output + ".csv", "w", encoding="utf-8") as fh:
            fh.write(VerificationReport.csv_header() + "\n")
            for report in done:
                fh.write(report.to_csv_row() + "\n")

    sys.stdout.write(
        "verified %d specs: %d passed, %d failed\n"
        % (len(specs), len(specs) - len(failures), len(failures))
    )
    if rho_block is not None:
        sys.stdout.write(
            "normalization: mean %.6f, max relative deviation %.3e "
            "(consistent within %g: %s)\n"
            % (
                rho_block["mean"],
                rho_block["max_relative_deviation"],
                _RHO_CONSISTENCY,
                "yes" if rho_block["consistent"] else "no",
            )
        )
    if failures:
        for line in failures:
            sys.stderr.write("FAILED %s\n" % line)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _verify_one(spec: KernelSpec):
    try:
        return verify_constant(spec), None
    except (ToleranceNotMet, IllConditioned) as exc:
        return None, "%s: %s" % (type(exc).__name__, exc)


# ---------------------------------------------------------------------------
# bernstein


def _load_roots(path: str):
    try:
        raw = _read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return _parse_failure(path, exc), None
    if not isinstance(raw, list):
        sys.stderr.write("parse error in %s: expected a JSON array of roots\n" % path)
        return EXIT_PARSE, None
    try:
        return EXIT_OK, [Fraction(item) for item in raw]
    except (ValueError, TypeError) as exc:
        sys.stderr.write("parse error in %s: bad root value (%s)\n" % (path, exc))
        return EXIT_PARSE, None


def cmd_bernstein(config: RunConfig, kappa: int) -> int:
    code, left = _load_roots(config.inputs[0])
    if code != EXIT_OK:
        return code
    code, right = _load_roots(config.inputs[1])
    if code != EXIT_OK:
        return code
    try:
        combo = bernstein_combine(left, right, kappa=kappa)
    except ValueError as exc:
        return _domain_failure(str(exc))
    doc = {
        "raw": [str(x) for x in sorted(combo.raw)],
        "canonical": [str(x) for x in sorted(combo.canonical)],
        "candidates": [str(x) for x in sorted(combo.candidates)],
    }
    sys.stdout.write(canonical_json(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args: argparse.Namespace) -> int:
    try:
        first = MonomialGerm(args.n, plateau=args.plateau, support=args.support)
        second = MonomialGerm(args.m, plateau=args.plateau, support=args.support)
    except ValueError as exc:
        return _domain_failure(str(exc))
    try:
        report = thom_sebastiani_demo(first, second)
    except ValueError as exc:
        return _domain_failure(str(exc))
    except ToleranceNotMet as exc:
        sys.stderr.write("demo quadrature did not converge: %s\n" % exc)
        return EXIT_VERIFY_FAILED
    sys.stdout.write(canonical_json(report.to_json_dict()))
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(VerificationReport.csv_header() + "\n")
            fh.write(report.to_csv_row() + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymconv",
        description="Convolution of asymptotic expansions: closed-form "
        "constants, numerical verification, end-to-end demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    types_p = sub.add_parser("types", help="combine two expansion types")
    types_p.add_argument("left")
    types_p.add_argument("right")

    const_p = sub.add_parser(
        "constant", help="case and leading constant for one kernel"
    )
    const_p._negative_number_matcher = _NEGATIVE_TOKEN
    const_p.add_argument("-a", type=Fraction, required=True, metavar="RATIONAL")
    const_p.add_argument("-b", type=Fraction, required=True, metavar="RATIONAL")
    const_p.add_argument("-p", type=int, default=0)
    const_p.add_argument("-q", type=int, default=0)
    const_p.add_argument("-j", type=int, default=0)
    const_p.add_argument("-k", type=int, default=0)
    const_p.add_argument(
        "--chirality", choices=("holo", "anti"), default="holo"
    )

    conv_p = sub.add_parser("convolve", help="convolve two expansion files")
    conv_p.add_argument("left")
    conv_p.add_argument("right")

    verify_p = sub.add_parser(
        "verify", help="batch-verify kernel specs against the oracle"
    )
    verify_p.add_argument("specs")
    verify_p.add_argument(
        "--report",
        default=None,
        metavar="BASE",
        help="write BASE.json and BASE.csv report files",
    )
    verify_p.add_argument("--tolerance", type=float, default=None)
    verify_p.add_argument("--jobs", type=int, default=1)

    bern_p = sub.add_parser(
        "bernstein", help="combine two Bernstein root sets"
    )
    bern_p.add_argument("left")
    bern_p.add_argument("right")
    bern_p.add_argument("--kappa", type=int, default=0)

    demo_p = sub.add_parser("demo", help="end-to-end demonstrations")
    demo_sub = demo_p.add_subparsers(dest="demo_kind", required=True)
    mono_p = demo_sub.add_parser(
        "monomial", help="convolve fiber integrals of x^N and y^M"
    )
    mono_p.add_argument("--n", type=int, required=True)
    mono_p.add_argument("--m", type=int, required=True)
    mono_p.add_argument("--plateau", type=float, default=0.9)
    mono_p.add_argument("--support", type=float, default=1.0)
    mono_p.add_argument("--csv", default=None, metavar="PATH")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tolerance = getattr(args, "tolerance", None)
        if tolerance is None:
            tolerance = default_tolerance()
        config = RunConfig(
            command=args.command,
            inputs=tuple(
                getattr(args, name)
                for name in ("left", "right", "specs")
                if getattr(args, name, None) is not None
            ),
            output=getattr(args, "report", None),
            tolerance=tolerance,
            jobs=getattr(args, "jobs", 1),
        )
    except ValueError as exc:
        return _domain_failure(str(exc))

    if args.command == "types":
        return cmd_types(config)
    if args.command == "constant":
        return cmd_constant(args)
    if args.command == "convolve":
        return cmd_convolve(config)
    if args.command == "verify":
        return cmd_verify(config)
    if args.command == "bernstein":
        return cmd_bernstein(config, args.kappa)
    if args.command == "demo":
        return cmd_demo(args)
    raise AssertionError("unreachable command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
