"""Command-line surface: type combination, case constants, expansion
convolution, batch verification reports, Bernstein root bookkeeping and
the monomial demo.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 parse error, 3 domain error.  A document that cannot be read, is not
JSON, or has the wrong shape (a missing key, a JSON type where another
is expected, such as a float where a rational string belongs) is a parse
error, and so is a report that cannot be written; a well-formed value
the mathematics refuses (including a string that is not a rational, such
as "1/0", and an exponent beyond float range) is a domain error.  All
JSON output goes through the canonical serializer (sorted keys, fixed
float formatting), so identical inputs produce byte-identical output.

Names of the oracle and the demo are read as ``asymconv.<name>``, which
imports them, and numpy, only in ``verify`` and ``demo``; the other four
commands start on the standard library alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from typing import Callable, List, Optional, Sequence

import asymconv

from .convolution_engine import (
    bernstein_combine,
    convolve_expansions,
    convolve_terms,
)
from .expansion_algebra import (
    Chirality,
    Expansion,
    ExponentSetType,
    _float,
    _format_float,
    as_fraction,
    canonical_json,
    combine_types,
    in_slice,
    kernel_term,
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

#: What a document builder raises when the JSON has the wrong shape.
_SHAPE_ERRORS = (KeyError, TypeError, AttributeError, IndexError)


class _Exit(Exception):
    """_Exit(code, message) ends a command with that exit code and
    writes the message to stderr."""


class _RepeatedKey(ValueError):
    """A JSON object names one key twice."""


def _unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook: the object as a dict, or _RepeatedKey
    where json's own dict would keep the last of two equal keys."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise _RepeatedKey(next(key for key in keys if keys.count(key) > 1))
    return doc


def _load(path: str, build: Callable, what: str):
    """build(document) for the JSON document at path.

    An unreadable or malformed file, an object with a repeated key and a
    shape error from build are parse errors (exit 2); a ValueError from
    build is a domain error (exit 3), raised with the path in front of
    its message.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise _Exit(
            EXIT_PARSE,
            "parse error in %s at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg),
        )
    except _RepeatedKey as exc:
        key = json.dumps(exc.args[0])
        raise _Exit(EXIT_PARSE, "parse error in %s: repeated key %s" % (path, key))
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_PARSE, "cannot read %s: %s" % (path, exc))
    try:
        return build(raw)
    except _SHAPE_ERRORS as exc:
        raise _Exit(EXIT_PARSE, "parse error in %s: not %s (%s)" % (path, what, exc))
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from exc


def _each(build: Callable, label: str) -> Callable:
    """A builder for a JSON array whose items go through build; a failing
    item is named as "<label> <index>" in the error it raises."""

    def build_all(raw) -> list:
        if not isinstance(raw, list):
            raise TypeError("expected a JSON array")
        out = []
        for index, item in enumerate(raw):
            try:
                out.append(build(item))
            except _SHAPE_ERRORS as exc:
                raise TypeError("%s %d: %s" % (label, index, exc)) from exc
            except ValueError as exc:
                raise ValueError("%s %d: %s" % (label, index, exc)) from exc
        return out

    return build_all


def _write(path: str, text: str, mode: str = "w") -> None:
    """Write text to path (mode "a", no text: only check it); exit 2 if unwritable."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Exit(EXIT_PARSE, "cannot write %s: %s" % (path, exc))


@contextlib.contextmanager
def _check_writable(paths: Sequence[str]):
    """Exit 2 before any work if a path is unwritable.  The files this
    check created are removed again when the check or the work under it
    fails; a file that was there keeps its bytes."""
    created = []
    try:
        for path in paths:
            new = not os.path.lexists(path)
            _write(path, "", "a")
            if new:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def _write_csv(path: str, reports: Sequence[asymconv.VerificationReport]) -> None:
    """A header of the records' fields, fitted_leading (the top fitted log coefficient's
    real part, 0 if none) for fitted_coeffs, over one to_json_dict row per report."""
    columns = asymconv.KernelSpec._fields + tuple(
        "fitted_leading" if name == "fitted_coeffs" else name
        for name in asymconv.VerificationReport._fields if name != "spec"
    )
    lines = [",".join(columns)]
    for doc in (report.to_json_dict() for report in reports):
        pairs = doc["fitted_log_coeffs"]
        record = {**doc["spec"], **doc, "fitted_leading": pairs[-1][0] if pairs else 0.0}
        # floats as in canonical JSON, None as an empty field
        lines.append(",".join(
            "" if value is None else _format_float(value) if isinstance(value, float) else str(value)
            for value in map(record.__getitem__, columns)
        ))
    _write(path, "".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# types, convolve, bernstein, constant


def cmd_types(args: argparse.Namespace) -> int:
    left, right = (
        _load(path, ExponentSetType.from_json_dict, "an exponent-type document")
        for path in (args.left, args.right)
    )
    sys.stdout.write(canonical_json(combine_types(left, right).to_json_dict()))
    return EXIT_OK


def cmd_convolve(args: argparse.Namespace) -> int:
    left, right = (
        _load(path, Expansion.from_json_dict, "an expansion document")
        for path in (args.left, args.right)
    )
    sys.stdout.write(canonical_json(convolve_expansions(left, right).to_json_dict()))
    return EXIT_OK


def cmd_bernstein(args: argparse.Namespace) -> int:
    left, right = (
        _load(path, _each(as_fraction, "root"), "a root list")
        for path in (args.left, args.right)
    )
    combo = bernstein_combine(left, right, kappa=args.kappa)
    doc = {
        "raw": [str(x) for x in sorted(combo.raw)],
        "canonical": [str(x) for x in sorted(combo.canonical)],
        "candidates": [str(x) for x in sorted(combo.candidates)],
    }
    sys.stdout.write(canonical_json(doc))
    return EXIT_OK


def cmd_constant(args: argparse.Namespace) -> int:
    for flag, x in (("a", args.a), ("b", args.b)):
        if not in_slice(x, 0):
            raise ValueError("precondition violated: %s > -1 (got %s)" % (flag, x))
        _float(flag, x)
    first = kernel_term(args.a, args.p, Chirality.HOLO, args.j)
    second = kernel_term(args.b, args.q, Chirality(args.chirality), args.k)
    sys.stdout.write(canonical_json(convolve_terms(first, second).to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify and demo: the only commands that import the oracle


# The two names below stay in this module: the benchmark tracer and the
# tests patch them here.
def verify_constant(spec: asymconv.KernelSpec) -> asymconv.VerificationReport:
    """The oracle's verify_constant, loaded on first call."""
    return asymconv.verify_constant(spec)


def thom_sebastiani_demo(g1: asymconv.MonomialGerm, g2: asymconv.MonomialGerm):
    """The demo's thom_sebastiani_demo (a VerificationReport), loaded on first call."""
    return asymconv.thom_sebastiani_demo(g1, g2)


def cmd_verify(args: argparse.Namespace) -> int:
    tolerance = args.tolerance
    if not (tolerance > 0.0):
        raise ValueError("tolerance must be > 0")
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    specs: List[asymconv.KernelSpec] = _load(
        args.specs, _each(asymconv.KernelSpec.from_json_dict, "spec"), "a spec list"
    )
    outputs = () if args.report is None else (args.report + ".json", args.report + ".csv")
    done: List[asymconv.VerificationReport] = []
    failures: List[str] = []
    with _check_writable(outputs):
        for spec in specs:
            name = json.dumps(spec.to_json_dict())
            # a spec the oracle cannot check, including one it refuses
            # with ValueError, fails alone and does not abort the batch
            try:
                report = verify_constant(spec)
            except (asymconv.ToleranceNotMet, asymconv.IllConditioned, ValueError) as exc:
                failures.append("%s: %s: %s" % (name, type(exc).__name__, exc))
                continue
            done.append(report)
            if not (report.relative_error <= tolerance):
                failures.append("%s: relative error %.3e exceeds tolerance %.3e"
                                % (name, report.relative_error, tolerance))

    # The consistency summary concerns the one global measure
    # normalization, which every singular case shares.
    norms = [r.normalization_used for r in done if r.normalization_used is not None]
    rho_block = None
    if norms:
        mean = sum(norms) / len(norms)
        spread = max(abs(n - mean) / abs(mean) for n in norms)
        rho_block = {
            "mean": mean,
            "max_relative_deviation": spread,
            "consistent": spread <= _RHO_CONSISTENCY,
        }

    if outputs:
        doc = {
            "all_passed": not failures,
            "tolerance": tolerance,
            "failures": failures,
            "reports": [r.to_json_dict() for r in done],
            "rho_norm": rho_block,
        }
        _write(outputs[0], canonical_json(doc))
        _write_csv(outputs[1], done)

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
    for line in failures:
        sys.stderr.write("FAILED %s\n" % line)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    first = asymconv.MonomialGerm(args.n, plateau=args.plateau, support=args.support)
    second = asymconv.MonomialGerm(args.m, plateau=args.plateau, support=args.support)
    try:
        with _check_writable([] if args.csv is None else [args.csv]):
            report = thom_sebastiani_demo(first, second)
    except (asymconv.ToleranceNotMet, asymconv.IllConditioned) as exc:
        raise _Exit(EXIT_VERIFY_FAILED, "demo refused: %s: %s" % (type(exc).__name__, exc))
    if args.csv is not None:
        _write_csv(args.csv, [report])
    sys.stdout.write(canonical_json(report.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser: one per main() call would leave its reference
    cycles to a full garbage collection."""
    parser = argparse.ArgumentParser(
        prog="asymconv",
        description="Convolution of asymptotic expansions: closed-form "
        "constants, numerical verification, end-to-end demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    types_p = sub.add_parser("types", help="combine two expansion types")
    types_p.add_argument("left")
    types_p.add_argument("right")
    types_p.set_defaults(run=cmd_types)

    const_p = sub.add_parser(
        "constant", help="case and leading constant for one kernel"
    )
    const_p._negative_number_matcher = _NEGATIVE_TOKEN
    const_p.add_argument("-a", type=as_fraction, required=True, metavar="RATIONAL")
    const_p.add_argument("-b", type=as_fraction, required=True, metavar="RATIONAL")
    const_p.add_argument("-p", type=int, default=0)
    const_p.add_argument("-q", type=int, default=0)
    const_p.add_argument("-j", type=int, default=0)
    const_p.add_argument("-k", type=int, default=0)
    const_p.add_argument(
        "--chirality", choices=("holo", "anti"), default="holo"
    )
    const_p.set_defaults(run=cmd_constant)

    conv_p = sub.add_parser("convolve", help="convolve two expansion files")
    conv_p.add_argument("left")
    conv_p.add_argument("right")
    conv_p.set_defaults(run=cmd_convolve)

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
    verify_p.add_argument("--tolerance", type=float, default=1e-2)
    verify_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="N >= 1; specs are checked in order on one thread, and N never changes the report",
    )
    verify_p.set_defaults(run=cmd_verify)

    bern_p = sub.add_parser(
        "bernstein", help="combine two Bernstein root sets"
    )
    bern_p.add_argument("left")
    bern_p.add_argument("right")
    bern_p.add_argument("--kappa", type=int, default=0)
    bern_p.set_defaults(run=cmd_bernstein)

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
    mono_p.set_defaults(run=cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _Exit as exc:
        code, message = exc.args
        sys.stderr.write(message + "\n")
        return code
    except ValueError as exc:
        sys.stderr.write("domain error: %s\n" % exc)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
