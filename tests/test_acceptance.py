"""Acceptance gate: ten criteria covering the full pipeline.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (visible
with -s, or in the captured output of a failing run) and carries the
criterion number in its name, so a verbose run shows one status line
per criterion either way.  Tolerances and runtime budgets are pinned
in the bodies; a criterion fails loudly rather than being skipped.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from asymconv import (
    INTEGER_CASE_SCALE,
    RHO_NORM,
    Chirality,
    G_q,
    KernelSpec,
    MonomialGerm,
    bernstein_combine,
    beta_tail_integral,
    binomial_gamma_sum,
    finite_part_direct,
    fourier_coefficient,
    gauss_sum,
    integer_case_log_coeff,
    measure_singular_exponent,
    thom_sebastiani_demo,
    tilde_F_const,
    verify_constant,
)
from asymconv.cli import main as cli_main
from asymconv.gamma_kernel import _gamma_ratio

F = Fraction


def _conclude(number, label, failures, started, budget=None):
    elapsed = time.monotonic() - started
    if budget is not None and elapsed > budget:
        failures.append(
            "runtime %.1fs exceeds budget %.0fs" % (elapsed, budget)
        )
    status = "FAIL" if failures else "PASS"
    print("criterion %d: %s %s (%.2fs)" % (number, status, label, elapsed))
    assert not failures, "; ".join(failures)


def test_criterion_01_gamma_identity_suite():
    started = time.monotonic()
    failures = []
    tol = 1e-8

    for x in (0.3, 0.5, 1.25, 2.6, -0.7, -1.3, -2.25, 0.513):
        lhs = _gamma_ratio([], [x, 1.0 - x])
        rhs = math.sin(math.pi * x) / math.pi
        if abs(lhs - rhs) > tol * abs(rhs):
            failures.append("reflection fails at x=%g" % x)

    # Pascal's rule on the binomial weights turns the closed form into a
    # two-term recurrence in p.
    for p in range(1, 9):
        for x, y in ((0.7, 1.3), (1.9, 0.35), (2.5, 2.5)):
            lhs = binomial_gamma_sum(p, x, y)
            rhs = binomial_gamma_sum(p - 1, x, y) - binomial_gamma_sum(
                p - 1, x + 1.0, y
            )
            if abs(lhs - rhs) > tol * abs(rhs):
                failures.append("recurrence fails at p=%d x=%g y=%g" % (p, x, y))

    rng = random.Random(20260822)
    for _ in range(20):
        x = rng.uniform(0.2, 1.4)
        y = rng.uniform(0.2, 1.4)
        z = x + y + rng.uniform(2.5, 5.0)
        closed = gauss_sum(x, y, z)
        j = np.arange(60000, dtype=float)
        ratios = (j + x) * (j + y) / ((j + z) * (j + 1.0))
        terms = _gamma_ratio([x, y], [z]) * np.concatenate(
            ([1.0], np.cumprod(ratios[:-1]))
        )
        if abs(terms.sum() - closed) > tol * abs(closed):
            failures.append("series mismatch at x=%g y=%g z=%g" % (x, y, z))

    elementary = [
        ((1.0, 0.0), math.pi / 2),
        ((2.0, 0.0), math.pi / 4),
        ((2.0, 1.0), 0.5),
    ]
    for (u, v), reference in elementary:
        if abs(beta_tail_integral(u, v) - reference) > tol * reference:
            failures.append("tail integral fails at u=%g v=%g" % (u, v))

    _conclude(1, "Gamma identity suite", failures, started, budget=1.0)


def test_criterion_02_fourier_coefficient_consistency():
    started = time.monotonic()
    failures = []
    eps = F(1, 10**4)

    # The Gamma-ratio branch must reach the binomial branch in the limit;
    # averaging the two one-sided values cancels the linear term.
    for n in (0, 1, 2, 3):
        for q in (0, 1, 2):
            for r in (q, q + 2, q + 4):
                exact = fourier_coefficient(F(n), q, r)
                approx = 0.5 * (
                    fourier_coefficient(n + eps, q, r)
                    + fourier_coefficient(n - eps, q, r)
                )
                if exact != 0.0:
                    bad = abs(approx - exact) > 1e-6 * abs(exact)
                else:
                    bad = abs(approx) > 1e-6
                if bad:
                    failures.append("limit fails at a=%d q=%d r=%d" % (n, q, r))

    for a in (F(-1, 2), F(2), F(-37, 100)):
        for q, r in ((0, 1), (0, 3), (1, 2), (2, 1), (1, 4)):
            if fourier_coefficient(a, q, r) != 0.0:
                failures.append("parity zero fails at a=%s q=%d r=%d" % (a, q, r))

    _conclude(2, "Fourier coefficient consistency", failures, started)


def test_criterion_03_continuation_oracle():
    started = time.monotonic()
    failures = []
    triples = [
        (F(-3, 10), F(-2, 5), 0),
        (F(-7, 10), F(-3, 5), 1),
        (F(-1, 4), F(-3, 8), 0),
        (F(-5, 9), F(-2, 9), 1),
        (F(-6, 7), F(-2, 7), 2),
        (F(-1, 3), F(-1, 4), 1),
        (F(-2, 5), F(-1, 5), 2),
        (F(-1, 8), F(-1, 3), 0),
        (F(-5, 11), F(-3, 11), 1),
        (F(-9, 13), F(-5, 13), 0),
    ]
    assert len(triples) == 10
    for a, b, q in triples:
        total = float(a + b + 1)
        assert abs(total - round(total)) >= 0.05
        direct = finite_part_direct(a, b, q)
        closed = G_q(a, b, q)
        if abs(direct - closed) > 1e-5 * abs(closed):
            failures.append(
                "mismatch at (%s, %s, %d): %.3e vs %.3e" % (a, b, q, direct, closed)
            )
    _conclude(3, "continuation oracle vs closed form", failures, started, budget=120.0)


GENERIC_SUITE = [
    KernelSpec(a=F(-3, 10), b=F(-2, 5), p=0, q=0, j=0, k=0),
    KernelSpec(a=F(-2, 5), b=F(-3, 10), p=1, q=1, j=0, k=0, chirality=Chirality.ANTI),
    KernelSpec(a=F(-1, 4), b=F(-2, 5), p=1, q=0, j=0, k=0),
    KernelSpec(a=F(-5, 9), b=F(-2, 9), p=0, q=1, j=0, k=0),
    KernelSpec(a=F(-3, 7), b=F(-2, 7), p=1, q=1, j=0, k=0),
    KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=1, k=0),
    KernelSpec(a=F(-2, 7), b=F(-2, 5), p=0, q=0, j=0, k=1),
    KernelSpec(a=F(-5, 8), b=F(-1, 4), p=0, q=1, j=0, k=0, chirality=Chirality.ANTI),
    KernelSpec(a=F(-1, 2), b=F(-1, 5), p=2, q=0, j=0, k=0),
    KernelSpec(a=F(-4, 9), b=F(-1, 3), p=0, q=0, j=1, k=1),
]


def test_criterion_04_generic_calibration():
    started = time.monotonic()
    failures = []
    assert len(GENERIC_SUITE) == 10
    norms = []
    for spec in GENERIC_SUITE:
        total = float(spec.a + spec.b + 1)
        assert abs(total - round(total)) >= 0.1
        report = verify_constant(spec)
        if report.case.value != "Generic":
            failures.append("%s not classified Generic" % (spec,))
            continue
        if report.relative_error > 1e-2:
            failures.append(
                "relative error %.3e at %s" % (report.relative_error, spec)
            )
        norms.append(report.normalization_used)
    mean = sum(norms) / len(norms)
    spread = max(abs(n - mean) / abs(mean) for n in norms)
    if spread > 1e-3:
        failures.append("normalization spread %.3e exceeds 1e-3" % spread)
    _conclude(
        4,
        "generic constants, shared normalization %.6f" % mean,
        failures,
        started,
        budget=600.0,
    )


def test_criterion_05_resonant_log_degree():
    started = time.monotonic()
    failures = []
    predicted = tilde_F_const(0, 0, F(-1, 2), F(-1, 2), Chirality.HOLO)
    if predicted != -1.0:
        failures.append("closed form is %.12f, expected -1" % predicted)
    fitted_coeffs = verify_constant(
        KernelSpec(a=F(-1, 2), b=F(-1, 2), p=0, q=0, j=0, k=0)
    ).fitted_coeffs
    if fitted_coeffs.degree != 1:
        failures.append("fitted log degree %d, expected 1" % fitted_coeffs.degree)
    else:
        fitted = fitted_coeffs.coefficient(1).real
        target = predicted * RHO_NORM
        if abs(fitted - target) > 1e-2 * abs(target):
            failures.append("log coefficient %.6f vs %.6f" % (fitted, target))
    _conclude(5, "resonant kernel gains one log", failures, started)


def test_criterion_06_integer_log_coefficients():
    started = time.monotonic()
    failures = []
    if integer_case_log_coeff(0, 0, 0, 0, Chirality.HOLO) != F(-1, 4):
        failures.append("exact coefficient at p=q=0 is not -1/4")
    if integer_case_log_coeff(0, 1, 0, 0, Chirality.ANTI) != F(-1, 8):
        failures.append("exact coefficient at (p,q)=(0,1) anti is not -1/8")

    for spec, base in (
        (KernelSpec(a=F(0), b=F(0), p=0, q=0, j=1, k=1), -0.25),
        (
            KernelSpec(
                a=F(0), b=F(0), p=0, q=1, j=1, k=1, chirality=Chirality.ANTI
            ),
            -0.125,
        ),
    ):
        report = verify_constant(spec)
        fitted = report.fitted_coeffs.leading.real
        target = base * INTEGER_CASE_SCALE
        if abs(fitted - target) > 1e-2 * abs(target):
            failures.append(
                "fitted %.6f vs %.6f at (p,q)=(%d,%d)"
                % (fitted, target, spec.p, spec.q)
            )
    _conclude(6, "integer-exponent log coefficients", failures, started)


def test_criterion_07_smooth_cases():
    started = time.monotonic()
    failures = []
    specs = [
        KernelSpec(a=F(0), b=F(-1, 3), p=1, q=0, j=0, k=2),
        KernelSpec(a=F(1), b=F(-2, 5), p=0, q=0, j=0, k=1),
        KernelSpec(a=F(0), b=F(-2, 5), p=0, q=0, j=0, k=1),
        KernelSpec(a=F(0), b=F(-5, 8), p=0, q=0, j=0, k=0),
        KernelSpec(a=F(-2, 5), b=F(0), p=0, q=0, j=1, k=0),
    ]
    for spec in specs:
        report = verify_constant(spec)
        if report.case.value != "Smooth":
            failures.append("%s not classified Smooth" % (spec,))
        elif report.relative_error > 1e-6:
            failures.append(
                "singular leakage %.3e at %s" % (report.relative_error, spec)
            )
    _conclude(7, "natural exponents leave no singular term", failures, started)


def test_criterion_08_end_to_end_demo():
    started = time.monotonic()
    failures = []
    square = MonomialGerm(2)
    cube = MonomialGerm(3)

    report = thom_sebastiani_demo(square, square)
    if float(report.spec.a + report.spec.b + 1) != 0.0:
        failures.append("predicted exponent is not 0")
    if report.fitted_coeffs.degree != 1:
        failures.append("no degree-1 log term for the square pair")
    elif abs(report.fitted_coeffs.coefficient(1)) <= 0.1:
        failures.append(
            "log coefficient %.4f below 0.1"
            % abs(report.fitted_coeffs.coefficient(1))
        )

    report = thom_sebastiani_demo(square, cube)
    fitted = report.fitted_coeffs.leading.real
    if fitted == 0.0:
        failures.append("degree-0 coefficient vanished for the cube pair")
    if report.relative_error > 2e-2:
        failures.append(
            "demo coefficient off by %.3e relative" % report.relative_error
        )
    exponent = measure_singular_exponent(square, cube)
    if abs(exponent + 1.0 / 6.0) > 1e-3:
        failures.append("measured exponent %.6f, expected -1/6" % exponent)

    _conclude(8, "monomial fiber integrals end to end", failures, started, budget=300.0)


def test_criterion_09_bernstein_cusp():
    started = time.monotonic()
    failures = []
    combo = bernstein_combine([F(-1, 2)], [F(-1, 3), F(-2, 3)])
    expected = frozenset((F(-5, 6), F(-1, 6)))
    if combo.canonical != expected:
        failures.append("canonical set %s != %s" % (set(combo.canonical), set(expected)))
    _conclude(9, "cusp root combination", failures, started)


def test_criterion_10_determinism(tmp_path, capsys):
    started = time.monotonic()
    failures = []
    suite = [spec.to_json_dict() for spec in GENERIC_SUITE]
    suite.append(
        KernelSpec(a=F(-1, 2), b=F(-1, 2), p=0, q=0, j=0, k=0).to_json_dict()
    )
    suite.append(KernelSpec(a=F(0), b=F(0), p=0, q=0, j=1, k=1).to_json_dict())
    suite.append(KernelSpec(a=F(0), b=F(-5, 8), p=0, q=0, j=0, k=0).to_json_dict())
    spec_file = tmp_path / "suite.json"
    spec_file.write_text(json.dumps(suite))

    blobs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        code = cli_main(
            ["verify", str(spec_file), "--report", str(base), "--jobs", "2"]
        )
        capsys.readouterr()
        if code != 0:
            failures.append("verify run %s exited %d" % (tag, code))
            continue
        blobs.append(
            (
                base.with_suffix(".json").read_bytes(),
                base.with_suffix(".csv").read_bytes(),
            )
        )
    if len(blobs) == 2 and blobs[0] != blobs[1]:
        failures.append("reports differ between identical runs")
    _conclude(10, "byte-identical verification reports", failures, started)
