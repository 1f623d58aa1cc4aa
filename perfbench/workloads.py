"""The four workloads: inputs, measured passes, output checks, metrics.

Every workload drives asymconv only through ``asymconv.cli.main`` (run
in-process) and the library functions exported by ``asymconv``.  A
measured run repeats the workload's repetition until ``--seconds`` are
used up; a traced run makes one repetition untraced and the same one
traced, and reports the per-layer figures with the tracing overhead.

Every oracle pass starts with a cold moment cache, as each ``asymconv
verify`` invocation does.

Times in the end-to-end metrics are speed-adjusted by
:class:`gauge.SpeedGauge`; the raw seconds are printed next to them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional

import asymconv
from asymconv import cli, quadrature_oracle
from asymconv.expansion_algebra import canonical_json

import generators
from gauge import SpeedGauge
from tracing import Tracer, spec_id

#: The CLI's default tolerance, passed explicitly so ASYMCONV_TOL cannot move it.
TOLERANCE = 1e-2
REFUSALS = (asymconv.ToleranceNotMet, asymconv.IllConditioned)


class Tally:
    """Raw results of one workload run, before they become metrics.

    ``op_s`` and ``rates`` are speed-adjusted; ``raw_s`` and
    ``raw_rates`` keep the unadjusted figures.
    """

    def __init__(self) -> None:
        self.gauge = SpeedGauge()
        self.op_s: List[float] = []
        self.raw_s: List[float] = []
        self.rates: List[float] = []
        self.raw_rates: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.agreed = 0
        self.judged = 0
        self.not_ok = 0
        self.problems: List[str] = []
        self.outcomes: Counter = Counter()
        self.rel_err_max = 0.0
        self.cache = Counter()
        #: verify CLI wall time by mode, "serial" (--jobs 1) and "parallel"
        self.walls: Dict[str, float] = {}
        self.specs = 0
        self._before = 1.0
        self._start = 0.0

    def start(self) -> None:
        """Read the gauge, then start the clock of one timed operation."""
        self._before = self.gauge.factor()
        self._start = time.perf_counter()

    def stop(self):
        """Stop the clock: (raw seconds, speed factor of the operation)."""
        wall = time.perf_counter() - self._start
        return wall, 0.5 * (self._before + self.gauge.factor())

    def op(self, wall: float, factor: float) -> None:
        """Record one operation's time for op_s_p50 and op_s_tail."""
        self.op_s.append(wall * factor)
        self.raw_s.append(wall)

    def through(self, wall: float, factor: float, items: int) -> None:
        """Record one invocation that did ``items`` in ``wall`` seconds.

        items_per_s is the median rate over invocations, so one invocation
        slowed by a neighbour on the machine does not move it.
        """
        self.rates.append(items / (wall * factor))
        self.raw_rates.append(items / wall)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def judge(self, outcome: str, rel_err: Optional[float] = None) -> None:
        """Record one outcome: agree, wrong, or the name of a refusal."""
        self.judged += 1
        self.outcomes[outcome] += 1
        self.agreed += outcome == "agree"
        if rel_err is not None and outcome == "agree":
            self.rel_err_max = max(self.rel_err_max, rel_err)


def cold_cache(tally: Tally, tracer: Optional[Tracer]) -> None:
    """Fold the moment-cache statistics into the tally and empty the cache."""
    info = quadrature_oracle._inner_moments.cache_info()
    tally.cache["hits"] += info.hits
    tally.cache["misses"] += info.misses
    quadrature_oracle._inner_moments.cache_clear()
    if tracer is not None:
        tracer.new_pass()


def call_cli(argv: List[str], tracer: Optional[Tracer]):
    """Run ``asymconv.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main", root=True):
                code = cli.main(argv)
    return code, out.getvalue()


@contextlib.contextmanager
def optional_span(tracer: Optional[Tracer], name: str, spec: Optional[str] = None):
    if tracer is None:
        yield
    else:
        with tracer.span(name, spec=spec):
            yield


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _verdict(spec, tracer: Optional[Tracer]):
    """verify_constant on one spec: (outcome, report or None)."""
    with optional_span(tracer, "quadrature_oracle.verify_constant", spec_id(spec)):
        try:
            report = asymconv.verify_constant(spec)
        except REFUSALS as exc:
            return type(exc).__name__, None
        except ValueError:
            return "ValueError", None
    return ("agree" if report.relative_error <= TOLERANCE else "wrong"), report


# -- verify_batch -------------------------------------------------------------


class VerifyBatch:
    """Distinct corner specs three ways: a library loop over
    ``verify_constant``, ``asymconv verify --jobs 1`` and ``asymconv verify
    --jobs <nproc>``, both with ``--report``."""

    def __init__(self, seed: int, workdir: str, jobs: int) -> None:
        self.jobs = jobs
        self.files = generators.verify_batch(seed, workdir)

    #: Repetitions the traced run merges into one batch.
    TRACED_REPETITIONS = 3

    def repetitions(self):
        return iter(self.files)

    def traced_repetition(self) -> str:
        specs = []
        for path in itertools.islice(self.files, self.TRACED_REPETITIONS):
            with open(path, encoding="utf-8") as fh:
                specs.extend(json.load(fh))
        merged = os.path.join(os.path.dirname(path), "verify_specs_traced.json")
        with open(merged, "w", encoding="utf-8") as fh:
            json.dump(specs, fh)
        return merged

    def run(self, path: str, tally: Tally, tracer: Optional[Tracer]) -> None:
        with open(path, encoding="utf-8") as fh:
            specs = [asymconv.KernelSpec.from_json_dict(d) for d in json.load(fh)]
        cold_cache(tally, tracer)
        library = []
        for spec in specs:
            tally.attempted += 1
            tally.start()
            try:
                outcome, report = _verdict(spec, tracer)
            except Exception as exc:  # an untyped failure is a measured outcome
                tally.fail("%s: %r" % (spec_id(spec), exc))
                continue
            tally.op(*tally.stop())
            tally.judge(outcome, report.relative_error if report else None)
            if outcome != "agree":
                tally.fail("%s: %s" % (spec_id(spec), outcome))
            library.append(report)

        stem = os.path.splitext(path)[0]
        reports = {}
        for mode, jobs in (("serial", 1), ("parallel", self.jobs)):
            cold_cache(tally, tracer)
            base = "%s_%s" % (stem, mode)
            argv = ["verify", path, "--jobs", str(jobs), "--tolerance", repr(TOLERANCE),
                    "--report", base]
            tally.attempted += 1
            tally.start()
            code, _ = call_cli(argv, tracer)
            wall, factor = tally.stop()
            tally.walls[mode] = tally.walls.get(mode, 0.0) + wall
            # --jobs 1 gives the throughput metric: the pool's speed depends
            # on how busy the other cores are, which varies far more between
            # runs than any bound absorbs.  Its figures are per-layer.
            if mode == "serial":
                tally.through(wall, factor, len(specs))
                tally.specs += len(specs)
            if code != cli.EXIT_OK:
                tally.fail("verify --jobs %d exited %d" % (jobs, code))
                return
            reports[mode] = (_read(base + ".json"), _read(base + ".csv"))
        cold_cache(tally, tracer)

        if reports["serial"] != reports["parallel"]:
            tally.fail("verify report bytes differ between --jobs 1 and --jobs %d" % self.jobs)
        cli_reports = json.loads(reports["serial"][0])["reports"]
        mine = [canonical_json(r.to_json_dict()) for r in library if r is not None]
        if mine != [canonical_json(r) for r in cli_reports]:
            tally.fail("library reports differ from the verify report")


# -- fiber_demo ---------------------------------------------------------------


class FiberDemo:
    """Germ pairs through ``thom_sebastiani_demo``, one pair per call, then
    the resonant pair once more through ``asymconv demo monomial``."""

    #: Pairs in the repetition a traced run makes twice.
    TRACED_PAIRS = 8

    def __init__(self, seed: int, workdir: str, jobs: int) -> None:
        with open(generators.fiber_demo(seed, workdir), encoding="utf-8") as fh:
            self.pairs = [tuple(p) for p in json.load(fh)]
        self.reference = None

    def repetitions(self):
        """One pair per repetition, so the run stops within a pair of time."""
        return iter([pair] for pair in self.pairs)

    def traced_repetition(self):
        return self.pairs[:self.TRACED_PAIRS]

    def run(self, pairs, tally: Tally, tracer: Optional[Tracer]) -> None:
        for n, m in pairs:
            cold_cache(tally, tracer)
            tally.attempted += 1
            tally.start()
            try:
                with optional_span(tracer, "fiber_demo.thom_sebastiani_demo"):
                    report = asymconv.thom_sebastiani_demo(
                        asymconv.MonomialGerm(n), asymconv.MonomialGerm(m))
            except Exception as exc:  # every pair in range must verify
                tally.fail("demo (%d, %d): %r" % (n, m, exc))
                continue
            wall, factor = tally.stop()
            tally.op(wall, factor)
            tally.through(wall, factor, 1)
            ok = report.relative_error <= TOLERANCE
            tally.judge("agree" if ok else "wrong", report.relative_error)
            if not ok:
                tally.fail("demo (%d, %d): relative error %.3e" % (n, m, report.relative_error))
            if (n, m) == (2, 2):
                self.reference = canonical_json(report.to_json_dict())

    def finish(self, tally: Tally, tracer: Optional[Tracer]) -> None:
        """The CLI must print the library's report byte for byte."""
        cold_cache(tally, tracer)
        tally.attempted += 1
        code, out = call_cli(["demo", "monomial", "--n", "2", "--m", "2"], tracer)
        if code != cli.EXIT_OK or out != self.reference:
            tally.fail("demo monomial --n 2 --m 2 differs from the library report")


# -- algebra ------------------------------------------------------------------


class Algebra:
    """Expansion documents through ``asymconv convolve`` and exponent-type
    documents through ``asymconv types``, the same documents every
    repetition."""

    def __init__(self, seed: int, workdir: str, jobs: int) -> None:
        self.expansions, self.types = generators.algebra(seed, workdir)
        self.pairs = []
        for left, right in self.expansions:
            with open(left, encoding="utf-8") as a, open(right, encoding="utf-8") as b:
                self.pairs.append(len(json.load(a)["terms"]) * len(json.load(b)["terms"]))
        self.first: Dict[tuple, str] = {}

    def repetitions(self):
        while True:
            yield None

    def run(self, _, tally: Tally, tracer: Optional[Tracer]) -> None:
        for (left, right), pairs in zip(self.expansions, self.pairs):
            tally.attempted += 1
            tally.start()
            code, out = call_cli(["convolve", left, right], tracer)
            tally.through(*tally.stop(), pairs)
            self._check(("convolve", left), code, out, asymconv.Expansion, tally)
        for left, right in self.types:
            tally.attempted += 1
            tally.start()
            code, out = call_cli(["types", left, right], tracer)
            tally.op(*tally.stop())
            self._check(("types", left), code, out, asymconv.ExponentSetType, tally)

    def _check(self, key, code: int, out: str, kind, tally: Tally) -> None:
        """Exit 0, the same bytes as the first repetition, and a lossless
        round trip through the document's own parser."""
        if code != cli.EXIT_OK:
            tally.fail("%s %s exited %d" % (key[0], key[1], code))
            return
        if key not in self.first:
            self.first[key] = out
            again = canonical_json(kind.from_json_dict(json.loads(out)).to_json_dict())
            if again != out:
                tally.fail("%s %s does not round-trip" % key)
                return
        elif self.first[key] != out:
            tally.fail("%s %s changed between repetitions" % key)
            return
        tally.judge("agree")


# -- oracle_sweep -------------------------------------------------------------


class OracleSweep:
    """The whole ROADMAP grid through ``verify_constant``, each verdict
    classified.  Times are per kernel sample, so a refusal turned into a
    verified constant does not read as a slowdown."""

    def __init__(self, seed: int, workdir: str, jobs: int) -> None:
        with open(generators.oracle_sweep(seed, workdir), encoding="utf-8") as fh:
            self.specs = [asymconv.KernelSpec.from_json_dict(d) for d in json.load(fh)]
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "sweep_baseline.json"), encoding="utf-8") as fh:
            self.baseline = {",".join(map(str, row[:7])): row[7] for row in json.load(fh)}

    def repetitions(self):
        return iter([self.specs])

    def run(self, specs, tally: Tally, tracer: Optional[Tracer]) -> None:
        samples = Counter()
        original = quadrature_oracle.eval_kernel_integral

        def counted(spec, *args, **kwargs):
            samples[spec] += 1
            return original(spec, *args, **kwargs)

        quadrature_oracle.eval_kernel_integral = counted
        try:
            for spec in specs:
                cold_cache(tally, tracer)
                tally.attempted += 1
                tally.start()
                try:
                    outcome, report = _verdict(spec, tracer)
                except Exception as exc:  # only the typed outcomes are expected
                    tally.fail("%s: %r" % (spec_id(spec), exc))
                    continue
                wall, factor = tally.stop()
                if samples[spec]:
                    tally.op(wall / samples[spec], factor)
                tally.through(wall, factor, samples[spec])
                tally.judge(outcome, report.relative_error if report else None)
                if self._regressed(spec, outcome, tally):
                    continue
                if outcome in ("wrong", "ValueError"):
                    tally.not_ok += 1
        finally:
            quadrature_oracle.eval_kernel_integral = original
        cold_cache(tally, tracer)

    def _regressed(self, spec, outcome: str, tally: Tally) -> bool:
        """No spec may lose the agreement it had at the baseline, and none may
        become confidently wrong where the baseline was not."""
        before = self.baseline[spec_id(spec)]
        if before == "agree" and outcome != "agree":
            tally.fail("%s: agreed at the baseline, now %s" % (spec_id(spec), outcome))
            return True
        if outcome == "wrong" and before != "wrong":
            tally.fail("%s: newly wrong (baseline %s)" % (spec_id(spec), before))
            return True
        return False

    def split(self, tally: Tally) -> str:
        base = Counter(self.baseline.values())
        order = ("agree", "ToleranceNotMet", "wrong", "ValueError", "IllConditioned")
        return "%s (baseline %s)" % (
            " / ".join("%s %d" % (k, tally.outcomes[k]) for k in order),
            " / ".join(str(base[k]) for k in order),
        )


WORKLOADS = {
    "verify_batch": VerifyBatch,
    "fiber_demo": FiberDemo,
    "algebra": Algebra,
    "oracle_sweep": OracleSweep,
}


# -- runs ---------------------------------------------------------------------


def measure(workload, seconds: float) -> Tally:
    """Repeat the workload until the next repetition would overrun ``seconds``."""
    tally = Tally()
    start = time.perf_counter()
    longest = 0.0
    for rep in workload.repetitions():
        rep_start = time.perf_counter()
        workload.run(rep, tally, None)
        longest = max(longest, time.perf_counter() - rep_start)
        if time.perf_counter() - start + longest > seconds:
            break
    if hasattr(workload, "finish"):
        workload.finish(tally, None)
    return tally


def tail(values: List[float]):
    """Highest percentile with at least ten samples beyond it: (value, share)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 1.0
    return ordered[n - 11], (n - 10) / n


def end_to_end(tally: Tally) -> Dict[str, float]:
    value, _ = tail(tally.op_s)
    return {
        "op_s_p50": statistics.median(tally.op_s),
        "op_s_tail": value,
        "items_per_s": statistics.median(tally.rates),
        "agree_share": tally.agreed / tally.judged,
        "ok_share": 1.0 - (tally.not_ok + tally.failed) / tally.attempted,
    }


def _whole(workload, rep, tally: Tally, tracer: Optional[Tracer]) -> float:
    """Run one repetition and its closing check: speed-adjusted seconds."""
    before = tally.gauge.factor()
    start = time.perf_counter()
    workload.run(rep, tally, tracer)
    if hasattr(workload, "finish"):
        workload.finish(tally, tracer)
    wall = time.perf_counter() - start
    return wall * 0.5 * (before + tally.gauge.factor())


def traced(workload, jobs: int, trace_path: str):
    """One repetition untraced, the same one traced: (per-layer, tally).

    The tracing overhead is the difference of the two speed-adjusted wall
    times; when it is smaller than the run-to-run noise it can read
    negative.
    """
    rep = (workload.traced_repetition() if hasattr(workload, "traced_repetition")
           else next(workload.repetitions()))
    plain = Tally()
    plain_wall = _whole(workload, rep, plain, None)

    tracer = Tracer()
    tracer.install()
    tally = Tally()
    try:
        traced_wall = _whole(workload, rep, tally, tracer)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    layers = per_layer(tracer, tally, plain, jobs, traced_wall - plain_wall)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.problems = plain.problems + tally.problems
    return layers, tally


def per_layer(tracer: Tracer, tally: Tally, plain: Tally, jobs: int,
              overhead: float) -> Dict[str, float]:
    rows = tracer.summary()

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "first_calls": 0, "first_s": 0.0})

    ev = row("quadrature_oracle.eval_kernel_integral")
    rest_calls = ev["calls"] - ev["first_calls"]
    out = {
        "quadrature_oracle.eval_kernel_integral.calls": ev["calls"],
        "quadrature_oracle.eval_kernel_integral.s": ev["s"],
        "quadrature_oracle.eval_kernel_integral.rest_s_per_call":
            (ev["s"] - ev["first_s"]) / rest_calls if rest_calls else 0.0,
        "quadrature_oracle.eval_kernel_integral.first_s":
            ev["first_s"] / ev["first_calls"] if ev["first_calls"] else 0.0,
        "quadrature_oracle.moment_cache.hits": tally.cache["hits"],
        "quadrature_oracle.moment_cache.misses": tally.cache["misses"],
        "quadrature_oracle.fit_radial_samples.s": row("quadrature_oracle.fit_radial_samples")["s"],
        "quadrature_oracle.verify_constant.self_s": row("quadrature_oracle.verify_constant")["self_s"],
        "quadrature_oracle.refused.ToleranceNotMet": tally.outcomes["ToleranceNotMet"],
        "quadrature_oracle.refused.IllConditioned": tally.outcomes["IllConditioned"],
        "quadrature_oracle.error.ValueError": tally.outcomes["ValueError"],
        "quadrature_oracle.wrong": tally.outcomes["wrong"],
        "quadrature_oracle.rel_err_max": tally.rel_err_max,
        "fiber_demo.thom_sebastiani_demo.s": row("fiber_demo.thom_sebastiani_demo")["s"],
        "fiber_demo.thom_sebastiani_demo.self_s": row("fiber_demo.thom_sebastiani_demo")["self_s"],
        "convolution_engine.convolve_expansions.self_s":
            row("convolution_engine.convolve_expansions")["self_s"],
        "convolution_engine.term_pairs": tracer.counts["convolution_engine.term_pairs"],
        "convolution_engine.output_terms": tracer.counts["convolution_engine.output_terms"],
        "convolution_engine.compensated_keys": tracer.counts["convolution_engine.compensated_keys"],
        "convolution_engine.kernel_leading_constant.calls":
            row("convolution_engine.kernel_leading_constant")["calls"],
        "convolution_engine.kernel_leading_constant.s":
            row("convolution_engine.kernel_leading_constant")["s"],
    }
    for fn in ("F_const", "tilde_F_const", "degenerate_case1_coeff", "integer_case_log_coeff"):
        r = row("gamma_kernel." + fn)
        out["gamma_kernel.%s.calls" % fn] = r["calls"]
        out["gamma_kernel.%s.us_per_call" % fn] = 1e6 * r["s"] / r["calls"] if r["calls"] else 0.0
    out.update({
        "expansion_algebra.combine_types.s": row("expansion_algebra.combine_types")["s"],
        "expansion_algebra.canonical_json.s": row("expansion_algebra.canonical_json")["s"],
        "expansion_algebra.canonical_json.bytes": tracer.counts["expansion_algebra.canonical_json.bytes"],
        "expansion_algebra.Expansion.from_json_dict.s":
            row("expansion_algebra.Expansion.from_json_dict")["s"],
        "cli.main.self_s": row("cli.main")["self_s"],
        "cli.verify.parallel_efficiency":
            plain.walls["serial"] / (jobs * plain.walls["parallel"]) if plain.walls else 0.0,
        "cli.verify.parallel_specs_per_s":
            plain.specs / plain.walls["parallel"] if plain.walls else 0.0,
        "bench.trace_overhead_s": overhead,
    })
    return out
