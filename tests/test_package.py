"""The package's public surface, its records, and the benchmark tracer's view of it."""

import collections
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction as F

import pytest

import asymconv
from asymconv import cli
from test_golden_reports import DATA, GOLDEN_CONSTANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SUBMODULES = ("gamma_kernel", "expansion_algebra", "convolution_engine",
              "quadrature_oracle", "fiber_demo")

#: What the oracle and the demo import; the exact layer must not.
NUMPY_BACKED = ["numpy", "asymconv.quadrature_oracle", "asymconv.fiber_demo"]

#: What no command imports for the records (dataclasses brings inspect,
#: ast, dis and tokenize), and inspect, which only numpy may bring in.
WATCHED = NUMPY_BACKED + ["dataclasses", "inspect"]


def defining_module(name, obj):
    """obj's own module, or for a plain value the submodule that assigns
    it at top level."""
    if isinstance(obj, (type, types.FunctionType)):
        return importlib.import_module(obj.__module__)
    [home] = [
        module for module in (importlib.import_module("asymconv." + m) for m in SUBMODULES)
        if re.search(r"^%s\b[^=\n]*=" % name, inspect.getsource(module), re.M)
    ]
    return home


def test_every_public_name_resolves():
    assert len(set(asymconv.__all__)) == len(asymconv.__all__)
    assert set(asymconv.__all__) <= set(dir(asymconv))
    for name in asymconv.__all__:
        obj = getattr(asymconv, name)
        assert vars(defining_module(name, obj))[name] is obj, name
    from asymconv import KernelSpec

    assert KernelSpec is asymconv.quadrature_oracle.KernelSpec
    # a plain AttributeError: hasattr would let an ImportError or a KeyError through
    assert not hasattr(asymconv, "no_such_name")
    with pytest.raises(AttributeError) as info:
        asymconv.no_such_name
    assert type(info.value) is AttributeError


def _fresh_cli(argv):
    """(exit code, stdout, WATCHED modules loaded) of
    ``asymconv.cli.main(argv)`` in a new interpreter started in src/."""
    script = (
        "import contextlib, io, json, sys\n"
        "import asymconv\n"
        "from asymconv import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(json.loads(sys.argv[1]))\n"
        "loaded = [m for m in json.loads(sys.argv[2]) if m in sys.modules]\n"
        "print(json.dumps([code, out.getvalue(), loaded]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv), json.dumps(WATCHED)],
        cwd=SRC, capture_output=True, text=True, check=True,
    )
    return tuple(json.loads(done.stdout))


def _pair(command, name=None):
    """argv of command on the golden_<name>_left/right inputs, and its golden."""
    name = name or command
    inputs = [str(DATA / ("golden_%s_%s.json" % (name, side))) for side in ("left", "right")]
    return [command] + inputs, "golden_%s.json" % name


EXACT_LAYER = [
    _pair("convolve"),
    _pair("convolve", "convolve_mixed"),
    _pair("convolve", "convolve_large"),
    _pair("types"),
    _pair("types", "types_mixed"),
    _pair("bernstein"),
    (_pair("bernstein")[0] + ["--kappa", "1"], "golden_bernstein_kappa1.json"),
] + [
    (["constant"] + options, "golden_constant_%s.json" % name)
    for name, (_, options) in GOLDEN_CONSTANTS.items()
]


def _demo_2_2():
    doc = json.loads((DATA / "golden_demo_domain.json").read_text())
    entry = next(e for e in doc["pairs"] if (e["n"], e["m"]) == (2, 2))
    return asymconv.canonical_json(entry["report"])


FRESH_CASES = [(argv, golden, []) for argv, golden in EXACT_LAYER] + [
    # the command perfbench/setup_probe.py times; it has no golden file,
    # so its bytes are checked against this process's run
    (["constant", "-a", "-1/3", "-b", "-1/4"], None, []),
    # numpy imports inspect itself
    (["verify", str(DATA / "golden_specs.json")], None, NUMPY_BACKED[:2] + ["inspect"]),
    (["demo", "monomial", "--n", "2", "--m", "2"], _demo_2_2, NUMPY_BACKED + ["inspect"]),
]


@pytest.mark.parametrize(
    "argv, golden, loaded", FRESH_CASES,
    ids=[golden[:-5] if isinstance(golden, str) else argv[0] for argv, golden, _ in FRESH_CASES],
)
def test_exact_layer_starts_without_numpy(capsys, argv, golden, loaded):
    result = _fresh_cli(argv)
    if golden is None:
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
    elif callable(golden):
        expected = golden()
    else:
        expected = (DATA / golden).read_bytes().decode("utf-8")
    assert result == (0, expected, loaded)


def test_readme_quick_start_runs(capsys):
    # a doc example that uses a removed or renamed name fails here
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Resonant 1 ")


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    # perfbench/tracing.py wraps package functions by attribute name, so a
    # renamed or removed name would otherwise fail only in a traced bench run
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, raw in patches:
            assert owner.__dict__[attr] is not raw, attr
    finally:
        tracer.uninstall()
    for owner, attr, raw in patches:
        assert owner.__dict__[attr] is raw, attr


def test_traced_names_are_called(monkeypatch):
    # perfbench/tracing.py times these names through the module that looks
    # each one up; a name that is bound but no longer called there would
    # leave its per-layer row empty without any error
    from fractions import Fraction as F

    from asymconv import KernelSpec, MonomialGerm, thom_sebastiani_demo, verify_constant
    from asymconv.convolution_engine import kernel_leading_constant
    from asymconv.expansion_algebra import Chirality

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")

    def traced(run):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        return {name for name, row in tracer.summary().items() if row["calls"]}

    def pairs():
        # Generic, Resonant, OneIntegerFactor and BothInteger kernels; the
        # engine's pairs read the terms' Gamma factors, not these names
        for a, b, j, k in ((F(-1, 3), F(-1, 4), 0, 0), (F(-1, 2), F(-1, 2), 0, 0),
                           (F(1), F(-1, 4), 1, 0), (F(0), F(1), 1, 1)):
            kernel_leading_constant(1, 1, a, b, j, k, Chirality.ANTI)

    assert traced(pairs) >= {
        "gamma_kernel." + name
        for name in ("F_const", "tilde_F_const", "degenerate_case1_coeff",
                     "integer_case_log_coeff")
    }
    samples = {"quadrature_oracle.eval_kernel_integral"}
    fit = "quadrature_oracle.fit_radial_samples"
    spec = KernelSpec(a="-1/3", b="-1/4", p=0, q=0, j=0, k=0)
    assert traced(lambda: verify_constant(spec)) >= samples | {
        fit, "convolution_engine.kernel_leading_constant"
    }
    # the demo filters its samples and makes no fit
    demo = traced(lambda: thom_sebastiani_demo(MonomialGerm(2), MonomialGerm(3)))
    assert demo >= samples and fit not in demo


# ---------------------------------------------------------------------------
# records: immutable NamedTuples, checked at construction


def _record_arguments():
    """Public record name -> keyword arguments of one valid instance."""
    from asymconv import CaseTag, Chirality, KernelSpec, LogPolynomial, SingularTerm

    term = SingularTerm(r=F(-1, 2), m=1, n=0, poly=LogPolynomial((1j,)))
    spec = dict(a=F(-1, 3), b=F(-1, 4), p=1, q=1, j=0, k=1, chirality=Chirality.ANTI)
    roots = frozenset({F(-5, 6)})
    return {
        "LogPolynomial": dict(coefficients=(1 + 0j, 2j)),
        "SingularTerm": dict(r=F(-1, 2), m=1, n=0, poly=LogPolynomial((1j,))),
        "Expansion": dict(terms=[term], smooth_order=2),
        "ExponentSetType": dict(entries={F(-1, 2): 1}),
        "ConvolutionResult": dict(term=term, case=CaseTag.GENERIC, leading_coeff=1j,
                                  degree=0, normalization=0.5),
        "BernsteinCombination": dict(raw=roots, canonical=roots, candidates=roots),
        "KernelSpec": spec,
        "VerificationReport": dict(spec=KernelSpec(**spec), case=CaseTag.GENERIC,
                                   fitted_coeffs=LogPolynomial((0.5 + 0j,)), closed_form=0.5,
                                   relative_error=1e-9, condition_number=10.0,
                                   normalization_used=0.5),
        "MonomialGerm": dict(exponent=3, plateau=0.8, support=0.95),
    }


RECORDS = sorted(_record_arguments())
#: the records whose fields are all immutable, hashable by value
FROZEN = [name for name in RECORDS if name not in ("Expansion", "ExponentSetType")]


def _record(name, **change):
    return getattr(asymconv, name)(**{**_record_arguments()[name], **change})


# (record, changed fields, exception, message): every constructor check
RECORD_FAULTS = [
    ("LogPolynomial", dict(coefficients=(1j, 0j)), ValueError, "leading coefficient must be"),
    ("SingularTerm", dict(r="1/2"), ValueError, r"r must lie in \(-1, 0\], got 1/2"),
    ("SingularTerm", dict(n=-1), ValueError, "n must be an integer >= 0, got -1"),
    ("Expansion", dict(smooth_order=2.0), ValueError, "smooth_order must be an integer >= 0"),
    ("ExponentSetType", dict(entries={"-1": 0}), ValueError, "exponent -1 is not > -1"),
    ("ExponentSetType", dict(entries={"1/2": 0, F(1, 2): 1}), ValueError, "duplicate exponent"),
    ("ConvolutionResult", dict(term=None), ValueError, "term must be absent exactly"),
    ("ConvolutionResult", dict(degree=-2), ValueError, "degree must be >= -1"),
    ("ConvolutionResult", dict(leading_coeff=0j), ValueError, "cannot vanish"),
    ("KernelSpec", dict(a=0.5), TypeError, "expected Fraction, int, or 'p/q' string"),
    ("KernelSpec", dict(b=F(-2)), ValueError, r"need b \+ q/2 > -1"),
    ("KernelSpec", dict(k=-1), ValueError, "k must be an integer >= 0"),
    ("KernelSpec", dict(chirality=5), ValueError, "5 is not a valid Chirality"),
    ("MonomialGerm", dict(exponent=0), ValueError, "exponent must be an integer >= 1"),
    ("MonomialGerm", dict(plateau=1.0), ValueError, "need 0 < plateau < support <= 1"),
]


@pytest.mark.parametrize("name, change, error, message", RECORD_FAULTS,
                         ids=[name for name, _, _, _ in RECORD_FAULTS])
def test_record_checks_run_on_construction_and_replace(name, change, error, message):
    valid = _record(name)
    with pytest.raises(error, match=message):
        _record(name, **change)
    # _replace (and the _make it calls) runs the checks, as dataclasses.replace did
    with pytest.raises(error, match=message):
        valid._replace(**change)
    fields = {**valid._asdict(), **change}
    with pytest.raises(error, match=message):
        type(valid)._make(fields[field] for field in valid._fields)


def test_records_convert_their_input():
    from asymconv import Chirality, ExponentSetType, KernelSpec, SingularTerm

    spec = KernelSpec(a="-1/3", b=1, p=0, q=0, j=0, k=0, chirality="anti")
    assert (spec.a, spec.b, spec.chirality) == (F(-1, 3), F(1), Chirality.HOLO)
    assert type(spec.b) is F and type(spec.chirality) is Chirality
    # anti is kept from q = 1 on, and _replace converts as the constructor does
    assert spec._replace(q=1, chirality="anti").chirality is Chirality.ANTI
    assert spec._replace(a="1/2").a == F(1, 2)
    term = _record("SingularTerm", r="-1/2")
    assert type(term.r) is F and term == _record("SingularTerm")
    assert ExponentSetType({"-1/2": 1}).entries == {F(-1, 2): 1}
    merged = _record("Expansion", terms=[term, term]).terms
    assert merged == [SingularTerm(F(-1, 2), 1, 0, term.poly + term.poly)]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_are_hashable_values(name):
    first, second = _record(name), _record(name)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: name}[second] == name
    # a record is a tuple of its fields
    assert first == tuple(first) == tuple(getattr(first, f) for f in first._fields)


def test_kernel_spec_keys_a_counter():
    counts = collections.Counter([_record("KernelSpec"), _record("KernelSpec", k=0)])
    counts[_record("KernelSpec", b="-1/4")] += 1
    assert counts == {_record("KernelSpec"): 2, _record("KernelSpec", k=0): 1}


def test_expansion_equality_ignores_compensated():
    plain = _record("Expansion")
    flagged = _record("Expansion", compensated=frozenset({(F(-1, 2), 1, 0)}))
    assert plain == flagged and not plain != flagged
    assert flagged.compensated and not plain.compensated
    assert plain != _record("Expansion", smooth_order=3)
    assert plain != _record("Expansion", terms=[])
    assert plain != tuple(plain)


@pytest.mark.parametrize("name", ["Expansion", "ExponentSetType"])
def test_records_with_mutable_fields_are_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(_record(name))


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = _record(name)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_canonical_json_refuses_a_bare_record(name):
    record = _record(name)
    with pytest.raises(TypeError, match="cannot serialize '%s'" % name):
        asymconv.canonical_json(record)
    with pytest.raises(TypeError, match="cannot serialize '%s'" % name):
        asymconv.canonical_json({"record": [record]})
