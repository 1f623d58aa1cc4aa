"""The package's public surface and the benchmark tracer's view of it."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types

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
    """(exit code, stdout, NUMPY_BACKED modules loaded) of
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
        [sys.executable, "-c", script, json.dumps(argv), json.dumps(NUMPY_BACKED)],
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
    (["verify", str(DATA / "golden_specs.json")], None, NUMPY_BACKED[:2]),
    (["demo", "monomial", "--n", "2", "--m", "2"], _demo_2_2, NUMPY_BACKED),
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
