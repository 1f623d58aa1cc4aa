"""The package's public surface and the benchmark tracer's view of it."""

import importlib
import os
import re

import asymconv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_public_name_resolves():
    assert len(set(asymconv.__all__)) == len(asymconv.__all__)
    for name in asymconv.__all__:
        assert getattr(asymconv, name, None) is not None, name


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
    from asymconv.convolution_engine import convolve_terms
    from asymconv.expansion_algebra import Chirality, kernel_term

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
        # Generic, Resonant, OneIntegerFactor and BothInteger pairs
        for a, b, j, k in ((F(-1, 3), F(-1, 4), 0, 0), (F(-1, 2), F(-1, 2), 0, 0),
                           (F(1), F(-1, 4), 1, 0), (F(0), F(1), 1, 1)):
            convolve_terms(kernel_term(a, 1, Chirality.HOLO, j),
                           kernel_term(b, 1, Chirality.ANTI, k))

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
