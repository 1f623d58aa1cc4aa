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
