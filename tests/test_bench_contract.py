"""The names the benchmark tracer rebinds must exist in the package.

``bench/tracer.py`` traces the package from outside by rebinding module
attributes (``isingring.cli.build_wolff_kernel``, ``isingring.kernel.decompose``,
...). A renamed or removed name would only break the traced benchmark run, so
this test installs and uninstalls the tracer against the package.
"""

import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves_and_is_restored(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        rebound = [(owner, attr, original) for owner, attr, original in patches
                   if getattr(owner, attr) is not original]
    finally:
        tracer.uninstall()
    # each boundary, plus the cli sampler, chain, iter_chain, hitting and pool hooks
    assert len(patches) == len(tracer_module.BOUNDARIES) + 5
    assert rebound == patches
    for (module, attr, _, _), (owner, patched_attr, _) in zip(tracer_module.BOUNDARIES, patches):
        path, _, cls = module.partition(".")
        assert patched_attr == attr
        assert owner.__name__ == (cls or f"isingring.{path}")
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
