"""The fast demos run to completion in process.

Demos 01 (closed-form entries, via ``FlipSet``), 03 (LSI certification) and
04 (critical hitting, via ``decompose``) each take well under a second.
Demo 02 (about 22 s of sampling) and demo 05 (about 3 s) are left out to
keep the suite fast.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", [
    "01_exact_kernel_certification.py",
    "03_log_sobolev_certification.py",
    "04_critical_point_oscillation.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out.strip()
