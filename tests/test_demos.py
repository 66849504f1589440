"""Every demo runs to completion in process.

A demo imports the names it needs from the package, so a removed export
that a demo still reads fails here. Demos 01 (closed-form entries, via
``FlipSet``), 03 (LSI certification) and 04 (critical hitting, via
``decompose``) each take well under a second; demos 02 (one-step sampling
at 10^6 trials per start state) and 05 (covariance decay) take a few
seconds each. The README's library quick start runs too.
"""

import os
import re
import runpy

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("name", [
    "01_exact_kernel_certification.py",
    "02_sampling_vs_exact_law.py",
    "03_log_sobolev_certification.py",
    "04_critical_point_oscillation.py",
    "05_covariance_spectrum_decay.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quick_start_runs(capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README.md has no Python block under '## Library quick start'"
    exec(compile(block.group(1), "README.md quick start", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()
