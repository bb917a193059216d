"""``scipy`` is imported only by the analysis functions that call it.

Importing ``scipy.stats`` takes about a second and tens of MB, so a
campaign process, which never computes a closed form, must not pay for
it at import time.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro
from repro.analysis.capacity_dist import CapacityDistribution

#: What a campaign process imports: the package, the campaign and figure
#: surfaces, the ablations, the store and the CLI.
CAMPAIGN_MODULES = (
    "repro",
    "repro.campaign.session",
    "repro.experiments.figures",
    "repro.experiments.ablation",
    "repro.store",
    "repro.experiments.__main__",
)


def _scipy_loaded_after(code: str) -> bool:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = f"import sys\n{code}\nprint('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip() == "True"


def test_campaign_modules_do_not_import_scipy():
    assert not _scipy_loaded_after("\n".join(f"import {m}" for m in CAMPAIGN_MODULES))


def test_a_closed_form_imports_scipy_when_called():
    assert _scipy_loaded_after(
        "from repro.analysis.capacity_dist import CapacityDistribution\n"
        "CapacityDistribution(d=512, k=537, pfail=0.001).prob_capacity_above(0.5)"
    )
    assert CapacityDistribution(d=512, k=537, pfail=0.001).prob_capacity_above(0.5) > 0.99
