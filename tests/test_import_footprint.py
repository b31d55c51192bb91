"""``import repro`` stays light: scipy's heavy submodules load on first use.

``scipy.stats`` (only :class:`~repro.core.comparison.MannWhitneyComparator`
needs it) and ``scipy.linalg`` (only ``RegularizedLeastSquaresTask.run``)
are imported inside their one caller, so importing the package -- every
service, search and benchmark process does -- pays for neither.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("scipy.stats", "scipy.linalg")


def test_import_repro_loads_neither_scipy_stats_nor_linalg():
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import json, sys; import repro; "
        f"print(json.dumps([name for name in {HEAVY!r} if name in sys.modules]))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(completed.stdout) == []


def test_the_deferred_imports_still_serve_their_callers():
    import numpy as np

    from repro.core import Comparison, MannWhitneyComparator
    from repro.tasks import RegularizedLeastSquaresTask

    rng = np.random.default_rng(0)
    fast, slow = rng.normal(1.0, 0.01, 40), rng.normal(2.0, 0.01, 40)
    assert MannWhitneyComparator().compare(fast, slow) is Comparison.BETTER
    task = RegularizedLeastSquaresTask(size=8, iterations=2, name="L1")
    assert np.isfinite(task.run(0.5, rng=np.random.default_rng(1)))
