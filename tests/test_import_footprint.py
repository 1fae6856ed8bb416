"""Cold start: what a fresh interpreter loads for ``import qbsde``.

Every ``qbsde run`` and every benchmark iteration starts a new interpreter,
so the package's import graph is paid on each of them.  The package needs
numpy only: its special functions are numpy ports (``qbsde._special``), and
only the numeric cross-check ``kq_numeric`` needs ``scipy.optimize``, which
it loads on its first call.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Subpackages that ``scipy.optimize`` brings in and the package never needs.
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.fft")

PROBE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import qbsde, qbsde.cli
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
heavy = sorted(m for m in sys.modules if m.startswith({HEAVY!r}))
from qbsde import kq_numeric, kq_threshold
gap = abs(kq_numeric(-1.0) - kq_threshold(-1.0))
print(json.dumps({{"scipy": scipy, "heavy": heavy, "gap": gap,
                  "lazy": "scipy.optimize" in sys.modules}}))
"""


@functools.lru_cache(maxsize=None)
def probe() -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_import_loads_no_scipy():
    assert probe()["scipy"] == []


def test_import_loads_no_optimizer_stack():
    assert probe()["heavy"] == []
    # The lazily imported optimizer still gives the closed form.
    assert probe()["lazy"]
    assert probe()["gap"] <= 1e-10
