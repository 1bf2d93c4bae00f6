"""Import footprint: the simulator and the optimizer load numpy and nothing heavier.

Every pool, service and fleet worker imports ``repro.spice`` and
``repro.core`` at start-up, so an extra third-party import there is paid by
every process.  scipy belongs to the Gaussian-process baseline only and must
load only when :mod:`repro.gp` (BO-wEI) is imported.
"""

import json
import os
import subprocess
import sys

import pytest

_CHILD = """
import json, sys
for name in sys.argv[1].split(","):
    __import__(name)
print(json.dumps(sorted(name for name in ("networkx", "scipy") if name in sys.modules)))
"""


def _heavy_modules_after(*modules: str) -> list[str]:
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _CHILD, ",".join(modules)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_core_imports_load_neither_networkx_nor_scipy():
    assert _heavy_modules_after("repro", "repro.circuits", "repro.core", "repro.spice") == []


@pytest.mark.parametrize("module", ["repro.gp", "repro.baselines"])
def test_gaussian_process_baseline_is_what_loads_scipy(module):
    assert _heavy_modules_after(module) == ["scipy"]
