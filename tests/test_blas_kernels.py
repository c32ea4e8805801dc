"""Tests again under OpenBLAS kernels with and without FMA.

The kNN screen's error bound must hold for any summation order of the
matrix product, fused or not, and the golden outputs must not depend on the
kernel at all.  OpenBLAS's SSE kernel for Nehalem has no FMA, its AVX2
kernel for Haswell has, and both round the products differently from the
kernel the CPU would pick.  OPENBLAS_CORETYPE is read when numpy loads
OpenBLAS, so each kernel gets its own pytest process.  This module is not
test_classifiers.py or test_golden_digests.py, so that process's selection
cannot run it again.
"""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# prints the name of the kernel numpy's OpenBLAS runs, or nothing if numpy
# links no OpenBLAS this can find
CORE_NAME = """
import ctypes
import numpy
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                   "openblas_get_corename"):
        if hasattr(handle, symbol):
            getter = getattr(handle, symbol)
            getter.restype = ctypes.c_char_p
            print(getter().decode())
            raise SystemExit
"""

pytestmark = pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                                reason="OPENBLAS_CORETYPE names x86_64 kernels")

CORES = ["Nehalem", "Haswell"]


def run_pytest_under_kernel(core: str, *args: str) -> None:
    """Run `pytest args` in a process whose numpy runs OpenBLAS's `core`
    kernel, and require that it passes at least one test; skip when numpy's
    OpenBLAS does not take that kernel."""
    import eegauth
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    probe = subprocess.run([sys.executable, "-c", CORE_NAME], env=env,
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    running = probe.stdout.strip()
    if running.lower() != core.lower():
        pytest.skip(f"numpy's OpenBLAS runs {running or 'no kernel this test can name'}, "
                    f"not {core}, under OPENBLAS_CORETYPE={core}")

    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    summary = done.stdout.strip().splitlines()[-1]
    passed = re.search(r"(\d+) passed", summary)
    assert passed and int(passed.group(1)) > 0, summary


@pytest.mark.parametrize("core", CORES)
def test_knn_tests_pass_under_kernel(core):
    run_pytest_under_kernel(core, "tests/test_classifiers.py", "-k", "knn or Knn")


@pytest.mark.parametrize("core", CORES)
def test_golden_outputs_under_kernel(core):
    run_pytest_under_kernel(core, "tests/test_golden_digests.py::test_golden_outputs_unchanged")
