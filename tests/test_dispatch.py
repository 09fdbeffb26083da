"""Verdicts do not depend on which of numpy's SIMD kernels run.

numpy dispatches exp, log and power to kernels chosen by the CPU, and
those kernels round differently in the last bits.  Reports are
byte-identical only per numpy build and dispatch level; exit codes and
check verdicts must hold across levels.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_digests.py"


def cpu_dispatch():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cpu_dispatch()


def verdicts(printout: str, outdir: Path) -> dict:
    """Call id -> (exit code, [(check, passed)]) of every call in a report_digests printout."""
    calls = {}
    for call_id, code in re.findall(r"^(\S+) exit=(\d+) ", printout, flags=re.M):
        report = outdir / f"{call_id}.json"
        checks = json.loads(report.read_text()).get("checks", []) if report.exists() else []
        calls[call_id] = int(code), [(check["name"], check["passed"]) for check in checks]
    return calls


def test_verdicts_hold_with_every_dispatched_kernel_disabled(tmp_path):
    _, enabled = cpu_dispatch()
    if not enabled:
        pytest.skip("numpy dispatches no kernel above its baseline here")
    levels = {"default": {}, "baseline": {"NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}}
    children = {
        level: subprocess.Popen(
            [sys.executable, str(TOOL), str(tmp_path / level)], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **extra},
        )
        for level, extra in levels.items()
    }
    printouts = {}
    for level, child in children.items():
        printouts[level], err = child.communicate()
        assert child.returncode == 0, err
    # the first line names the kernels: all of them, then none above the baseline
    assert printouts["default"].splitlines()[0].endswith("dispatch " + " ".join(enabled))
    assert printouts["baseline"].splitlines()[0].endswith("dispatch -")
    default, baseline = (verdicts(printouts[level], tmp_path / level) for level in levels)
    assert len(default) > 80 and sum(bool(checks) for _, checks in default.values()) > 40
    assert default == baseline
