"""The package and the oracles the benchmark uses run without numpy, and
importing the CLI stays cheap."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import draftkit

TESTS = Path(__file__).resolve().parent
SRC = Path(draftkit.__file__).resolve().parent.parent

_PROBE = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import draftkit.cli
from oracles import lcs_length_recursive, levenshtein_recursive
assert levenshtein_recursive("kitten", "sitting") == 3
assert lcs_length_recursive("abcde", "ace") == 3
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_imports_without_numpy():
    proc = _run("-c", _PROBE)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_dataclasses_or_inspect():
    proc = _run(str(TESTS / "import_probe.py"))
    assert proc.returncode == 0, proc.stderr
