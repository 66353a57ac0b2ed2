"""The package and the oracles the benchmark uses run without numpy."""

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


def test_imports_without_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
