"""Smoke runs of every demo at its default arguments."""

import os
import subprocess
import sys

import pytest

import dpdopt

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", sorted(name for name in os.listdir(DEMOS)
                                           if name.endswith(".py")))
def test_demo_exits_zero(script):
    src = os.path.dirname(os.path.dirname(dpdopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
