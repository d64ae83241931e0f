"""Importing the package loads no module it does not need."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_spatial_unloaded():
    # pairwise distances are computed with numpy; scipy.spatial alone
    # costs about 90 ms of import time
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, nessolve; assert 'scipy.spatial' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_experiments_import_leaves_mpmath_and_scipy_integrate_unloaded():
    # mpmath is a test-only dependency, and scipy.integrate alone costs
    # about 0.24 s of import time against a set-up of about 0.5 s
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, nessolve.experiments; "
            "loaded = {'mpmath', 'scipy.integrate'} & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
