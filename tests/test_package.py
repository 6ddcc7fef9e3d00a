import os
import subprocess
import sys
from pathlib import Path

import qanneal
from qanneal.paths import MomentPath, QPath


def test_every_export_resolves_once():
    names = qanneal.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(qanneal, n)]
    assert not missing, missing


def test_paths_share_one_evaluation_interface():
    # both families evaluate through the base class and their two hooks
    shared = {"log_density", "gradient", "value_and_grad", "log_density_of"}
    for cls in (QPath, MomentPath):
        assert not shared & set(vars(cls)), cls.__name__


def test_import_loads_numpy_only():
    # scipy's import dominates the start-up of every CLI process; the package
    # needs numpy alone, and only the tests load scipy for references
    src = str(Path(qanneal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # numpy.random loads at import, so its cost stays in a run's set-up and
    # out of its first draw
    code = (
        "import sys, qanneal, qanneal.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "True"]
