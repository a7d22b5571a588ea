import os
import subprocess
import sys

import tsplocal


def test_package_imports_without_scipy():
    # scipy is only needed by ex_bruteforce, which imports it on first call
    code = (
        "import pkgutil, sys, tsplocal\n"
        "for mod in pkgutil.walk_packages(tsplocal.__path__, 'tsplocal.'):\n"
        "    __import__(mod.name)\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)[:5]\n"
    )
    src = os.path.dirname(os.path.dirname(tsplocal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
