import ast
import os
import subprocess
import sys
from pathlib import Path

import tsplocal


def test_package_imports_without_scipy():
    # numpy is the only dependency: with scipy blocked from import, every module
    # loads and the exact ex(n, g) search still runs
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import pkgutil, tsplocal\n"
        "for mod in pkgutil.walk_packages(tsplocal.__path__, 'tsplocal.'):\n"
        "    __import__(mod.name)\n"
        "from tsplocal.extremal import ex_bruteforce\n"
        "assert ex_bruteforce(6, 6)[0] == 6\n"
    )
    src = os.path.dirname(os.path.dirname(tsplocal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def _imports_localsearch(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [("." * node.level) + (node.module or "")]
            names += [f"{names[0]}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any("localsearch" in name.split(".") for name in names):
            return True
    return False


def test_certifiers_do_not_import_the_search():
    # A certifier never calls the search it certifies. improv_cert is the one
    # exception: the 2-matching model (TwoMatching, count_structure) still
    # lives in localsearch.improv, and perfbench counts count_structure calls
    # by wrapping that module's attribute, so moving it changes those counts.
    certify = Path(tsplocal.__file__).parent / "certify"
    importers = {p.stem for p in certify.glob("*.py") if _imports_localsearch(p)}
    assert importers == {"improv_cert"}
