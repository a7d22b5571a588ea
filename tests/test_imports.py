import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


SRC = Path(tsplocal.__file__).parent.parent


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _imported_modules(source: str, package: str) -> list[str]:
    """Absolute names a module of `package` imports. For `from X import a` both
    X and X.a are listed, since a may be a submodule."""
    parts = package.split(".")
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{prefix}.{base}" if base else prefix
            names.append(base)
            names += [f"{base}.{alias.name}" for alias in node.names]
    return names


def _imports_of(path: Path) -> list[str]:
    package = ".".join(path.parent.relative_to(SRC).parts)
    return _imported_modules(path.read_text(), package)


@pytest.mark.parametrize(
    "source",
    [
        "import tsplocal.localsearch",
        "import tsplocal.localsearch.improv as improv",
        "from tsplocal import localsearch",
        "from tsplocal.localsearch import improv",
        "from .. import localsearch",
        "from ..localsearch.improv import TwoMatching",
    ],
)
def test_resolver_sees_every_import_form(source):
    names = _imported_modules(source, "tsplocal.certify")
    assert any(_within(name, "tsplocal.localsearch") for name in names)


def test_certifiers_do_not_import_the_search():
    # A certifier never calls the search it certifies. improv_cert is the one
    # exception: the 2-matching model (TwoMatching, count_structure) still
    # lives in localsearch.improv, and perfbench counts count_structure calls
    # by wrapping that module's attribute, so moving it changes those counts.
    certify = SRC / "tsplocal" / "certify"
    importers = {
        p.stem
        for p in certify.glob("*.py")
        if any(_within(name, "tsplocal.localsearch") for name in _imports_of(p))
    }
    assert importers == {"improv_cert"}


def test_core_imports_nothing_outside_core():
    # core (graphs, instances, tours, IO) is the bottom layer: every other
    # package may import it, so it imports none of them
    outside = sorted(
        f"{p.relative_to(SRC)}: {name}"
        for p in (SRC / "tsplocal" / "core").rglob("*.py")
        for name in _imports_of(p)
        if _within(name, "tsplocal") and not _within(name, "tsplocal.core")
    )
    assert outside == []


@pytest.mark.parametrize(
    "module", ["core", "extremal", "localsearch", "certify", "adversarial", "cli"]
)
def test_imports_first_in_a_fresh_interpreter(module):
    # an import cycle breaks only when a module on it is imported first
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", f"import tsplocal.{module}"],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
