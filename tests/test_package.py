"""The package namespaces: a light ``import repro`` and lazy exports."""

import importlib
import os
import subprocess
import sys

import pytest

import repro
import repro.analysis

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The solver stack and the figure drivers: importing the package or the
#: linter must load none of these.
HEAVY_PACKAGES = (
    "repro.core",
    "repro.graph",
    "repro.network",
    "repro.stream",
    "repro.analysis",
)


@pytest.fixture(params=[repro, repro.analysis], ids=lambda p: p.__name__)
def lazy_package(request):
    return request.param


def modules_loaded_by(statement):
    """Module names a fresh interpreter holds after ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@pytest.mark.parametrize("statement", ["import repro", "import repro.lint.cli"])
def test_import_loads_no_solver_module(statement):
    loaded = modules_loaded_by(statement)
    heavy = [
        name
        for name in loaded
        if any(
            name == package or name.startswith(package + ".")
            for package in HEAVY_PACKAGES
        )
    ]
    assert heavy == []


def test_from_import_still_reaches_subpackages():
    loaded = modules_loaded_by("from repro import obs\nobs.enabled()")
    assert "repro.obs" in loaded


def test_every_export_is_the_defining_modules_object(lazy_package):
    names = [name for name in lazy_package.__all__ if name != "__version__"]
    assert len(names) == len(set(names))
    for name in names:
        value = getattr(lazy_package, name)
        defining = importlib.import_module(lazy_package._EXPORTS[name])
        assert getattr(defining, name) is value, name
        if callable(value):  # a class or function names where it is defined
            assert value.__module__ == defining.__name__, name
        # the first access caches the value in the package namespace
        assert vars(lazy_package)[name] is value, name


def test_unknown_attribute_raises_attribute_error(lazy_package):
    # hasattr swallows AttributeError only: any other error propagates
    assert not hasattr(lazy_package, "no_such_name")
