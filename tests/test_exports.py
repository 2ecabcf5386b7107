"""The public surface: every name a module exports resolves, and each layer
loads only the layers under it."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import diqkd_lab

MODULES = ("diqkd_lab", *(f"diqkd_lab.{m.name}" for m in pkgutil.iter_modules(diqkd_lab.__path__)))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


_ARCHITECTURES_LOADS = {"architectures", "bellcert", "photonics", "qstate"}
LAYER_LOADS = {
    "qstate": {"qstate"},
    "photonics": {"photonics", "qstate"},
    "bellcert": {"bellcert", "qstate"},
    "architectures": _ARCHITECTURES_LOADS,
    "keyproto": _ARCHITECTURES_LOADS | {"keyproto"},
    "cli": _ARCHITECTURES_LOADS | {"keyproto", "cli"},
}


def fresh_import(module: str, names: str) -> list[str]:
    """Import ``module`` in a fresh interpreter that sees the same package as
    this one, and return the items of the iterable expression ``names`` there."""
    src = str(Path(diqkd_lab.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*{names})"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("layer", LAYER_LOADS)
def test_importing_a_layer_loads_only_the_layers_under_it(layer):
    loaded = fresh_import(
        f"diqkd_lab.{layer}",
        "(m.removeprefix('diqkd_lab.') for m in sys.modules if m.startswith('diqkd_lab.'))",
    )
    assert set(loaded) == LAYER_LOADS[layer]


def test_importing_the_cli_loads_no_process_pool():
    # Sweeps run in the calling process; the pool's imports cost every CLI start.
    loaded = fresh_import(
        "diqkd_lab.cli",
        "(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent'))",
    )
    assert loaded == []
