"""The library names the benchmark's traced mode wraps (``perfbench/spans.py``).

``spans.install`` refuses to trace when a name in ``LAYERS`` is missing from
its ``fermidesc.<layer>`` module or is defined elsewhere, so a library
refactor that moves or renames one breaks ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_spans().LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_resolve_in_their_layer(layer):
    module = importlib.import_module(f"fermidesc.{layer}")
    for name in LAYERS[layer]:
        obj = getattr(module, name, None)
        assert obj is not None, f"fermidesc.{layer} has no {name}"
        assert obj.__module__ == f"fermidesc.{layer}", f"{layer}.{name} is defined in {obj.__module__}"
        assert callable(obj)


def test_cli_import_keeps_scipy_loaded():
    """The benchmark's child records ``sys.modules["scipy"].__version__`` after importing the CLI.

    A fermidesc that no longer imports scipy would end every benchmark run
    with a ``KeyError`` until that runner tolerates a scipy-free library.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, fermidesc.cli; print(sys.modules['scipy'].__version__)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
