"""The benchmark's tracer reaches every callable that the library binds.

``perfbench/tracer.py`` wraps the public functions and methods of every
``qknot`` module and rebinds each place that holds an original; a binding it
cannot rebind (a ``staticmethod`` aliasing a module function, say) makes every
traced benchmark pass fail.  This runs its own guard, ``unwrapped()``, on the
loaded library, reading the tracer's file as it is.
"""

import importlib.util
from pathlib import Path

import qknot
import qknot.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_the_tracer_leaves_no_binding_unwrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer, main = module.Tracer(), qknot.cli.main
    tracer.install()
    try:
        assert tracer.unwrapped() == []
    finally:
        tracer.uninstall()
    assert qknot.cli.main is main  # the originals are bound again
