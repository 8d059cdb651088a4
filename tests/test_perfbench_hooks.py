"""The benchmark's traced pass hooks module attributes that must exist.

``perfbench/run.py`` times each layer by replacing functions at the module
attributes where their callers look them up.  A refactor that drops one of
those names breaks ``--trace 1`` with an AttributeError; this test catches
that in the ordinary suite.  The script is loaded by path, unchanged.
"""

import importlib.util
from pathlib import Path

RUN_SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_SCRIPT)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run._targets()
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, missing
