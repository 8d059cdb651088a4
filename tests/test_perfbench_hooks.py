"""The benchmark's traced pass hooks module attributes that must exist.

``perfbench/run.py`` times each layer by replacing functions at the module
attributes where their callers look them up.  A refactor that drops one of
those names breaks ``--trace 1`` with an AttributeError, and one that stops
calling through a name leaves its layer timed at zero; these tests catch
both in the ordinary suite.  The scripts are loaded by path, unchanged.
"""

import importlib.util
import sys
from pathlib import Path

RUN_SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load(script, monkeypatch):
    name = f"perfbench_{script}"
    spec = importlib.util.spec_from_file_location(name, RUN_SCRIPT.with_name(script))
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the script runs.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(monkeypatch):
    run = _load("run.py", monkeypatch)
    targets = run._targets()
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, missing


# Hooks that resolve but that no workload's traced op calls.  Each is a
# benchmark fault to mend there; the list shrinks as the hooks are mended.
NEVER_CALLED = {
    *(f"{module}.{name}_numbers" for module in ("cli", "harness")
      for name in ("slide", "assembly", "level")),
    "slide_stats.assembly_numbers",
    "slide_stats.psi1",
    "slide_stats.psi2_conjectured",
    "slide_stats.step_slide_function",
}


def test_every_other_traced_attribute_is_called(monkeypatch, tmp_path):
    run = _load("run.py", monkeypatch)
    workloads = _load("workloads.py", monkeypatch)
    calls = {}
    for module, attr, _, _ in run._targets():
        hook = f"{module.__name__.removeprefix('slidestats.')}.{attr}"
        calls[hook] = 0

        def counting(*args, _hook=hook, _original=getattr(module, attr), **kwargs):
            calls[_hook] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    sizes = workloads.Sizes(2000, 300, 2, 60, 2, 300)
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload.op(workload.setup(1, sizes, workdir), "trace")
    assert {hook for hook, count in calls.items() if not count} == NEVER_CALLED
