"""Start-up: scipy loads only with the first k-d tree.

The pytest process has long imported ``scipy.spatial`` through other test
modules, so each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import slidestats


def run_fresh(script, *args):
    """Run ``script`` in a new interpreter that imports the package from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(slidestats.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


STARTUP = """
    import contextlib, io, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import slidestats, slidestats.cli
    from slidestats import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--version"])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        assert cli.main(["validate"]) == 0
        assert cli.main(["entropy", "uniform"]) == 0
        assert cli.main(["stats", sys.argv[1], "--stat", "slide,level"]) == 0
        assert cli.main(["stats", sys.argv[1], "--stat", "assembly"]) == 0
    assert not scipy_modules(), scipy_modules()

    extraction = getattr(slidestats, sys.argv[2])
    extraction(slidestats.PointSet.from_coords([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    if sys.argv[3] == "True":
        assert "scipy.spatial" in sys.modules
    else:
        assert not scipy_modules(), scipy_modules()
"""


@pytest.mark.parametrize(
    "extraction, loads",
    [("nn_distances", True), ("pairwise_distances", False)],
    ids=["nn_distances", "pairwise_distances"],
)
def test_scipy_loads_only_with_the_k_d_tree(tmp_path, extraction, loads):
    line_file = tmp_path / "line.csv"
    line_file.write_text("".join(f"{x * x}\n" for x in range(20)))
    run_fresh(STARTUP, line_file, extraction, loads)
