"""Start-up: scipy loads only with the first k-d tree or pdist, and before a fork.

The pytest process has long imported ``scipy.spatial`` through other test
modules, so each check runs in a fresh interpreter.
"""

import multiprocessing
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
    assert not scipy_modules(), scipy_modules()

    extraction = getattr(slidestats, sys.argv[2])
    extraction(slidestats.PointSet.from_coords([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    assert "scipy.spatial" in sys.modules
"""


@pytest.mark.parametrize("extraction", ["nn_distances", "pairwise_distances"])
def test_scipy_loads_with_the_first_euclidean_extraction(tmp_path, extraction):
    line_file = tmp_path / "line.csv"
    line_file.write_text("".join(f"{x * x}\n" for x in range(20)))
    run_fresh(STARTUP, line_file, extraction)


PRE_FORK = """
    import dataclasses, sys
    from slidestats import ExperimentConfig, ProcessSpec, StatisticRequest, harness

    original = harness.generate

    def generate_after_scipy(*args, **kwargs):
        # Forked workers inherit this wrapper and the parent's sys.modules.
        if "scipy.spatial" not in sys.modules:
            raise RuntimeError("scipy.spatial was not loaded before the fork")
        return original(*args, **kwargs)

    harness.generate = generate_after_scipy
    config = ExperimentConfig(
        process=ProcessSpec("uniform_cube", {"dim": 2}),
        sample_size=200,
        replicates=8,
        statistics=(StatisticRequest("slide", (1, 2)),),
        master_seed=27,
        workers=2,
    )
    pooled = harness.run_experiment(config)
    serial = harness.run_experiment(dataclasses.replace(config, workers=1))
    pooled = dataclasses.replace(pooled, config=serial.config)
    assert harness.emit_report(pooled) == harness.emit_report(serial)
"""


@pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",
    reason="only forked workers inherit the parent's modules",
)
def test_pool_loads_scipy_before_forking():
    run_fresh(PRE_FORK)
