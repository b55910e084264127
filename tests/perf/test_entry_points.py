"""Every documented ``python -m repro.perf*`` entry point — and the
offline-oracle CLI, moved out of ``repro.chaos.oracles`` for the same
reason — starts clean.

``repro.perf``'s package init once imported ``gate`` and ``campaign``
eagerly, so running either with ``-m`` executed its module body twice
and runpy said so (``RuntimeWarning: 'repro.perf.gate' found in
sys.modules after import of package 'repro.perf'``).  Promoting that
warning to an error makes the regression an exit status."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("module", [
    "repro.perf", "repro.perf.campaign", "repro.perf.gate",
    "repro.chaos.offline",
])
def test_help_exits_zero_with_runtime_warnings_as_errors(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
         "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert f"usage: python -m {module}" in result.stdout
    assert result.stderr == ""


def test_package_names_resolve_lazily_and_completely():
    import repro.perf as perf

    for name in perf.__all__:
        assert getattr(perf, name) is not None
    with pytest.raises(AttributeError):
        perf.wall_clock
