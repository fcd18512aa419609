import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


class TestUnrunLines:
    """``tools/unrun_lines.py`` takes no arguments: any argument answers at
    once instead of starting the traced Tier-1 run."""

    @staticmethod
    def run(*argv):
        return subprocess.run(
            [sys.executable, str(TOOLS / "unrun_lines.py"), *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_the_usage(self, flag):
        done = self.run(flag)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("List the lines of the package that the Tier-1 suite")

    @pytest.mark.parametrize("argv", [["--bogus"], ["tests"], ["--help", "x"]])
    def test_any_other_argument_is_a_usage_error(self, argv):
        done = self.run(*argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("List the lines of the package that the Tier-1 suite")
