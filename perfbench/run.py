"""Benchmark entry point: ``python3 perfbench/run.py --help``.

Run from the checkout root; see ``perfbench/README.md``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
