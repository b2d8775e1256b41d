"""Make the benchmark's modules and the program importable in tests.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

for path in (SRC, BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
