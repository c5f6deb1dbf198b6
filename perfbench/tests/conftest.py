"""Put the benchmark's modules and the library on the import path.

Run with ``python -m pytest perfbench/tests`` from the checkout root.
"""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_BENCH.parent / "src"))
sys.path.insert(0, str(_BENCH))
