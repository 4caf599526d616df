"""Time a cold start: import qkdsim.cli (jsonschema included), then load one scenario.

Run in a fresh interpreter with qkdsim on PYTHONPATH:
    python3 perfbench/setup_probe.py SCENARIO
Prints the import time and the load time in seconds.
"""

import sys
from time import perf_counter

start = perf_counter()
from qkdsim import cli  # noqa: E402

imported = perf_counter()
cli.load_scenario(sys.argv[1])
loaded = perf_counter()
print(repr(imported - start), repr(loaded - imported))
