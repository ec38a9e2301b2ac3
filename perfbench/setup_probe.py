"""Time the set-up a run pays before it integrates, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <config.yaml>

Set-up is importing ``dampedwave`` plus ``load_config`` (which validates),
``grid()``, ``reaction()`` and ``initial_fields()``.  Prints one JSON object:
``{"setup_s": <seconds>, "module": <path of the imported package>}``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import dampedwave  # noqa: E402

cfg = dampedwave.load_config(sys.argv[1])
grid = cfg.grid()
cfg.reaction()
cfg.initial_fields(grid)
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "module": dampedwave.__file__}))
