"""Set-up probe, run in a fresh interpreter for every ``setup_s`` sample.

    python3 perfbench/probe.py <src dir> <manifest.json>

Imports ``tgmat.cli`` and parses every input file listed in the manifest
([kind, path] pairs, kind "tensor" or "state") with the program's own
loaders.  Prints its import and load times in ms as one JSON line.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tgmat import cli, spin, tensor  # noqa: E402,F401  (cli: the import being measured)

t1 = time.perf_counter()
with open(sys.argv[2], encoding="utf-8") as fh:
    manifest = json.load(fh)
for kind, path in manifest:
    if kind == "tensor":
        tensor.load_tensor(path)
    else:
        with open(path, encoding="utf-8") as fh:
            spin.state_from_json(json.load(fh))
t2 = time.perf_counter()
print(json.dumps({"import_ms": 1e3 * (t1 - t0), "load_ms": 1e3 * (t2 - t1)}))
