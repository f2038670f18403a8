"""One cold set-up of a batch workload, in a fresh interpreter.

``python3 perfbench/coldstart.py <workload> <seed> <size>`` imports what
the workload's operation needs, builds its inputs, prints ``ready`` and
exits.  ``run.py`` times spawn to ``ready`` several times per run and
reports the median as ``setup_s``: the cost a user pays before their
first operation can start.
"""

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

if __name__ == "__main__":
    sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))
    import inputs

    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    for module in inputs.IMPORTS[name]:
        importlib.import_module(module)
    inputs.GENERATORS[name](seed, size)
    print("ready", flush=True)
