"""Build one workload's inputs in a process of their own.

``python3 perfbench/synth.py <workload> <seed> <out.pickle>``, run from the
repository root, writes the pickled inputs to ``out.pickle``.  Synthesis
peaks far above what a run later holds, so ``run.py`` calls this as a child
process to keep it out of the measured process's peak memory.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    name, seed, out = argv
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    traffic = WORKLOADS[name].synthesize(int(seed))
    with open(out, "wb") as handle:
        pickle.dump(traffic, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
