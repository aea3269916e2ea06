"""Set-up probe, run in a fresh interpreter: import spectrig and build a ready detector.

Usage: python3 perfbench/probe.py <workload>
Prints the seconds from before `import spectrig` to a constructed Pipeline.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
start = time.perf_counter()
import spectrig  # noqa: E402

workloads.build_pipeline(spectrig, workload)
print(repr(time.perf_counter() - start))
