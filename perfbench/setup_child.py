"""One set-up, timed in a fresh process: import, paper config, input loading.

    python3 perfbench/setup_child.py <workload> <workdir>

``src/`` must be on PYTHONPATH and the shared containers in <workdir>.
Prints the elapsed seconds; run.py starts it several times and reports
the median as setup_s.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

import pipeline  # noqa: E402  (imports numpy, scipy and every chident module)

pipeline.prepare(sys.argv[1], Path(sys.argv[2]))
print(time.perf_counter() - t0)
