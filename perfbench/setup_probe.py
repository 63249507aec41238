"""Time what every CLI call pays before any work: import svosim, build_setup.

    python3 perfbench/setup_probe.py [PROFILE_CSV]

Prints the seconds from before `import svosim` to after build_setup for
the workload's configuration (the shipped scenario when no profile is
given).  run.py starts it as a fresh process with BLAS pinned.
"""

import sys
import time

start = time.perf_counter()
import svosim.cli_io as cli_io  # noqa: E402  (the import is what is timed)

scenario = sys.argv[1] if len(sys.argv) > 1 else cli_io.SYNTHETIC_SCENARIO
cli_io.build_setup(cli_io.ExperimentConfig(scenario=scenario))
print(repr(time.perf_counter() - start))
