"""Set-up probe: import qcmass.cli and warm up, then exit.

``python3 benchmarks/probe.py <workload>``.  The benchmark times this whole
process, start to exit, several times and reports the median as ``setup_s``.
"""

import sys

from program import load_cli, warm_up

if __name__ == "__main__":
    warm_up(load_cli(), sys.argv[1])
