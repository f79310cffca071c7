"""Set-up path of every workload, timed from outside by run.py:
a fresh interpreter imports gridrisk, loads the case and builds the model.
The host-speed probe runs throughout; the last stdout line is its
(seconds spent in the probe, slowdown factor) as JSON.

Usage: python3 perfbench/setup_probe.py CASE.json
"""

import json
import sys

from hostspeed import HostProbe

probe = HostProbe()
probe.start()
from gridrisk import build_model, load_case_file  # noqa: E402

build_model(load_case_file(sys.argv[1]))
print(json.dumps(probe.stop()))
