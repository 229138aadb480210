"""Record the service-trace fingerprints of the default seed.

Usage (from the root of a checkout)::

    python3 perfbench/record_fingerprints.py

Runs every input of seed 0 of every workload twice, requires the two
traces to agree, and writes the per-device fingerprints (16 hex digits
each) to ``perfbench/fingerprints.json``. Operations on seed 0 then fail
their check whenever the program's decisions change. Re-record only in
a change that means to alter scheduling decisions, and say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from op import DEFAULT_SEED, FINGERPRINTS  # noqa: E402
from run import INPUTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def device_fingerprints(workload: str, index: int):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "op.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--index", str(index)],
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload} input {index} fails its checks: {result['failures']}")
    return result["device_fingerprints"]


def main() -> int:
    # Operations compare against the recorded file while it exists.
    if os.path.exists(FINGERPRINTS):
        os.remove(FINGERPRINTS)
    recorded = {}
    for workload in WORKLOADS:
        recorded[workload] = {}
        for index in range(INPUTS):
            first = device_fingerprints(workload, index)
            if device_fingerprints(workload, index) != first:
                raise SystemExit(f"{workload} input {index} is not deterministic")
            recorded[workload][str(index)] = first
            print(f"{workload} input {index}: {len(first)} devices", flush=True)
    with open(FINGERPRINTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
