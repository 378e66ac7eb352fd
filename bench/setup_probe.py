"""One cold start: import mgnet, build a workload's scenario and agent, exit.

Usage: python3 bench/setup_probe.py '<workload inputs as JSON>' SEED
The benchmark times this whole process from the outside.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import build  # noqa: E402  (needs the paths above)

if __name__ == "__main__":
    build(json.loads(sys.argv[1]), int(sys.argv[2]))
