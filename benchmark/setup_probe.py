"""Set-up time of one workload, measured in a fresh interpreter.

Times importing the osclab modules the benchmark uses and building and
validating the workload's configs with ``config_from_dict``, and prints the
seconds as JSON.  ``run.py`` starts it several times and takes the median.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from osclab import ensembles, results  # noqa: E402,F401
from osclab.config import config_from_dict  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for doc in WORKLOADS[args.workload].documents(args.seed).values():
        config_from_dict(doc)
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
