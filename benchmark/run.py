"""Benchmark of osclab: disorder-averaged experiment configs end to end.

    python3 benchmark/run.py --workload dense-2d --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory.  ``--seed`` is the config seed of the timed rounds.  Each piece
runs in a fresh interpreter: ``measure.py`` once for the timed and traced
work, and ``setup_probe.py`` several times around it for the set-up time,
so that memory and set-up figures belong to this workload alone.  BLAS
thread variables are passed through as found, never set.

Informational lines go to standard output first; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 11

#: Every run must end well within three minutes.
DEADLINE_S = 170.0


def child(script: str, args: list[str], timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter; its last line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{script} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "osclab" / "__init__.py").is_file():
        sys.stderr.write(f"osclab sources not found under {ROOT / 'src'}\n")
        return 2

    start = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    repeats = 0 if args.trace else SETUP_REPEATS
    setup = []

    def probe_setup(times):
        for _ in range(times):
            setup.append(child("setup_probe.py", common, DEADLINE_S)["setup_s"])

    # Half the set-up probes run before the measurement and half after, so
    # that one slow or fast spell of a shared machine does not set the median.
    probe_setup(repeats // 2)
    out = child(
        "measure.py",
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        DEADLINE_S - (time.perf_counter() - start),
    )
    probe_setup(repeats - repeats // 2)
    info = out.pop("info")
    if setup:
        info["setup_s_runs"] = setup
        out["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for key, value in info.items():
        print(json.dumps({key: value}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
