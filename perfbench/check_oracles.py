"""Negative test of the oracles: one wrong expected answer must fail a job.

Runs every workload once with ``--corrupt-oracle`` (a single pass) and
checks that ``failed_frac`` is above 0 and the run is reported incorrect.

    python3 perfbench/check_oracles.py [--seed N]

Exits 0 when every workload caught its corrupted answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    ok = True
    for workload in ("census", "pairwise", "transform"):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", "0.001", "--trace", "0", "--corrupt-oracle"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        )
        lines = out.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        caught = record["failed_frac"] > 0 and result["correct"] is False
        ok &= caught
        print(f"{workload}: corrupted {record['corrupted']!r}; failed {result['failed']}/"
              f"{result['attempted']} (failed_frac {record['failed_frac']:.5f}) "
              f"{'caught' if caught else 'NOT CAUGHT'}; first failure {record['failures'][:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
