"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload shrunk to S_4(132), one instance of each relation
and five CLI commands, untraced and traced, and checks that:

- every metric named in BENCHMARK.json is printed, with its unit, and no other;
- nothing fails on the current sources;
- a corrupted expected value makes the correctness gate fail
  (``failed_ratio`` above 0);
- without the sources, ``run.py`` exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_names(metrics: dict, declared: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{label}: missing {missing}, unexpected {extra}, wrong units {wrong}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number: {m['value']!r}")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark files: the run must fail."""
    bare = run.ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "avoid_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            passes, metrics = run.measure(workload, 1, 1.0, trace, ["--tiny"])
            declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            check_names(metrics, declared, f"{workload} trace={trace}")
            failed = sum(p["failed"] for p in passes)
            if failed:
                raise AssertionError(f"{workload} trace={trace}: {failed} items failed")
        passes, metrics = run.measure(workload, 1, 1.0, 1, ["--tiny", "--corrupt"])
        if not metrics["failed_ratio"]["value"] > 0:
            raise AssertionError(f"{workload}: a corrupted expected value did not fail the gate")
        print(f"{workload}: ok")
    check_bare_directory()
    print("bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
