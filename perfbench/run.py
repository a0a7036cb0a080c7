"""pattgf benchmark: one command, fresh interpreters, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/pattgf``.  Every pass
of a workload runs in its own interpreter (see ``workloads.py``).

``--trace 0`` repeats passes while another pass still fits in
``--seconds`` (always at least one), adds set-up-only interpreters so
that set-up time is a median of several, and prints the end-to-end
metrics.  ``--trace 1`` makes one untraced and one traced pass plus the
interpreter and import probes, and prints the per-layer metrics; span
files go to ``.perfbench/trace/``.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit); the line before it is the run's
metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import Calibration, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("avoid_sweep", "verify_sweep", "cli_session")
SETUP_PROBES = 9
STARTUP_PROBES = 5
RUN_BUDGET_S = 170

UNITS = {"calls": "count", "self_s": "s"}
# Per-layer metrics taken straight from span statistics.
SPAN_METRICS = [
    "patterns.flatten.calls", "patterns.flatten.self_s",
    "patterns.canonical_decompose.calls", "patterns.canonical_decompose.self_s",
    "patterns.occurrence_count.calls", "patterns.occurrence_count.self_s",
    "patterns.classify.calls", "patterns.classify.self_s",
    "algebra.normalize.calls", "algebra.normalize.self_s",
    "algebra.polynomial_gcd.calls", "algebra.polynomial_gcd.self_s",
    "algebra.poly_mul.calls", "algebra.poly_mul.self_s",
    "algebra.series_of.calls", "algebra.series_of.self_s",
    "algebra.powerseries_mul.self_s", "algebra.bivariate.self_s",
    "chebyshev.check_identity.calls", "chebyshev.check_identity.self_s",
    "chebyshev.r_func.calls",
    "engine.avoid_gf.calls", "engine.avoid_gf.self_s", "engine.avoid.calls",
    "engine.once_gf.calls", "engine.once_gf.self_s", "engine.phi_psi.self_s",
    "oracle.count.calls", "oracle.count.self_s", "oracle.kernel.self_s",
    "oracle.enumerate_avoiders.calls", "oracle.enumerate_avoiders.self_s",
    "relations.verify_relation.calls", "relations.verify_relation.self_s",
    "cli.main.self_s",
]


def run_process(cmd: list[str], deadline: float) -> str:
    """Run ``cmd`` in its own process group and return its standard output.

    On timeout the whole group is killed, so no grandchild outlives the run.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    return out


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one workload interpreter; return its JSON result and wall time."""
    spawned = time.monotonic()
    out = run_process([sys.executable, str(HERE / "workloads.py"), *args, "--spawned-at", repr(spawned)], deadline)
    lines = out.splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(args)} printed no result")
    return json.loads(lines[-1]), time.monotonic() - spawned


def probe(code: str, deadline: float, calibration: Calibration) -> float:
    """Wall time of a fresh interpreter running ``code``, or the time it
    prints, before scaling (see ``workloads.Calibration``)."""
    calibration.run()
    start = time.perf_counter()
    out = run_process([sys.executable, "-c", code], deadline)
    wall = time.perf_counter() - start
    return float(out) if out.strip() else wall


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    def med(key):
        return statistics.median(p[key] for p in passes)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(med("wall_s"), "s"),
        "items_per_s": metric(statistics.median(p["attempted"] / p["wall_s"] for p in passes), "1/s"),
        "item_p50_ms": metric(med("item_p50_ms"), "ms"),
        "item_p90_ms": metric(med("item_p90_ms"), "ms"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "passed_ratio": metric(1 - failed / attempted, "ratio"),
    }


def merge_layers(parts: list[dict]) -> dict:
    """Sum span statistics and counters over traced processes."""
    counters = ("once_refused", "catalan_demand", "avoid_memo_entries", "once_memo_entries",
                "series_cache_entries")
    merged = {key: sum(part[key] for part in parts) for key in counters}
    merged["max_den_degree"] = max(part["max_den_degree"] for part in parts)
    merged["processes"] = len(parts)
    merged["spans"] = {
        name: {stat: sum(part["spans"][name][stat] for part in parts) for stat in ("calls", "self_s")}
        for name in parts[0]["spans"]
    }
    return merged


def per_layer(plain: dict, traced: dict, interpreter_s: float, import_s: float, workload: str) -> dict:
    layers = merge_layers(traced["layers"])
    spans, procs = layers["spans"], layers["processes"]
    out = {}
    for name in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        value = spans[span][stat] * (traced["scale"] if stat == "self_s" else 1)
        out[name] = metric(value, UNITS[stat])

    # Each traced process starts with one entry in each memo table, so a
    # call that misses adds exactly one entry; the rest are hits.
    avoid_calls = spans["engine.avoid"]["calls"]
    avoid_misses = layers["avoid_memo_entries"] - procs
    lookups = spans["relations.series_cache_lookup"]["calls"]
    cache_misses = layers["series_cache_entries"]
    command_ms = plain["item_p50_ms"] if workload == "cli_session" else 0.0
    out.update({
        "algebra.max_den_degree": metric(layers["max_den_degree"], "count"),
        "engine.avoid_memo_entries": metric(layers["avoid_memo_entries"], "count"),
        "engine.avoid_memo_hit_ratio": metric((avoid_calls - avoid_misses) / avoid_calls if avoid_calls else 0.0, "ratio"),
        "engine.once_refused": metric(layers["once_refused"], "count"),
        "engine.once_memo_entries": metric(layers["once_memo_entries"], "count"),
        "oracle.catalan_demand": metric(layers["catalan_demand"], "count"),
        "relations.series_cache_entries": metric(layers["series_cache_entries"], "count"),
        "relations.series_cache_lookups": metric(lookups, "count"),
        "relations.series_cache_hit_ratio": metric((lookups - cache_misses) / lookups if lookups else 0.0, "ratio"),
        "cli.interpreter_s": metric(interpreter_s, "s"),
        "cli.import_s": metric(import_s, "s"),
        "cli.command_p50_ms": metric(command_ms, "ms"),
        "cli.startup_share": metric((interpreter_s + import_s) * 1e3 / command_ms if command_ms else 0.0, "ratio"),
        "trace.untraced_wall_s": metric(plain["wall_s"], "s"),
        "trace.traced_wall_s": metric(traced["wall_s"], "s"),
        "trace.overhead_s": metric(traced["wall_s"] - plain["wall_s"], "s"),
        "failed_ratio": metric((plain["failed"] + traced["failed"]) / (plain["attempted"] + traced["attempted"]), "ratio"),
    })
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, trace: int, extra: list[str]) -> tuple[list[dict], dict]:
    """Run the passes and probes of one benchmark run; return passes and metrics.

    ``extra`` is passed to every workload interpreter (the self-test
    uses it for ``--tiny`` and ``--corrupt``).
    """
    base = [workload, "--seed", str(seed), *extra]
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    if trace:
        trace_dir = ROOT / ".perfbench" / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        target = trace_dir / (workload if workload == "cli_session" else f"{workload}.json")
        plain, _ = run_child(base, deadline)
        traced, _ = run_child(base + ["--trace", str(target)], deadline)
        calibration = Calibration()
        interpreter_s = statistics.median(probe("pass", deadline, calibration) for _ in range(STARTUP_PROBES))
        import_s = statistics.median(
            probe("import time; t = time.perf_counter(); import pattgf.cli; print(time.perf_counter() - t)",
                  deadline, calibration)
            for _ in range(STARTUP_PROBES))
        calibration.run()
        scale = calibration.scale
        return [plain, traced], per_layer(plain, traced, interpreter_s * scale, import_s * scale, workload)
    passes, setups, durations = [], [], []
    while True:
        result, took = run_child(base, deadline)
        passes.append(result)
        setups.append(result["setup_s"])
        durations.append(took)
        if time.monotonic() - started + statistics.median(durations) > seconds:
            break
    for _ in range(SETUP_PROBES):
        setups.append(run_child(base + ["--setup-only"], deadline)[0]["setup_s"])
    return passes, end_to_end(passes, setups)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pattgf benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pattgf" / "__init__.py").is_file():
        print(f"error: no pattgf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        passes, metrics = measure(args.workload, args.seed, args.seconds, args.trace, [])
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "items_per_pass": passes[0]["attempted"],
        "commit": commit(), "src_sha256": source_digest(),
        "python": passes[0]["python"], "backend": passes[0]["backend"], "nproc": os.cpu_count(),
        "stripped_env": sorted(k for k in os.environ if k.startswith("PATTGF_")),
        "speed_scale": [p["scale"] for p in passes],
        "wall_raw_s": [p["wall_raw_s"] for p in passes],
        "elapsed_s": time.monotonic() - started,
    }
    print("meta " + json.dumps(meta))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
