"""One pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per pass, because pattgf keeps its memo
tables (``engine._AVOID_MEMO``/``_ONCE_MEMO``, ``relations._SERIES_CACHE``
and the ``lru_cache``s in ``chebyshev``) as module globals: a warm
process would measure a different program.

    python perfbench/workloads.py WORKLOAD --seed N --spawned-at T
        [--trace FILE] [--setup-only] [--tiny] [--corrupt]
    python perfbench/workloads.py clicmd --argv JSON --item I --trace FILE

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn, so set-up time counts interpreter start.  ``--tiny`` shrinks each
workload for the self-test; ``--corrupt`` falsifies one expected value so
the self-test can show that the correctness gate fails.  The last line
of standard output is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = json.loads((HERE / "data.json").read_text())
SERIES_TERMS = 30
ORACLE_CHECK_N = 10
ORACLE_SAMPLE = 3
RELATION_TERMS = 9
FEQ_ORDERS = (10, 8)
COMMAND_TIMEOUT_S = 60
# On a shared virtual machine the CPU's speed drifts, by up to a quarter
# within minutes on a 2-vCPU VM, and raw times drift with it.  Each pass therefore
# runs a fixed pure-Python kernel between items, about every
# CALIBRATION_PERIOD_S, and reports its times scaled by
# REFERENCE_KERNEL_S / (mean kernel time in that pass): seconds on a machine
# of fixed speed, where the kernel takes REFERENCE_KERNEL_S.
CALIBRATION_PERIOD_S = 0.1
SETUP_KERNELS = 20
REFERENCE_KERNEL_S = 0.002


def speed_kernel() -> int:
    """Fixed work resembling pattgf's: big-integer fractions, tuples, dicts."""
    total = 0
    for _ in range(5):
        acc = Fraction(0)
        table = {}
        for i in range(1, 90):
            acc += Fraction(i % 13 + 1, i + 2)
            table[(i, i % 5)] = [acc.numerator % 97, acc.denominator % 89]
        total += len(table)
    return total


class Calibration:
    """Kernel timings taken between the items of one pass."""

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.runs = 0
        self.last = time.perf_counter()

    def run(self) -> None:
        start = time.perf_counter()
        speed_kernel()
        self.last = time.perf_counter()
        self.kernel_s += self.last - start
        self.runs += 1

    def maybe_run(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATION_PERIOD_S:
            self.run()

    @property
    def scale(self) -> float:
        return REFERENCE_KERNEL_S * self.runs / self.kernel_s


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def s132(k: int) -> list[tuple[int, ...]]:
    """S_k(132), sorted: the maximum splits a permutation into a left part
    holding the values just below it and a right part holding the rest."""

    def gen(lo: int, size: int):
        if size == 0:
            yield ()
            return
        top = lo + size - 1
        for left in range(size):
            for lp in gen(top - left, left):
                for rp in gen(lo, size - 1 - left):
                    yield lp + (top,) + rp

    return sorted(gen(1, k))


def layered_tops(k: int, min_layers: int) -> list[tuple[int, ...]]:
    """Layer tops (k, t_2, ..., t_r), k > t_2 > ... > t_r >= 1, r >= min_layers."""
    out = []
    for mask in range(1 << (k - 1)):
        rest = tuple(t for t in range(k - 1, 0, -1) if mask >> (t - 1) & 1)
        if 1 + len(rest) >= min_layers:
            out.append((k,) + rest)
    return sorted(out)


def text(pat: tuple[int, ...]) -> str:
    return "".join(map(str, pat))


def parse(word: str) -> tuple[int, ...]:
    return tuple(int(c) for c in word)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1-q)*n samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PATTGF_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cold_state_guard() -> None:
    """Refuse to time a warm process: these reads must see fresh globals."""
    from pattgf import engine, relations

    warm = []
    if len(engine._AVOID_MEMO) != 1:
        warm.append(f"engine._AVOID_MEMO has {len(engine._AVOID_MEMO)} entries")
    if len(engine._ONCE_MEMO) != 1:
        warm.append(f"engine._ONCE_MEMO has {len(engine._ONCE_MEMO)} entries")
    if relations._SERIES_CACHE:
        warm.append(f"relations._SERIES_CACHE has {len(relations._SERIES_CACHE)} entries")
    if warm:
        raise RuntimeError("cold-state guard: " + "; ".join(warm))


# -- avoid_sweep --------------------------------------------------------------


def avoid_items(rng: random.Random, tiny: bool) -> list[tuple[str, tuple[int, ...]]]:
    k = 4 if tiny else 8
    items = [("avoid", pat) for pat in s132(k)]
    items += [("once", parse(w)) for w in DATA["once_supported"][str(k)]]
    rng.shuffle(items)
    return items


def avoid_run(item, trace_dir: Path | None):
    from pattgf import algebra, engine

    mode, pat = item
    f = engine.avoid_gf(pat) if mode == "avoid" else engine.once_gf(pat)
    return f, algebra.series_of(f, SERIES_TERMS)


def avoid_gate(items, results, rng: random.Random, corrupt: bool) -> list[str | None]:
    """c_n = Catalan(n) for n < k and c_k = Catalan(k) - 1 for avoid items,
    c_n = 0 for n < k and c_k = 1 for once items; a seeded sample against
    the oracle to n = 10; the digest of the canonical avoid JSON."""
    from pattgf import oracle
    from pattgf.patterns import format_pattern

    k = len(items[0][1])
    verdicts: list[str | None] = []
    for i, ((mode, pat), res) in enumerate(zip(items, results)):
        if res is None:
            verdicts.append("raised")
            continue
        if mode == "avoid":
            expected = [catalan(n) for n in range(k)] + [catalan(k) - 1]
        else:
            expected = [0] * k + [1]
        if corrupt and i == 0:
            expected[k] += 1
        got = list(res[1].coeffs[: k + 1])
        verdicts.append(None if got == expected else f"{mode} {pat}: c_0..c_{k} = {got}")

    avoid_ix = [i for i, (mode, _) in enumerate(items) if mode == "avoid" and results[i] is not None]
    for i in rng.sample(avoid_ix, min(ORACLE_SAMPLE, len(avoid_ix))):
        pat = items[i][1]
        counts = oracle.series(oracle.ConstraintSpec(avoid=(pat,)), ORACLE_CHECK_N).counts
        if list(results[i][1].coeffs[: ORACLE_CHECK_N + 1]) != list(counts):
            verdicts[i] = f"avoid {pat}: disagrees with the oracle to n = {ORACLE_CHECK_N}"

    lines = []
    for i in sorted(avoid_ix, key=lambda i: items[i][1]):
        payload = {"pattern": format_pattern(items[i][1]), "mode": "avoid"}
        payload.update(results[i][0].as_json_dict())
        lines.append(json.dumps(payload))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if len(avoid_ix) < sum(mode == "avoid" for mode, _ in items) or digest != DATA["avoid_json_sha256"][str(k)]:
        # the digest covers every avoid item at once, so each one fails with it
        for i, (mode, _) in enumerate(items):
            if mode == "avoid" and verdicts[i] is None:
                verdicts[i] = f"canonical avoid JSON digest {digest[:16]} differs"
    return verdicts


# -- verify_sweep -------------------------------------------------------------


def verify_items(rng: random.Random, tiny: bool) -> list[tuple]:
    from pattgf.chebyshev import identity_instances

    if tiny:
        items = [("thm31", (3, 1)), ("thm33", (3, 1)), ("remark31", (3, 2, 1)),
                 ("thm21", (2, 1)), ("thm23", (3, 1)), ("thm22feq", None), ("thm32feq", None)]
        items += [("identity", w, identity_instances(w, 4)[0]) for w in ("i", "ii", "iii", "iv", "v", "vi")]
    else:
        items = []
        for k in range(2, 6):
            items += [(rel, tops) for rel in ("thm31", "thm33") for tops in layered_tops(k, 2)]
            items += [("remark31", tops) for tops in layered_tops(k, 3)]
        items += [("thm21", pat) for k in range(1, 6) for pat in s132(k)]
        items += [("thm23", tops) for k in range(2, 8) for tops in layered_tops(k, 2)]
        items += [("thm22feq", None), ("thm32feq", None)]
        items += [("identity", w, kw) for w in ("i", "ii", "iii", "iv", "v", "vi")
                  for kw in identity_instances(w, 12)]
    rng.shuffle(items)
    return items


def verify_run(item, trace_dir: Path | None):
    from pattgf import chebyshev, relations

    if item[0] == "identity":
        return chebyshev.check_identity(item[1], **item[2])
    if item[1] is None:
        return relations.verify_relation(item[0], orders=FEQ_ORDERS).passed
    return relations.verify_relation(item[0], item[1], terms=RELATION_TERMS).passed


def verify_gate(items, results, rng: random.Random, corrupt: bool) -> list[str | None]:
    verdicts = []
    for i, (item, passed) in enumerate(zip(items, results)):
        expected = not (corrupt and i == 0)
        verdicts.append(None if passed is expected else f"{item}: passed={passed}")
    return verdicts


# -- cli_session --------------------------------------------------------------


def cli_items(rng: random.Random, tiny: bool) -> list[dict]:
    """A seeded script of CLI calls.  The mix of command kinds, sizes,
    formats and orders is fixed; the seed picks the patterns and the order."""
    once = {int(k): [parse(w) for w in ws] for k, ws in DATA["once_supported"].items()}
    fmts3, fmts2 = ("plain", "latex", "json"), ("plain", "json")

    def pick(mode: str, k: int) -> tuple[int, ...]:
        return rng.choice(s132(k) if mode == "avoid" else once[k])

    script = []
    for i in range(18):
        script.append(("gf", "avoid", pick("avoid", 3 + i % 6), ["--format", fmts3[i % 3]]))
    for i in range(12):
        script.append(("gf", "once", pick("once", 4 + i % 4), ["--format", fmts3[i % 3]]))
    for i in range(17):
        script.append(("series", "avoid", pick("avoid", 4 + i % 5),
                       ["--terms", str((10, 20, 30)[i % 3]), "--format", fmts2[i % 2]]))
    for i in range(8):
        script.append(("series", "once", pick("once", 4 + i % 4),
                       ["--terms", str((10, 20, 30)[i % 3]), "--format", fmts2[i % 2]]))
    for mode, n_plain, n_also in (("avoid", 15, 5), ("once", 10, 5)):
        for i in range(n_plain + n_also):
            extra = ["--max-n", str(6 + i % 4), "--format", fmts2[i % 2]]
            if i >= n_plain:
                extra += ["--also-avoid", text(pick("avoid", 3 + i % 3))]
            script.append(("oracle", mode, pick(mode, 3 + i % 3), extra))
    for i in range(10):
        script.append(("verify", ("thm22feq", "thm32feq")[i % 2], None, []))
    if tiny:
        script = [script[0], script[18], script[30], script[55], script[90]]

    items = []
    for cmd, mode, pat, extra in script:
        if cmd == "verify":
            argv = ["verify", mode]
        else:
            argv = [cmd, text(pat), "--mode", mode] + extra
        items.append({"argv": argv, "cmd": cmd, "mode": mode, "pattern": pat})
    rng.shuffle(items)
    for index, item in enumerate(items):
        item["index"] = index
    return items


def cli_run(item, trace_dir: Path | None):
    """Run one command; with ``trace_dir``, a traced in-process call instead."""
    if trace_dir is None:
        argv = [sys.executable, "-m", "pattgf", *item["argv"]]
    else:
        argv = [sys.executable, str(HERE / "workloads.py"), "clicmd", "--argv", json.dumps(item["argv"]),
                "--item", str(item["index"]), "--trace", str(trace_dir / f"cmd{item['index']:03d}.json")]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if trace_dir is None:
        return {"rc": proc.returncode, "stdout": proc.stdout}
    if proc.returncode != 0:
        return {"rc": proc.returncode, "stdout": proc.stdout}
    return json.loads(proc.stdout.splitlines()[-1])


def cli_gate(items, results, rng: random.Random, corrupt: bool) -> list[str | None]:
    """Exit code 0, stdout equal to the same call made in-process, and
    oracle tables equal to the symbolic series where one exists."""
    from pattgf import algebra, cli, engine

    verdicts = []
    for i, (item, res) in enumerate(zip(items, results)):
        if res is None:
            verdicts.append("raised")
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(item["argv"])
        expected = buf.getvalue() + ("corrupted" if corrupt and i == 0 else "")
        problem = None
        if res["rc"] != 0 or rc != 0:
            problem = f"exit code {res['rc']} (in-process {rc})"
        elif res["stdout"] != expected:
            problem = "stdout differs from the in-process call"
        elif item["cmd"] == "oracle" and "--also-avoid" not in item["argv"]:
            gf = engine.avoid_gf if item["mode"] == "avoid" else engine.once_gf
            n_max = int(item["argv"][item["argv"].index("--max-n") + 1])
            want = [int(c) for c in algebra.series_of(gf(item["pattern"]), n_max).coeffs]
            out = res["stdout"].strip()
            got = [int(c) for c in json.loads(out)] if out.startswith("[") else [
                int(line.split(",")[1]) for line in out.splitlines()]
            if got != want:
                problem = f"oracle table {got} != series {want}"
        verdicts.append(None if problem is None else f"{item['argv']}: {problem}")
    return verdicts


WORKLOADS = {
    "avoid_sweep": (avoid_items, avoid_run, avoid_gate),
    "verify_sweep": (verify_items, verify_run, verify_gate),
    "cli_session": (cli_items, cli_run, cli_gate),
}


# -- passes -------------------------------------------------------------------


def layer_counters(tracer) -> dict:
    from pattgf import engine, relations

    return {
        "spans": tracer.span_stats(),
        "once_refused": tracer.raised.get("engine.once_gf", {}).get("UnsupportedPattern", 0),
        "max_den_degree": tracer.max_den_degree,
        "catalan_demand": tracer.catalan_demand,
        "avoid_memo_entries": len(engine._AVOID_MEMO),
        "once_memo_entries": len(engine._ONCE_MEMO),
        "series_cache_entries": len(relations._SERIES_CACHE),
    }


def run_pass(args) -> dict:
    import pattgf
    from pattgf import kernels

    if Path(pattgf.__file__).resolve().parent != ROOT / "src" / "pattgf":
        raise RuntimeError(f"imported pattgf from {pattgf.__file__}, not from this checkout")
    build, run_one, gate = WORKLOADS[args.workload]
    tracer = None
    if args.trace and args.workload != "cli_session":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    rng = random.Random(args.seed)
    items = build(rng, args.tiny)
    cold_state_guard()
    setup_raw_s = time.monotonic() - args.spawned_at
    calibration = Calibration()
    if args.setup_only:
        for _ in range(SETUP_KERNELS):
            calibration.run()
        return {"setup_s": setup_raw_s * calibration.scale, "setup_raw_s": setup_raw_s}

    trace_dir = None
    if args.trace and args.workload == "cli_session":
        trace_dir = Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
    results, latencies, errors = [], [], []
    if tracer is not None:
        tracer.enabled = True
    clock = time.perf_counter
    calibration.run()
    kernel_before = calibration.kernel_s
    start = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item_id = i
        t0 = clock()
        try:
            result = run_one(item, trace_dir)
        except Exception:  # one failed item must not end the pass
            result = None
            errors.append(traceback.format_exc())
        latencies.append(clock() - t0)
        results.append(result)
        calibration.maybe_run()
    wall_raw_s = clock() - start - (calibration.kernel_s - kernel_before)
    if tracer is not None:
        tracer.enabled = False
    calibration.run()
    scale = calibration.scale
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        layers = [layer_counters(tracer)]
        tracer.write(args.trace)
    elif trace_dir is not None:
        layers = [r["layers"] for r in results if r is not None and "layers" in r]

    verdicts = gate(items, results, random.Random(f"gate-{args.seed}"), args.corrupt)
    failures = [v for v in verdicts if v is not None]
    for message in errors[:3] + failures[:5]:
        print(message, file=sys.stderr)
    return {
        "setup_s": setup_raw_s * scale,
        "wall_s": wall_raw_s * scale,
        "attempted": len(items),
        "failed": len(failures),
        "item_p50_ms": percentile(latencies, 0.5) * 1e3 * scale,
        "item_p90_ms": percentile(latencies, 0.9) * 1e3 * scale,
        "peak_rss_mb": peak_rss_mb,
        "scale": scale,
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": wall_raw_s,
        "backend": kernels.BACKEND_NAME,
        "python": sys.version.split()[0],
        "layers": layers,
    }


def run_clicmd(args) -> dict:
    """One CLI call, in-process and traced, in this fresh interpreter."""
    from tracer import Tracer, install

    from pattgf import cli

    tracer = Tracer()
    install(tracer)
    tracer.item_id = args.item
    buf = io.StringIO()
    tracer.enabled = True
    with contextlib.redirect_stdout(buf):
        rc = cli.main(json.loads(args.argv))
    tracer.enabled = False
    tracer.write(args.trace)
    return {"rc": rc, "stdout": buf.getvalue(), "layers": layer_counters(tracer)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS) + ["clicmd"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", default=None, help="span output file (directory for cli_session)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--argv", help="clicmd: JSON list of CLI arguments")
    parser.add_argument("--item", type=int, default=-1, help="clicmd: item id for its spans")
    args = parser.parse_args(argv)
    if args.workload == "clicmd":
        result = run_clicmd(args)
    else:
        if args.spawned_at is None:
            args.spawned_at = time.monotonic()
        result = run_pass(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
