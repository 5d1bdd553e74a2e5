"""Cold-process benchmark of the multiarr command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs the workload's
ops in a closed loop: each op is a fresh ``child.py`` process that
imports ``multiarr.cli`` from ``src/``, loads its input, runs one CLI
call with ``--json`` and checks the answer.  A pass runs every op of the
workload once, in an order drawn from the seed; passes repeat until
``--seconds`` have gone by.  The inputs do not depend on the seed: only
the shipped data and the small frozen tables in ``perfbench/data`` have
known answers.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` traced and untraced
passes alternate and the object holds the per-layer metrics of the
traced passes plus the tracing overhead.  A readable summary goes to
standard error, and the full record, with the machine it ran on, to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from child import TRACED

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
OP_TIMEOUT_S = 150
# The speed of the shared 2-core host this was tuned on swings by up to
# 30% for tens of seconds at a time, which no run length averages out,
# and each CPU swings on its own.  The runner and its op processes are
# kept on one CPU, where a fixed exact-arithmetic job timed between
# passes tracks those swings; every time of a pass is scaled to the
# speed at which that job takes CAL_REF_S.
CAL_REF_S = 0.022
DATA = "perfbench/data"


def _op(kind: str, argv: list[str], load: list[list[str]], **expect) -> dict:
    return {"kind": kind, "argv": argv, "load": load, "expect": expect}


def _replay(name: str, exponents: list[int], rows: int) -> dict:
    table, fixture = f"{DATA}/{name}.json", f"{DATA}/{name}.arr"
    return _op(
        "table",
        ["table", "--replay", table, "--fixture", fixture],
        [["file", fixture], ["json", table]],
        exit=0, exponents=exponents, rows=rows,
    )


# Known answers.  g33_a2_kappa and the pinned g34 inputs are the paper's;
# the A:r:l:k answers follow from the closed-form exponents of the family
# (the Ziegler restriction of a free arrangement with exponents
# {1, e2, ..., el} is free with exponents {e2, ..., el}).  A verdict that
# theory leaves open (inductive freeness of the A:r:l:k restrictions,
# refuted {8,8,11}) is the seed program's and is consistent with theory.
WORKLOADS = {
    "search": [
        _op("indfree", ["indfree", "--spec", "A:3:4:2", "--ziegler", "H_{1,2}(1)"], [["spec", "A:3:4:2"]],
            exit=0, verdict="yes", exponents=[4, 7, 8]),
        _op("indfree", ["indfree", "--fixture", "g33_a2_kappa"], [["fixture", "g33_a2_kappa"]],
            exit=0, verdict="yes", exponents=[7, 9, 11]),
    ],
    "replay": [
        _replay("a342_kappa", [4, 7, 8], 14),
        _replay("a444_kappa", [5, 9, 13], 20),
        _replay("a440_kappa", [5, 9, 9], 18),
    ],
    "refute": [
        _op("refute", ["refute", "--fixture", "g33_a2_kappa", "--exponents", "8 8 11"], [["fixture", "g33_a2_kappa"]],
            exit=2, verdict="refuted"),
        _op("refute", ["refute", "--fixture", "g33_a2_kappa", "--exponents", "7 9 11"], [["fixture", "g33_a2_kappa"]],
            exit=0, verdict="chain_found", total=27),
    ],
    "lattice": [
        _op("charpoly", ["charpoly", "--spec", "A:3:4:0"], [["spec", "A:3:4:0"]], exit=0, exponents=[1, 4, 6, 7]),
        _op("charpoly", ["charpoly", "--spec", "A:2:4:4"], [["spec", "A:2:4:4"]], exit=0, exponents=[1, 3, 5, 7]),
    ],
    # Not listed in BENCHMARK.json: the paper-sized inputs whose counters
    # are pinned at the seed program's values.  Run it with --trace 1; a traced counter unlike its pin makes
    # the op fail.  One pass takes minutes.
    "pinned": [
        dict(_op("indfree", ["indfree", "--fixture", "g34_g333_kappa"], [["fixture", "g34_g333_kappa"]],
                 exit=0, verdict="yes", exponents=[13, 16, 19]),
             pins={"induction.nodes": 48, "induction.addition_checks": 200, "induction.containment_rejects": 154}),
        dict(_op("indfree", ["indfree", "--fixture", "g34_a3_kappa_1"], [["fixture", "g34_a3_kappa_1"]],
                 exit=0, verdict="yes", exponents=[13, 19, 23]),
             pins={"induction.nodes": 55, "induction.addition_checks": 194, "induction.containment_rejects": 141}),
        dict(_op("refute", ["refute", "--fixture", "g34_g333_kappa", "--exponents", "14 15 19"],
                 [["fixture", "g34_g333_kappa"]], exit=2, verdict="refuted"),
             pins={"induction.nodes": 3209, "induction.dead_ends": 305}),
        dict(_op("refute", ["refute", "--fixture", "g34_a1a2_kappa", "--exponents", "14 18 23"],
                 [["fixture", "g34_a1a2_kappa"]], exit=2, verdict="refuted"),
             pins={"induction.nodes": 2139, "induction.dead_ends": 313}),
    ],
}

END_TO_END_UNITS = {
    "verdict_s": "s",
    "verdict_s_tail": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}

# Per-layer metrics, with their units, in report order.
LAYER_UNITS = {
    "scalars.mul_calls": "count",
    "scalars.addsub_calls": "count",
    "scalars.inverse_calls": "count",
    "scalars.self_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.rref_s": "s",
    "linalg.echelon_calls": "count",
    "linalg.echelon_s": "s",
    "linalg.nullspace_calls": "count",
    "rank2.pair_calls": "count",
    "rank2.pair_cache_hit_ratio": "ratio",
    "rank2.pair_solver_calls": "count",
    "rank2.pair_solver_s": "s",
    "rank2.pair_solve_ms.mu_le16": "ms",
    "rank2.pair_solve_ms.mu_17_24": "ms",
    "rank2.pair_solve_ms.mu_gt24": "ms",
    "rank2.witness_calls": "count",
    "rank2.witness_s": "s",
    "rank2.witness_kernel_scans": "count",
    "rank2.euler_value_calls": "count",
    "rank2.euler_value_s": "s",
    "rank2.euler_restriction_s": "s",
    "induction.nodes": "count",
    "induction.dead_ends": "count",
    "induction.addition_checks": "count",
    "induction.containment_rejects": "count",
    "induction.edge_accept_ratio": "ratio",
    "induction.self_s": "s",
    "induction.replay_row_ms": "ms",
    "arrangement.lattice_s": "s",
    "arrangement.flats": "count",
    "arrangement.restriction_calls": "count",
    "arrangement.restriction_s": "s",
    "catalog.load_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

NAMES = [name for _, name in TRACED]
LAYER_OF = [module for module, _ in TRACED]
INDUCTION_TOPS = {"is_inductively_free", "additive_refuter", "replay_addition_rows"}
OTHER_LAYERS = {"rank2", "linalg", "arrangement"}
BUCKETS = (("mu_le16", 16), ("mu_17_24", 24), ("mu_gt24", None))


def machine_record() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def run_op(op: dict, traced: bool) -> dict:
    """Spawn one op process and time it from spawn to reaping."""
    spec = json.dumps(dict(op, trace=traced))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(CHILD), str(ROOT), spec],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    t_reaped = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "wall_s": t_reaped - t_spawn,
    }
    report = None
    if proc.returncode == 0:
        try:
            report = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            pass
    if report is None:
        problems = [f"op process exited with {proc.returncode} and no report"]
        return dict(result, ok=False, problems=problems, setup_s=0.0, verdict_s=result["wall_s"])
    result.update(
        ok=not report["problems"],
        problems=report["problems"],
        setup_s=report["t_loaded"] - t_spawn,
        verdict_s=t_reaped - report["t_loaded"],
        report=report,
    )
    return result


def op_layers(report: dict) -> dict:
    """Per-layer counts and times of one traced op, from its spans."""
    spans = report["spans"]
    names = [NAMES[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def ancestor(i: int, name: str) -> int:
        p = spans[i][3]
        while p >= 0 and names[p] != name:
            p = spans[p][3]
        return p

    def covered(i: int) -> float:
        """Time of the outermost rank2/linalg/arrangement spans below i."""
        total = 0.0
        for c in children[i]:
            total += dur[c] if LAYER_OF[spans[c][0]] in OTHER_LAYERS else covered(c)
        return total

    m = dict.fromkeys(LAYER_UNITS, 0)
    solvers: set[int] = set()
    solve_ms: dict[str, list[float]] = {b: [] for b, _ in BUCKETS}
    replay_rows = 0
    replay_s = 0.0
    for i, name in enumerate(names):
        if name == "rref":
            m["linalg.rref_calls"] += 1
            m["linalg.rref_cells"] += spans[i][4]
            m["linalg.rref_s"] += dur[i]
            pair = ancestor(i, "plane_exponent_pair")
            if pair >= 0:
                solvers.add(pair)
        elif name == "extend_echelon" or (name == "reduce_against" and ancestor(i, "extend_echelon") < 0):
            m["linalg.echelon_calls"] += 1
            m["linalg.echelon_s"] += dur[i]
        elif name == "nullspace":
            m["linalg.nullspace_calls"] += 1
            if ancestor(i, "plane_exponents") >= 0:
                m["rank2.witness_kernel_scans"] += 1
        elif name == "plane_exponent_pair":
            m["rank2.pair_calls"] += 1
        elif name == "plane_exponents":
            m["rank2.witness_calls"] += 1
            m["rank2.witness_s"] += dur[i]
        elif name == "common_value":
            m["rank2.euler_value_calls"] += 1
            m["rank2.euler_value_s"] += dur[i]
        elif name == "euler_multiplicity":
            m["rank2.euler_restriction_s"] += dur[i]
        elif name == "check_addition_step":
            m["induction.addition_checks"] += 1
            m["induction.containment_rejects"] += spans[i][4]
        elif name == "intersection_lattice":
            m["arrangement.lattice_s"] += dur[i]
            m["arrangement.flats"] += spans[i][4]
        elif name == "restriction":
            m["arrangement.restriction_calls"] += 1
            m["arrangement.restriction_s"] += dur[i]
        if name in INDUCTION_TOPS and not any(ancestor(i, top) >= 0 for top in INDUCTION_TOPS):
            m["induction.self_s"] += dur[i] - covered(i)
            if name == "replay_addition_rows":
                replay_rows += spans[i][4]
                replay_s += dur[i]
    for i in solvers:
        m["rank2.pair_solver_calls"] += 1
        m["rank2.pair_solver_s"] += dur[i]
        mu = spans[i][4]
        bucket = next(b for b, top in BUCKETS if top is None or mu <= top)
        solve_ms[bucket].append(dur[i] * 1000)
    for group in ("mul", "addsub", "inverse"):
        m[f"scalars.{group}_calls"] = report["scalar"][group][0]
        m["scalars.self_s"] += report["scalar"][group][1]
    m["induction.nodes"] = report["counters"]["nodes"]
    m["induction.dead_ends"] = report["counters"]["dead_ends"]
    m["catalog.load_s"] = report["t_loaded"] - report["t_imported"]
    m["cli.import_s"] = report["t_imported"] - report["t_start"]
    m["_pair_hits"], m["_pair_misses"] = report["pair_cache"]
    m["_replay_rows"], m["_replay_s"] = replay_rows, replay_s
    m["_solve_ms"] = solve_ms
    return m


def pass_layers(per_op: list[dict]) -> dict:
    """Sum the ops of one traced pass; ratios and medians from the sums."""
    total = {k: sum(m[k] for m in per_op) for k in per_op[0] if k != "_solve_ms"}
    lookups = total["_pair_hits"] + total["_pair_misses"]
    total["rank2.pair_cache_hit_ratio"] = total["_pair_hits"] / lookups if lookups else 0.0
    checks = total["induction.addition_checks"]
    accepted = checks - total["induction.containment_rejects"]
    total["induction.edge_accept_ratio"] = accepted / checks if checks else 0.0
    rows = total["_replay_rows"]
    total["induction.replay_row_ms"] = 1000 * total["_replay_s"] / rows if rows else 0.0
    for bucket, _ in BUCKETS:
        pooled = [ms for m in per_op for ms in m["_solve_ms"][bucket]]
        total[f"rank2.pair_solve_ms.{bucket}"] = statistics.median(pooled) if pooled else 0.0
    return total


def calibrate() -> float:
    """Wall time of a fixed job like multiarr's hot loop, without multiarr.

    Gauss-Jordan elimination of a 10 x 10 Fraction matrix, four times.
    """
    size = 10
    base = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(size)] for i in range(size)]
    start = time.perf_counter()
    for _ in range(4):
        work = [row[:] for row in base]
        for c in range(size):
            inv = 1 / work[c][c]
            work[c] = [x * inv for x in work[c]]
            for i in range(size):
                if i != c and work[i][c]:
                    f = work[i][c]
                    work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return time.perf_counter() - start


def tail(values: list[float]) -> float:
    """Highest order statistic with ten samples beyond it.

    Below 21 samples that statistic is at or under the median, and the
    median's upper neighbour is taken instead.
    """
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, len(ordered) // 2)]


def warm_up() -> bool:
    """Import the package once, so byte code is compiled before timing."""
    if not (ROOT / "src" / "multiarr" / "cli.py").is_file():
        print(f"run.py: no multiarr sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    code = "import sys; sys.path.insert(0, 'src'); import multiarr.cli"
    done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, stdin=subprocess.DEVNULL, timeout=OP_TIMEOUT_S)
    return done.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not warm_up():
        return 1

    machine = machine_record()
    machine["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {machine["cpu"]})  # inherited by every op process
    load_start = os.getloadavg()
    rng = random.Random(args.seed)
    ops = WORKLOADS[args.workload]
    passes = []
    problems = []
    deadline = time.monotonic() + args.seconds
    pass_s = 0.0
    calib = [calibrate()]
    # Stop before a pass that would end past the deadline, so a run takes
    # about --seconds.  A traced run needs a traced and an untraced pass.
    while not passes or time.monotonic() + pass_s <= deadline or (args.trace and len(passes) < 2):
        pass_start = time.monotonic()
        traced = bool(args.trace) and len(passes) % 2 == 0
        order = rng.sample(range(len(ops)), len(ops))
        results = []
        for index in order:
            result = run_op(ops[index], traced)
            if result["ok"] and traced:
                result["layers"] = op_layers(result.pop("report"))
                for key, want in ops[index].get("pins", {}).items():
                    if result["layers"][key] != want:
                        result["ok"] = False
                        result["problems"].append(f"{key} = {result['layers'][key]}, pinned at {want}")
            result.pop("report", None)
            if not result["ok"]:
                problems.append({"op": ops[index]["argv"], "problems": result["problems"]})
            results.append(result)
        calib.append(calibrate())
        speed = CAL_REF_S / ((calib[-2] + calib[-1]) / 2)
        passes.append({"traced": traced, "order": order, "speed": speed, "ops": results})
        pass_s = time.monotonic() - pass_start
    load_end = os.getloadavg()

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p["ops"])
    plain = [p for p in passes if not p["traced"]]

    def scaled(p: dict, key: str) -> float:
        return p["speed"] * sum(r[key] for r in p["ops"])

    verdict = [scaled(p, "verdict_s") for p in plain]
    if args.trace:
        traced_passes = [p for p in passes if p["traced"] and all(r["ok"] for r in p["ops"])]
        layers = [pass_layers([r["layers"] for r in p["ops"]]) for p in traced_passes]
        traced_verdict = [scaled(p, "verdict_s") for p in passes if p["traced"]]
        values = {k: statistics.median(layer[k] for layer in layers) if layers else 0.0 for k in LAYER_UNITS}
        values["trace.overhead_s"] = statistics.median(traced_verdict) - statistics.median(verdict)
        units = LAYER_UNITS
    else:
        values = {
            "verdict_s": statistics.median(verdict),
            "verdict_s_tail": tail(verdict),
            "cpu_s": statistics.median(scaled(p, "cpu_s") for p in plain),
            "setup_s": statistics.median(scaled(p, "setup_s") for p in plain),
            "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p["ops"]) for p in plain),
            "ops_ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    for entry in problems[:10]:
        print(f"FAILED {' '.join(entry['op'])}: {'; '.join(entry['problems'])}", file=sys.stderr)
    print(
        f"{args.workload}: seed {args.seed}, {len(plain)} untraced / {len(passes) - len(plain)} traced passes, "
        f"{attempted} ops, {failed} failed; tail = order statistic {max(len(verdict) - 10, len(verdict) // 2 + 1)} of {len(verdict)}",
        file=sys.stderr,
    )
    raw = statistics.median(sum(r["verdict_s"] for r in p["ops"]) for p in plain)
    speed = statistics.median(p["speed"] for p in passes)
    print(f"  host speed factor {speed:.4f} (times below are scaled by it; unscaled verdict_s {raw:.6g} s)", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:32} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": dict(machine, loadavg_start=load_start, loadavg_end=load_end),
        "calibration_s": calib,
        "passes": passes,
        "problems": problems,
        "metrics": metrics,
    }
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
