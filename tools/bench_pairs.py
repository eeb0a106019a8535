"""Write or check a ``BENCH_<PR>.json`` file: perfbench runs of a parent and
a change checkout, alternating.

Write mode runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in each checkout, one pair at a time, the side that runs first
swapping every pair so that neither side always runs on a warmer machine.
Per workload and side it keeps every run's end-to-end metrics with their
median and quartiles (linear interpolation), counts the pairs in which the
change did better, and takes the ratio of the medians.  Each checkout's own
``BENCHMARK.json`` names the metrics and which way is better.  It can also
count the ops a run judges to fail at a list of seeds: that count depends
on the seed alone, so one short run per seed and side gives it.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr N \\
        --what "..." --workload tableau-eval:10 --workload chain-kernel:3 \\
        --seed 7 --seconds 16 --other-seed 11:tableau-eval:3 \\
        --failed-seeds 0-9 --out BENCH_N.json

Check mode reads committed files and exits 1 if one lacks a required key,
has a run count that differs from its pair count, or has a median outside
its quartiles:

    python3 tools/bench_pairs.py --check BENCH_*.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

FAIL_RUN_SECONDS = 0.5  # the failure count does not depend on the run length
REQUIRED = ("pr", "what", "parent", "change", "env", "command", "workloads")
SIDE_KEYS = ("git_sha", "src_sha256")
WORKLOAD_KEYS = ("pairs", "first_of_pair", "parent", "change",
                 "change_better_in_pairs", "median_ratio_change_over_parent")
SUMMARY_KEYS = ("median", "q1", "q3", "runs")


def src_sha256(checkout: str) -> str:
    """sha256 over the files under ``src/``, by sorted relative path: each
    path, a NUL byte, then the file's bytes.  Caches are skipped."""
    digest = hashlib.sha256()
    root = os.path.join(checkout, "src")
    paths = []
    for folder, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info")]
        paths += [os.path.relpath(os.path.join(folder, f), root) for f in files if not f.endswith(".pyc")]
    for rel in sorted(paths):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_sha(checkout: str) -> str:
    try:
        out = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def end_to_end(checkout: str) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line, with the failing ops' labels."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["failures"] = sorted({ln.split("failed: ", 1)[1] for ln in lines if ln.startswith("#   failed: ")})
    return result


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def pairs_of(args, workload: str, seed: int, pairs: int, better: dict[str, str]) -> dict:
    """``pairs`` alternating pairs of one workload at one seed."""
    runs = {"parent": [], "change": []}
    first = []
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(getattr(args, side), workload, seed, args.seconds))
            print(f"# {workload} seed={seed} pair {k + 1}/{pairs} {side}: "
                  f"{runs[side][-1]['metrics']['ops_per_s']['value']:.1f} ops/s", file=sys.stderr)
    entry = {"pairs": pairs, "first_of_pair": first}
    for side, results in runs.items():
        entry[side] = {name: summary([r["metrics"][name]["value"] for r in results]) for name in better}
        entry[side]["attempted"] = sorted({r["attempted"] for r in results})
        entry[side]["failed"] = sorted({r["failed"] for r in results})
    wins, ratios = {}, {}
    for name, way in better.items():
        p, c = entry["parent"][name]["runs"], entry["change"][name]["runs"]
        won = sum((b > a) if way == "higher" else (b < a) for a, b in zip(p, c))
        wins[name] = f"{won}/{pairs}"
        ratios[name] = entry["change"][name]["median"] / entry["parent"][name]["median"]
    entry["change_better_in_pairs"], entry["median_ratio_change_over_parent"] = wins, ratios
    return entry


def failed_by_seed(args, workloads: list[str], seeds: list[int]) -> dict:
    found = {"note": "distinct ops judged per seed (one short run per seed and side), "
                     "attempted and failed; the change's failing ops by label"}
    for workload in workloads:
        found[workload] = {}
        for side in ("parent", "change"):
            found[workload][side] = {}
            for seed in seeds:
                r = run_once(getattr(args, side), workload, seed, FAIL_RUN_SECONDS)
                found[workload][side][str(seed)] = {"attempted": r["attempted"], "failed": r["failed"]}
                if side == "change" and r["failures"]:
                    found[workload][side][str(seed)]["failing_ops"] = r["failures"]
    return found


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def write(args) -> int:
    better = end_to_end(args.change)
    plan = [(w, int(n)) for w, n in (item.split(":") for item in args.workload)]
    data = {
        "pr": args.pr,
        "what": args.what,
        "parent": {"git_sha": git_sha(args.parent), "src_sha256": src_sha256(args.parent)},
        "change": {"git_sha": args.change_sha or git_sha(args.change), "src_sha256": src_sha256(args.change)},
        "env": {
            "python": platform.python_version(),
            **{m: __import__(m).__version__ for m in ("numpy", "mpmath")},
            "nproc": os.cpu_count(),
        },
        "machine": args.machine,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} "
                   "--trace 0, parent and change alternating, the first side swapping every pair",
        "workloads": {w: pairs_of(args, w, args.seed, n, better) for w, n in plan},
    }
    if args.other_seed:
        data["other_seeds"] = {}
        for item in args.other_seed:
            seed, workload, n = item.split(":")
            data["other_seeds"].setdefault(seed, {})[workload] = pairs_of(args, workload, int(seed), int(n), better)
    if args.failed_seeds:
        data["failed_by_seed"] = failed_by_seed(args, [w for w, _ in plan], parse_seeds(args.failed_seeds))
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"# wrote {args.out}", file=sys.stderr)
    return 0


def problems(data: dict) -> list[str]:
    """What a BENCH file lacks or gets wrong; empty if it is well formed."""
    found = [f"no key {k!r}" for k in REQUIRED if k not in data]
    for side in ("parent", "change"):
        found += [f"{side}: no key {k!r}" for k in SIDE_KEYS if k not in data.get(side, {})]
    groups = [("", data.get("workloads", {}))]
    groups += [(f"seed {s} ", w) for s, w in data.get("other_seeds", {}).items()]
    for label, workloads in groups:
        for name, entry in workloads.items():
            where = f"{label}{name}"
            missing = [k for k in WORKLOAD_KEYS if k not in entry]
            found += [f"{where}: no key {k!r}" for k in missing]
            if missing:
                continue
            for side in ("parent", "change"):
                for metric, s in entry[side].items():
                    if metric in ("attempted", "failed"):
                        continue
                    if any(k not in s for k in SUMMARY_KEYS):
                        found.append(f"{where} {side} {metric}: needs {', '.join(SUMMARY_KEYS)}")
                    elif not s["q1"] <= s["median"] <= s["q3"]:
                        found.append(f"{where} {side} {metric}: median {s['median']} outside [{s['q1']}, {s['q3']}]")
                    elif len(s["runs"]) != entry["pairs"]:
                        found.append(f"{where} {side} {metric}: {len(s['runs'])} runs for {entry['pairs']} pairs")
    return found


def check(paths: list[str]) -> int:
    bad = 0
    for path in paths:
        with open(path) as fh:
            found = problems(json.load(fh))
        for p in found:
            print(f"{path}: {p}")
        bad += bool(found)
    print(f"# checked {len(paths)} file(s), {bad} with problems")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs="+", metavar="FILE", help="check BENCH files and exit")
    parser.add_argument("--parent", help="the parent checkout")
    parser.add_argument("--change", help="the change checkout")
    parser.add_argument("--change-sha", help="the change's commit, if it is not yet made")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--what", default="")
    parser.add_argument("--machine", default=f"{os.cpu_count()} cores; timings scaled by perfbench's speed probe")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME:PAIRS")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--other-seed", action="append", default=[], metavar="SEED:NAME:PAIRS")
    parser.add_argument("--failed-seeds", metavar="LO-HI", help="count failing ops at these seeds")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if not (args.parent and args.change and args.pr is not None and args.workload and args.out):
        parser.error("write mode needs --parent, --change, --pr, --workload and --out")
    return write(args)


if __name__ == "__main__":
    sys.exit(main())
