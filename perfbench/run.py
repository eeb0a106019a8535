"""shzeta benchmark: four closed-loop workloads with one client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tableau-eval --seed 1 --seconds 16 --trace 0

``--trace 0`` times every op with no tracing installed and prints the
end-to-end metrics.  ``--trace 1`` runs the same ops untraced, then again
with span wrappers installed around the layer boundaries, and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable table.

Other modes:

    python3 perfbench/run.py --selftest   # short run of every workload
    python3 perfbench/run.py --record     # write perfbench/golden.json
    python3 perfbench/run.py --compare    # diff results against it

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")

# Distinct rounds of inputs drawn in set-up; the timed loop cycles them.
POOL_ROUNDS = 4
# The speed probe runs between ops at most this often, outside op timing.
PROBE_EVERY_S = 0.3
# Timings are scaled to a machine on which speed_probe() takes this long.
PROBE_REF_S = 0.025
# p90 needs at least ten samples above it.
MIN_OPS = 100
SETUP_PROBES = 9
# setup_s is scaled to a machine on which a fresh `python -c "import numpy"`
# takes this long.
REF_STARTUP_S = 0.15
JOBS2_PAIRS = 3
WORKLOAD_NAMES = ("tableau-eval", "identity-suite", "chain-kernel", "exact-oracles")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Unscaled wall-clock versions of the timing metrics, shown in the table.
RAW = {"raw_setup_s": "s", "raw_ops_per_s": "1/s", "raw_op_ms_p50": "ms", "raw_op_ms_p90": "ms"}
# Reported in the table of every run and in the traced run's metrics.
SUMMARY = {
    "fail_share": "ratio",
    "rel_err_log10_mean": "log10",
    "rel_err_log10_max": "log10",
    "jobs2_speedup": "ratio",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") and last != "patterns_per_s" or last == "s":
        return "s"
    return {
        "us_per_call": "us",
        "ns_per_cell": "ns",
        "bytes_computed": "bytes",
        "nonzero_term_ratio": "ratio",
        "nonintersecting_ratio": "ratio",
        "patterns_per_s": "1/s",
        "trace_overhead": "ratio",
    }.get(last, SUMMARY.get(name, "count"))


# ---------------------------------------------------------------------------
# loading the program


def load_package() -> float:
    """Put ``src`` first on the path, import the CLI and return the import time."""
    if not os.path.isfile(os.path.join(SRC, "shzeta", "__init__.py")):
        raise SystemExit(f"perfbench: no shzeta package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import shzeta.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    import shzeta

    if not os.path.abspath(shzeta.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported shzeta from {shzeta.__file__}, not {SRC}")
    return elapsed


def environment(with_caches: bool = False) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "shzeta", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    env = {
        "git_sha": "unknown",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            env["git_sha"] = proc.stdout.strip()
    if with_caches:
        caches = {}
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            try:
                level, kind, size = (
                    open(os.path.join(index, f)).read().strip() for f in ("level", "type", "size")
                )
            except OSError:
                continue
            caches[f"L{level} {kind}"] = size
        env["caches"] = caches
    return env


# ---------------------------------------------------------------------------
# machine speed


_PROBE_BIG = None


def speed_probe() -> float:
    """Seconds for a fixed mix of work that does not touch shzeta: Fraction
    and dict arithmetic, numpy on a cache-resident array, and numpy on an
    array larger than L2 (memory-bound, like the longest chains).

    The speed of a shared machine drifts by tens of percent over tens of
    seconds, and whole runs can land in a fast or a slow period.  Scaling
    each op time by PROBE_REF_S over the probe times measured around it
    removes most of that drift; a change to the program still shows in
    full, because the probe does not run program code.
    """
    import numpy as np

    global _PROBE_BIG
    if _PROBE_BIG is None:
        _PROBE_BIG = np.arange(200001, dtype=np.float64) + 0.5
    small = _PROBE_BIG[:2001]
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 600):
        x += Fraction(1, i * i + 1)
    table = {}
    for i in range(6000):
        table[(i, i % 7)] = i * 0.5
    for _ in range(60):
        np.cumsum(np.exp(-(2.5 + 0.3j) * np.log(small)))
    np.cumsum(np.exp(-(2.5 + 0.3j) * np.log(_PROBE_BIG)))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# sessions and the timed loop


class Session:
    """Seeded inputs for one workload, drawn and warmed up in set-up."""

    def __init__(self, name: str, seed: int, short: bool = False) -> None:
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        rng = random.Random(seed)
        os.makedirs(OUT, exist_ok=True)
        self.rounds = [
            workload.make_round(rng, short, os.path.join(OUT, f"{name}-seed{seed}-r{r}"))
            for r in range(1 if short else POOL_ROUNDS)
        ]
        self._refs: dict[int, object] = {}
        workload.warm_up()

    def reference(self, op):
        """The op's reference, computed on first use (a round may repeat an op)."""
        if id(op) not in self._refs:
            self._refs[id(op)] = op.reference()
        return self._refs[id(op)]


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # wall seconds per op
    scaled: list = field(default_factory=list)  # the same, scaled by the probe
    schedule: list = field(default_factory=list)  # (round, op) in run order
    round_rates: list = field(default_factory=list)  # ops per scaled second
    raw_round_rates: list = field(default_factory=list)  # ops per wall second
    checked: int = 0  # distinct ops judged
    failed: int = 0
    wrong: int = 0  # value off by more than its bound plus VALUE_RTOL
    rel_errs: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_ops(session: Session, seconds: float, min_ops: int, corrupt_first: bool = False) -> Outcome:
    """Closed loop over whole rounds, each round of the pool at least once,
    until both limits are met.

    Every distinct op is judged against its reference once, after its first
    timed run; later runs of the same inputs give the same result.  So
    ``checked``, ``failed`` and ``wrong`` depend on the seed alone, not on
    how many rounds fit in the time.
    """
    out = Outcome()
    judged: set[int] = set()
    timed = 0.0
    r = 0
    while r < len(session.rounds) or timed < seconds or len(out.latencies) < min_ops:
        ri = r % len(session.rounds)
        round_start = timed
        marks: list[int] = []  # index of the op each probe ran before
        probes: list[float] = []
        last_probe = -math.inf
        for k, op in enumerate(session.rounds[ri]):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                marks.append(k)
                probes.append(speed_probe())
                last_probe = time.perf_counter()
            error = None
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed op still counts as attempted
                error = exc
            dt = time.perf_counter() - t0
            timed += dt
            out.latencies.append(dt)
            out.schedule.append((ri, k))
            if id(op) in judged:
                continue
            judged.add(id(op))
            out.checked += 1
            if error is None:
                ref = session.reference(op)
                if corrupt_first and out.checked == 1:
                    ref = op.corrupt(ref)
                verdict = op.judge(result, ref)
                ok, value_ok = verdict.ok, verdict.value_ok
                if verdict.rel_err_log10 is not None:
                    out.rel_errs.append(verdict.rel_err_log10)
            else:
                ok = value_ok = False
            if not ok:
                out.failed += 1
                if len(out.failures) < 5:
                    out.failures.append(f"{op.label}: {error!r}" if error else op.label)
            out.wrong += not value_ok
        n, wall = len(session.rounds[ri]), timed - round_start
        scaled = []
        for k, t in enumerate(out.latencies[-n:]):
            # The median of the probes just before and around this op.
            j = bisect.bisect_right(marks, k) - 1
            scaled.append(t * PROBE_REF_S / statistics.median(probes[max(0, j - 1) : j + 2]))
        out.scaled += scaled
        out.raw_round_rates.append(n / wall)
        out.round_rates.append(n / sum(scaled))
        r += 1
    return out


def jobs2_speedup(pairs: int) -> float:
    """Wall time of `check --builtin all` at --jobs 1 over the same at --jobs 2."""
    from workloads import run_cli

    walls: dict[str, list[float]] = {"1": [], "2": []}
    for i in range(pairs):
        for jobs in ("1", "2") if i % 2 == 0 else ("2", "1"):
            t0 = time.perf_counter()
            rc, _ = run_cli(["check", "--builtin", "all", "--jobs", jobs])
            walls[jobs].append(time.perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"check --builtin all --jobs {jobs} exited {rc}")
    return statistics.median(walls["1"]) / statistics.median(walls["2"])


def probe_setup(name: str, seed: int, probes: int) -> tuple[float, float]:
    """Median time from process start to ready-to-time, in fresh processes:
    scaled by the reference start-up, and unscaled.

    Start-up is mostly process creation, file reads and module loading,
    which the in-process speed probe does not track.  So each set-up
    process follows a fresh ``python -c "import numpy"`` (no shzeta code),
    and the median set-up time is scaled by REF_STARTUP_S over the median
    of those.
    """
    times = []
    refs = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=170)
        refs.append(time.perf_counter() - t0)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=170)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {rc}")
        times.append(elapsed)
    raw = statistics.median(times)
    return raw * REF_STARTUP_S / statistics.median(refs), raw


def summary_metrics(out: Outcome, name: str, jobs_pairs: int) -> dict[str, float]:
    return {
        "fail_share": out.failed / out.checked,
        "rel_err_log10_mean": statistics.fmean(out.rel_errs) if out.rel_errs else 0.0,
        "rel_err_log10_max": max(out.rel_errs) if out.rel_errs else 0.0,
        "jobs2_speedup": jobs2_speedup(jobs_pairs) if name == "identity-suite" else 0.0,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end_run(name: str, seed: int, seconds: float, short: bool = False) -> tuple[dict, dict, Outcome]:
    setup_s, raw_setup_s = probe_setup(name, seed, 1 if short else SETUP_PROBES)
    session = Session(name, seed, short)
    out = run_ops(session, seconds, 0 if short else MIN_OPS)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(out.round_rates),
        "op_ms_p50": _percentile(out.scaled, 50),
        "op_ms_p90": _percentile(out.scaled, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "raw_setup_s": raw_setup_s,
        "raw_ops_per_s": statistics.median(out.raw_round_rates),
        "raw_op_ms_p50": _percentile(out.latencies, 50),
        "raw_op_ms_p90": _percentile(out.latencies, 90),
        **summary_metrics(out, name, 1 if short else JOBS2_PAIRS),
    }
    return metrics, extra, out


def _percentile(seconds: list[float], pct: int) -> float:
    ms = [1000 * t for t in seconds]
    if pct == 50 or len(ms) < 2:
        return statistics.median(ms)
    return statistics.quantiles(ms, n=100)[pct - 1]


def traced_run(name: str, seed: int, seconds: float, import_s: float, short: bool = False) -> tuple[dict, Outcome]:
    import spans
    import workloads

    tracer = spans.Tracer()
    # Set-up is traced too: cold caches (linear extensions, rim
    # decompositions) are filled there.
    tracer.install(extra=(workloads,))
    tracer.active = True
    session = Session(name, seed, short)
    tracer.active = False
    tracer.uninstall()

    out = run_ops(session, seconds / 2, 0)
    tracer.install(extra=(workloads,))
    traced = 0.0
    for k, (ri, oi) in enumerate(out.schedule):
        op = session.rounds[ri][oi]
        tracer.op_id = k
        tracer.active = True
        t0 = time.perf_counter()
        with tracer.span("bench.op"):
            try:
                op.run()
            except Exception:
                pass  # already counted in the untraced pass
        traced += time.perf_counter() - t0
        tracer.active = False
    tracer.uninstall()

    metrics = spans.layer_metrics(tracer)
    metrics["cli.import_s"] = import_s
    metrics["trace_overhead"] = traced / sum(out.latencies) - 1
    metrics.update(summary_metrics(out, name, 1 if short else JOBS2_PAIRS))
    tracer.dump(os.path.join(OUT, f"trace-{name}-seed{seed}.json.gz"))
    return metrics, out


# ---------------------------------------------------------------------------
# output


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"# {title}")
    for key, value in metrics.items():
        print(f"  {key:<48} {value:>16.6g}  {units[key]}")


def result_line(out: Outcome, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": out.wrong == 0,
            "attempted": out.checked,
            "failed": out.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def report(
    name: str, seed: int, trace: bool, seconds: float, import_s: float, short: bool = False
) -> tuple[dict, Outcome]:
    """Run one workload and print its table and result line; return the
    printed metrics."""
    if trace:
        metrics, out = traced_run(name, seed, seconds, import_s, short)
        units = {k: layer_unit(k) for k in metrics}
        print_table(f"{name} seed={seed} per-layer (traced)", metrics, units)
        shown = metrics
    else:
        metrics, extra, out = end_to_end_run(name, seed, seconds, short)
        units = {**END_TO_END, **RAW, **SUMMARY}
        print_table(f"{name} seed={seed} end-to-end (op times scaled by the speed probe)", metrics, units)
        print_table(f"{name} seed={seed} unscaled times, accuracy and parallelism", extra, units)
        shown = {**metrics, **extra}
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# ops={len(out.latencies)} distinct={out.checked} failed={out.failed} wrong_values={out.wrong}")
    for failure in out.failures:
        print(f"#   failed: {failure}")
    print(result_line(out, metrics, units), flush=True)
    return shown, out


# ---------------------------------------------------------------------------
# self-test, record and compare


def selftest(import_s: float) -> int:
    """Short run of every workload, traced and untraced: every named metric
    is printed with its unit, and a corrupted reference counts as a failure."""
    from workloads import WORKLOADS

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = json.load(open(spec_path)) if os.path.isfile(spec_path) else None
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            shown, _ = report(name, 0, trace, 0.0, import_s, short=True)
            if spec:
                kind = "per_layer" if trace else "end_to_end"
                for m in spec[kind]:
                    if m["name"] not in shown:
                        problems.append(f"{name}: metric {m['name']} missing")
                    elif (layer_unit(m["name"]) if trace else END_TO_END[m["name"]]) != m["unit"]:
                        problems.append(f"{name}: unit of {m['name']} differs from BENCHMARK.json")
        session = Session(name, 0, short=True)
        clean = run_ops(session, 0.0, 0)
        corrupted = run_ops(session, 0.0, 0, corrupt_first=True)
        status = "counted" if corrupted.failed == clean.failed + 1 else "NOT counted"
        print(f"# {name}: corrupted reference {status} ({clean.failed} -> {corrupted.failed} failed)")
        if status != "counted":
            problems.append(f"{name}: corrupted reference not counted as a failure")
    for p in problems:
        print(f"# SELFTEST FAIL {p}")
    print(f"# selftest {'passed' if not problems else 'FAILED'}")
    return 1 if problems else 0


def first_round_records(name: str) -> list[dict]:
    """Result records of round 0 at seed 0, the fixed subset kept for diffs."""
    session = Session(name, 0)
    records = []
    for op in session.rounds[0]:
        verdict = op.judge(op.run(), session.reference(op))
        records.append({"op": op.label, "ok": verdict.ok, **verdict.record})
    return records


def _close(a: list, b: list, tol: float) -> bool:
    return abs(complex(*a) - complex(*b)) <= tol


def same_result(new: dict, old: dict) -> bool:
    """Equal up to the certified bounds of both results (exactly, if exact)."""
    if "err_bound" in new:
        return _close(new["value"], old["value"], new["err_bound"] + old["err_bound"])
    if "reports" in new:
        pairs = list(zip(new["reports"], old["reports"]))
        return len(new["reports"]) == len(old["reports"]) and all(
            _close(n[side], o[side], n["budget"] + o["budget"]) for n, o in pairs for side in ("lhs", "rhs")
        )
    if "checks" in new:
        pairs = list(zip(new["checks"], old["checks"]))
        return (new["rc"], len(new["checks"])) == (old["rc"], len(old["checks"])) and all(
            n.get("pass") == o.get("pass")
            and ("lhs" not in n or _close(n["lhs"], o["lhs"], n["budget"] + o["budget"]))
            for n, o in pairs
        )
    return new == old


def record_or_compare(compare: bool) -> int:
    from workloads import WORKLOADS

    if not compare:
        data = {"env": environment(with_caches=True), "seed": 0, "round": 0, "workloads": {}}
        for name in WORKLOADS:
            data["workloads"][name] = first_round_records(name)
        with open(GOLDEN, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        print(f"# wrote {GOLDEN}")
        return 0
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    differ = 0
    for name in WORKLOADS:
        old = golden["workloads"][name]
        new = first_round_records(name)
        for n, o in zip(new, old):
            if n["op"] != o["op"] or not same_result(n, o):
                differ += 1
                print(f"# {name}: {n['op']} differs from the recorded result")
        if len(new) != len(old):
            differ += 1
            print(f"# {name}: {len(new)} ops now, {len(old)} recorded")
    print(f"# compare: {differ} differences against {golden['env'].get('git_sha')}")
    return 1 if differ else 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="shzeta benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--compare", action="store_true")
    args = parser.parse_args(argv)

    import_s = load_package()
    if args.setup_probe:
        Session(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.selftest:
        return selftest(import_s)
    if args.record or args.compare:
        return record_or_compare(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    report(args.workload, args.seed, bool(args.trace), args.seconds, import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
