"""Span tracing installed from outside the package, and the per-layer metrics.

The tracer replaces layer-boundary functions of ``shzeta`` with wrappers that
record one span per call: name, start, end, parent span and op id.  Modules
import each other by name (``eval_chain`` is bound in both ``ezzeta`` and
``schurzeta``), so each function is replaced in every ``shzeta.*`` module
namespace that binds it, including module-level dicts such as the CLI's
manifest identity table.  No file of the package is edited.

Generator functions (``ssyt_iter``, ``enumerate_patterns``) get one span per
resume, so their time is the time spent producing items, not the lifetime of
the iterator.

Spans live in flat arrays and are written once, when the benchmark ends.
Only the thread that activated the tracer records; the benchmark drives
every traced op from that one thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import math
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterator

# Counters derived from call arguments or results ("computed", not timed).
Counter = Callable[[dict, tuple, dict, Any], None]


def _count_eval_chain(fn):
    default_cfg = inspect.signature(fn).parameters["cfg"].default

    def count(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
        depth = len(args[0]) if args else len(kwargs["s"])
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg", default_cfg)
        cells = depth * (cfg.cutoff + 1)
        c["ezzeta.dp_cells"] += cells
        # One complex128 value array and one float64 majorant array per cell.
        c["ezzeta.bytes_computed"] += 24 * cells

    return count


def _count_determinant(fn):
    def count(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
        entries = args[0] if args else kwargs["entries"]
        n = len(entries)
        c["identities.determinant.terms"] += math.factorial(n)
        nonzero = 0
        for perm in _permutations(n):
            if all(
                entries[i][j].value != 0 or entries[i][j].err_bound != 0
                for i, j in enumerate(perm)
            ):
                nonzero += 1
        c["identities.determinant.nonzero_terms"] += nonzero

    return count


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> tuple:
    return tuple(itertools.permutations(range(n)))


def _count_eval_nested(fn):
    def count(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        e, d, cfg = (bound.arguments[k] for k in ("e", "d", "cfg"))
        r, m = e.r, cfg.cutoff
        if r == 0:
            return
        analytic_last = all(e.s[(i, r + 1)] == 0 for i in range(2, r + 1))
        if analytic_last and r == 1:
            return
        vec_level = r - 1 if analytic_last else r
        iters = 1
        for level in range(1, vec_level):
            iters *= m + 1 - (0 if level <= d else 1)
        # Each loop iteration (or the single call at depth <= 2) runs one
        # vectorised pass over cutoff + 1 entries.
        c["rootzeta.loop_iters"] += iters

    return count


def _count_cancellation(fn):
    def count(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
        c["lgv.cancellation_patterns"] += result.total_patterns
        c["lgv.cancellation_nonintersecting"] += result.nonintersecting

    return count


# (module, attribute, is_generator, counter factory)
TARGETS: tuple[tuple[str, str, bool, Any], ...] = (
    ("cli", "main", False, None),
    ("identities", "jacobi_trudi_H", False, None),
    ("identities", "jacobi_trudi_E", False, None),
    ("identities", "jacobi_trudi_H_general", False, None),
    ("identities", "extended_jacobi_trudi", False, None),
    ("identities", "giambelli", False, None),
    ("identities", "skew_giambelli_hash", False, None),
    ("identities", "hook_expansion_star", False, None),
    ("identities", "hook_expansion_zeta", False, None),
    ("identities", "frobenius_expansion", False, None),
    ("identities", "dirichlet_series_expr", False, None),
    ("identities", "derivative_identity", False, None),
    ("identities", "derivative_fd_check", False, None),
    ("identities", "determinant", False, _count_determinant),
    ("schurzeta", "schur_eval", False, None),
    ("schurzeta", "chain_decomposition", False, None),
    ("schurzeta", "schur_truncated_exact", False, None),
    ("schurzeta", "chain_truncated_exact", False, None),
    ("ezzeta", "eval_chain", False, _count_eval_chain),
    ("rootzeta", "_eval_nested", False, _count_eval_nested),
    ("rootzeta", "check_reductions", False, None),
    ("lgv", "verify_cancellation", False, _count_cancellation),
    ("lgv", "truncated_schur_via_paths", False, None),
    ("lgv", "enumerate_patterns", True, None),
    ("lgv", "pattern_weight", False, None),
    ("lgv", "tail_swap", False, None),
    ("tableaux", "ssyt_iter", True, None),
    ("tableaux", "expand_content", False, None),
    ("tableaux", "in_W_lambda", False, None),
    ("tableaux", "in_W_lambda_H", False, None),
    ("tableaux", "in_I_theta", False, None),
    ("tableaux", "is_diagonal_constant", False, None),
    ("shapes", "_rim_decompositions", False, None),
    ("shapes", "hash_transpose", False, None),
)

DOMAIN_CHECKS = (
    "tableaux.in_W_lambda",
    "tableaux.in_W_lambda_H",
    "tableaux.in_I_theta",
    "tableaux.is_diagonal_constant",
)


class Tracer:
    """Records spans while active; installs and removes its own wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._owner = threading.get_ident()
        self.active = False
        self.op_id = -1
        self._installed: list[tuple[Any, str, Any, Any]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def recording(self) -> bool:
        return self.active and threading.get_ident() == self._owner

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counters[name + ".errors"] += 1
                raise
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def _wrap_gen(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        tracer = self

        def resumes(it: Iterator) -> Iterator:
            while True:
                if not tracer.recording():
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                idx = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counters[name + ".yields"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return resumes(fn(*args, **kwargs))

        return wrapper

    def install(self, extra: tuple = ()) -> None:
        """Replace every binding of each target in the ``shzeta`` modules and
        in ``extra`` (the benchmark's own modules, which call into layers)."""
        mods = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "shzeta"]
        mods += list(extra)
        for modname, attr, is_gen, factory in TARGETS:
            home = sys.modules["shzeta." + modname]
            original = getattr(home, attr)
            name = f"{modname}.{attr.lstrip('_')}"
            wrapped = (
                self._wrap_gen(name, original)
                if is_gen
                else self._wrap(name, original, factory(original) if factory else None)
            )
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._installed.append((mod, key, original, None))
                        setattr(mod, key, wrapped)
                    elif type(val) is dict:
                        for dk, dv in list(val.items()):
                            if dv is original:
                                self._installed.append((val, dk, original, "dict"))
                                val[dk] = wrapped

    def uninstall(self) -> None:
        for holder, key, original, kind in reversed(self._installed):
            if kind == "dict":
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "names": self.names,
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "op": self.op.tolist(),
                    "counters": dict(self.counters),
                },
                fh,
            )


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer, self.nid, self.idx = tracer, nid, -1

    def __enter__(self) -> None:
        if self.tracer.recording():
            self.idx = self.tracer.open(self.nid)

    def __exit__(self, *exc) -> None:
        if self.idx >= 0:
            self.tracer.close(self.idx)


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    n = len(t.start)
    dur = [t.end[i] - t.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = t.parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i in range(n):
        name = t.names[t.name[i]]
        calls[name] += 1
        total[name] += dur[i]
        self_s[name] += dur[i] - child[i]

    def under(i: int, ancestor: str) -> bool:
        p = t.parent[i]
        while p >= 0:
            if t.names[t.name[p]] == ancestor:
                return True
            p = t.parent[p]
        return False

    eval_chain = t._name_ids.get("ezzeta.eval_chain", -2)
    schur = t._name_ids.get("schurzeta.schur_eval", -2)
    chains = dirichlet_chains = 0
    for i in range(n):
        if t.name[i] != eval_chain:
            continue
        p = t.parent[i]
        if p >= 0 and t.name[p] == schur:
            chains += 1
        if under(i, "identities.dirichlet_series_expr"):
            dirichlet_chains += 1

    c = t.counters
    ec_calls = calls["ezzeta.eval_chain"]
    det_terms = c["identities.determinant.terms"]
    cancel = c["lgv.cancellation_patterns"]
    patterns = c["lgv.enumerate_patterns.yields"]
    lgv_s = total["lgv.verify_cancellation"] + total["lgv.truncated_schur_via_paths"]
    errors = sum(v for k, v in c.items() if k.endswith(".errors") and k.startswith("ezzeta."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "ezzeta.eval_chain.calls": ec_calls,
        "ezzeta.eval_chain.self_s": self_s["ezzeta.eval_chain"],
        "ezzeta.eval_chain.us_per_call": 1e6 * ratio(self_s["ezzeta.eval_chain"], ec_calls),
        "ezzeta.eval_chain.dp_cells": c["ezzeta.dp_cells"],
        "ezzeta.eval_chain.ns_per_cell": 1e9 * ratio(self_s["ezzeta.eval_chain"], c["ezzeta.dp_cells"]),
        "ezzeta.eval_chain.bytes_computed": c["ezzeta.bytes_computed"],
        "ezzeta.errors": errors,
        "schurzeta.schur_eval.calls": calls["schurzeta.schur_eval"],
        "schurzeta.schur_eval.self_s": self_s["schurzeta.schur_eval"],
        "schurzeta.chains": chains,
        "schurzeta.chain_decomposition.s": total["schurzeta.chain_decomposition"],
        "schurzeta.exact.s": total["schurzeta.schur_truncated_exact"]
        + total["schurzeta.chain_truncated_exact"],
        "identities.self_s": sum(v for k, v in self_s.items() if k.startswith("identities.")),
        "identities.determinant.calls": calls["identities.determinant"],
        "identities.determinant.terms": det_terms,
        "identities.determinant.nonzero_term_ratio": ratio(
            c["identities.determinant.nonzero_terms"], det_terms
        ),
        "identities.determinant.s": total["identities.determinant"],
        "identities.dirichlet_series_expr.s": total["identities.dirichlet_series_expr"],
        "identities.dirichlet_series_expr.chain_calls": dirichlet_chains,
        "rootzeta.nested.calls": calls["rootzeta.eval_nested"],
        "rootzeta.nested.s": total["rootzeta.eval_nested"],
        "rootzeta.loop_iters": c["rootzeta.loop_iters"],
        "lgv.patterns": patterns,
        "lgv.nonintersecting_ratio": ratio(c["lgv.cancellation_nonintersecting"], cancel),
        "lgv.verify_cancellation.self_s": self_s["lgv.verify_cancellation"],
        "lgv.pattern_weight.calls": calls["lgv.pattern_weight"],
        "lgv.pattern_weight.s": total["lgv.pattern_weight"],
        "lgv.tail_swap.calls": calls["lgv.tail_swap"],
        "lgv.patterns_per_s": ratio(patterns, lgv_s),
        "tableaux.ssyt_iter.tableaux": c["tableaux.ssyt_iter.yields"],
        "tableaux.ssyt_iter.s": total["tableaux.ssyt_iter"],
        "tableaux.expand_content.s": total["tableaux.expand_content"],
        "tableaux.domain_checks.s": sum(total[k] for k in DOMAIN_CHECKS),
        "shapes.rim_decompositions.s": total["shapes.rim_decompositions"],
        "shapes.hash_transpose.calls": calls["shapes.hash_transpose"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
    }
