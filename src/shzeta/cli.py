"""Command-line front end.

Subcommands:

* ``eval``  — evaluate one Schur series and print its certified value;
* ``check`` — run identity checks: a built-in suite or a manifest file,
  both lists of manifest entries run through the ``IDENTITIES`` registry;
* ``paths`` — enumerate lattice-path patterns for a shape, optionally
  rendering them as text diagrams.

One JSON object per line goes to stdout; the human summary goes to stderr.
Exit codes: 0 success, 1 identity failure, 2 malformed input, 3 domain
error.  The series cutoff comes from the ``--cutoff`` flag, else the
``SHZETA_CUTOFF`` environment variable, else a manifest entry's
``cfg.cutoff``, else 2000.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import itertools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, NoReturn

from . import identities
from .errors import DomainError, UsageError
from .ezzeta import DEFAULT_CONFIG, EvalConfig, power_table_scope, table_reads
from .lgv import (
    enumerate_patterns,
    patterns_by_type,
    render_pattern,
    shared_vertices,
    verify_cancellation,
)
from .rootzeta import check_reductions
from .schurzeta import SchurInstance, dp_states, instance_from_spec, schur_eval
from .shapes import Partition, parse_partition, parse_shape, perm_sign
from .tableaux import (
    ContentSpec,
    Tableau,
    content_spec_from_json,
    expand_content,
    json_scalar,
    tableau_from_rows,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _json_int(value: Any, what: str) -> int:
    """An integer from a manifest or the environment: an int, an integral
    float or an integer string."""
    value = json_scalar(value, what)
    if isinstance(value, float) and not value.is_integer():
        raise UsageError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise UsageError(f"{what} must be an integer, got {value!r}") from exc


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _parse_assignments(text: str, caster: Callable[[str], Any]) -> dict[int, Any]:
    out: dict[int, Any] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise UsageError(f"expected k=value, got {piece!r}")
        k, v = piece.split("=", 1)
        try:
            out[int(k)] = caster(json_scalar(v, piece))
        except ValueError as exc:
            raise UsageError(f"bad assignment {piece!r}") from exc
    if not out:
        raise UsageError(f"no assignments in {text!r}")
    return out


# ---------------------------------------------------------------------------
# eval


def _tableau_json(rows: Any, what: str) -> Tableau:
    """A tableau from JSON rows of numbers (null for absent skew cells)."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise UsageError(f"{what} must be an array of rows")
    for v in (v for row in rows for v in row if v is not None):
        json_scalar(v, f"{what} entry")
    return tableau_from_rows(rows)


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = EvalConfig() if args.cutoff is None else EvalConfig(cutoff=args.cutoff)
    t0 = time.perf_counter()
    if args.tableau_file:
        with open(args.tableau_file) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "s" not in data:
            raise UsageError(f"{args.tableau_file}: needs an \"s\" row array")
        s = _tableau_json(data["s"], f"{args.tableau_file}: s")
        x = (
            _tableau_json(data["x"], f"{args.tableau_file}: x")
            if "x" in data
            else Tableau(s.shape, {c: 0.0 for c in s.entries})
        )
        inst = SchurInstance(s.shape, s, x)
    else:
        if not (args.shape and args.z):
            raise UsageError("eval needs --shape and --z (or --tableau-file)")
        shape = parse_shape(args.shape)
        spec = ContentSpec(
            _parse_assignments(args.z, complex),
            _parse_assignments(args.y, float) if args.y else {},
        )
        inst = instance_from_spec(spec, shape)
    with power_table_scope(), table_reads() as tables:
        approx = schur_eval(inst, cfg)
    _emit(
        {
            "value_re": approx.value.real,
            "value_im": approx.value.imag,
            "err_bound": approx.err_bound,
            "cutoff": cfg.cutoff,
            "runtime_ms": round(1000 * (time.perf_counter() - t0), 3),
            "work": {
                "dp_states": dp_states(inst.shape),
                # Complex or mixed data: its complex tables; all-real data
                # reads only float tables, each a value table.
                "power_tables": sum(not real for *_, real in tables) or len(tables),
                "array_len": cfg.cutoff + 1,
            },
        }
    )
    im = approx.value.imag
    print(
        f"value = {approx.value.real:.12g}"
        + (f" {'-' if im < 0 else '+'} {abs(im):.12g}i" if im else "")
        + f"  (err <= {approx.err_bound:.3g})",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# check: the identity registry
#
# A runner takes the entry's content spec, the entry itself (for its shape
# and extra fields) and the config, and returns the fields of its record.
# Identity functions are looked up on their module at call time, so
# wrappers installed there (tracing, profiling) see every call.

Runner = Callable[[ContentSpec, dict, EvalConfig], dict]

LGV_GRID_HEIGHT = 3
_NO_SPEC = ContentSpec({}, {})


def _partition(entry: dict) -> Partition:
    shape = entry.get("shape")
    if not isinstance(shape, str):
        raise UsageError(f'shape must be a string such as "2,1", got {shape!r}')
    return parse_partition(shape)


def _on_shape(name: str) -> Runner:
    """An identity called as ``name(spec, shape, cfg)``."""

    def run(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
        return getattr(identities, name)(spec, _partition(entry), cfg).as_dict()

    return run


def _on_hook(name: str) -> Runner:
    """An identity called as ``name(spec, p, q, cfg)`` on the hook (p+1, 1^q)."""

    def run(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
        p, q = identities.hook_pq(_partition(entry))
        return getattr(identities, name)(spec, p, q, cfg).as_dict()

    return run


def _extended_jacobi_trudi(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
    shape = _partition(entry)
    s, x = expand_content(spec, shape)
    return identities.extended_jacobi_trudi(s, x, shape, cfg).as_dict()


def _skew_giambelli_hash(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
    s, x = expand_content(spec, _partition(entry))
    return identities.skew_giambelli_hash(s, x, cfg).as_dict()


def _derivative_identity(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
    ell = _json_int(entry.get("ell", 0), "ell")
    order = _json_int(entry.get("order", 1), "order")
    rep = identities.derivative_identity(spec, _partition(entry), ell, order, cfg)
    return {**rep.as_dict(), "ell": ell}


def _derivative_fd_check(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
    ell = _json_int(entry.get("ell", 0), "ell")
    rep = identities.derivative_fd_check(spec, _partition(entry), ell, cfg)
    return {**rep.as_dict(), "ell": ell}


def _dirichlet_series_expr(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
    outer = identities.OUTER_CUTOFF
    rep = identities.dirichlet_series_expr(spec, _partition(entry), cfg, outer)
    return {**rep.as_dict(), "cutoffs": {"outer": outer}}


def _lgv_exact(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
    shape = _partition(entry)
    rep = verify_cancellation(shape, LGV_GRID_HEIGHT, *expand_content(spec, shape))
    return {
        "patterns": rep.total_patterns,
        "nonintersecting": rep.nonintersecting,
        "pass": rep.passes,
        "cutoffs": {"grid": LGV_GRID_HEIGHT},
    }


def _root_reductions(spec: ContentSpec, entry: dict, cfg: EvalConfig) -> dict:
    z = entry.get("z")
    if not isinstance(z, list) or not z:
        raise UsageError("root_reductions needs a nonempty exponent list z")
    z = [complex(json_scalar(v, "z entry")) for v in z]
    m = json_scalar(entry.get("m", 1), "m")
    reports = check_reductions(z, z, float(m), cfg)
    return {
        "shape": f"depth={len(z)} m={m}",
        "discrepancy": max(r.discrepancy for r in reports),
        "budget": max(r.budget for r in reports),
        "pass": all(r.passes() for r in reports),
    }


IDENTITIES: dict[str, Runner] = {
    "jacobi_trudi_H": _on_shape("jacobi_trudi_H"),
    "jacobi_trudi_E": _on_shape("jacobi_trudi_E"),
    "extended_jacobi_trudi": _extended_jacobi_trudi,
    "giambelli": _on_shape("giambelli"),
    "skew_giambelli_hash": _skew_giambelli_hash,
    "hook_expansion_star": _on_hook("hook_expansion_star"),
    "hook_expansion_zeta": _on_hook("hook_expansion_zeta"),
    "frobenius_expansion": _on_shape("frobenius_expansion"),
    "dirichlet_series_expr": _dirichlet_series_expr,
    "derivative_identity": _derivative_identity,
    "derivative_fd_check": _derivative_fd_check,
    "lgv_exact": _lgv_exact,
    "root_reductions": _root_reductions,
}


# ---------------------------------------------------------------------------
# check: built-in suites, kept as manifest entries

_PALETTE = {"z": {-3: 3, -2: 2.5, -1: 2, 0: 3, 1: 2, 2: 2.5, 3: 3}, "y": {0: 0.3}}
# Every content shifted, so the finite-difference check can step y_ell down.
_ALL_SHIFTED = {
    "z": {-2: 2.5, -1: 2, 0: 3, 1: 2, 2: 2.5},
    "y": {k: 0.3 for k in range(-2, 3)},
}
_LGV_PALETTE = {"z": {k: 2 if k % 2 == 0 else 3 for k in range(-3, 4)}, "y": {0: 0.5}}


def _entries(ident: str, shapes: tuple[str, ...], spec: dict = _PALETTE) -> list[dict]:
    return [{"identity_id": ident, "shape": s, "spec": spec} for s in shapes]


SUITES: dict[str, list[dict]] = {
    "jacobi-trudi": [
        {"identity_id": ident, "shape": text, "spec": _PALETTE}
        for text in ("1,1", "2", "2,1", "2,2", "3,2")
        for ident in ("jacobi_trudi_H", "jacobi_trudi_E")
    ]
    + _entries("extended_jacobi_trudi", ("2,1",)),
    "giambelli": _entries("giambelli", ("2,2", "3,2", "3,3,1"))
    # Integer exponents: 3 on the diagonal, 2 off it; no shifts.
    + _entries("skew_giambelli_hash", ("2,2",), {"z": {-1: 2, 0: 3, 1: 2}}),
    "hook": [
        {"identity_id": ident, "shape": text, "spec": _PALETTE}
        for text in ("1,1", "2,1", "3,1", "2,1,1")
        for ident in ("hook_expansion_star", "hook_expansion_zeta")
    ],
    "frobenius": _entries("frobenius_expansion", ("2,2", "3,2")),
    "dirichlet": _entries("dirichlet_series_expr", ("2,1", "3,1,1", "2,2")),
    "derivative": [
        {"identity_id": ident, "shape": text, "spec": _ALL_SHIFTED, "ell": ell, **extra}
        for text, arm in (("2,1", 1), ("3,1,1", 2))
        for ell in range(arm + 1)
        for ident, extra in (
            ("derivative_identity", {"order": 1}),
            ("derivative_identity", {"order": 2}),
            ("derivative_fd_check", {}),
        )
    ],
    "lgv-exact": _entries("lgv_exact", ("1,1", "2,1", "2,2", "3,1"), _LGV_PALETTE),
    "reductions": [
        {"identity_id": "root_reductions", "z": z, "m": m}
        for z in ([2], [2, 3], [3, 2])
        for m in (1, 2)
    ],
}

BUILTIN_SUITES = (*SUITES, "all")


def builtin_suite(name: str) -> list[dict]:
    """The manifest entries of a built-in suite, one per emitted record."""
    if name == "all":
        return [entry for entries in SUITES.values() for entry in entries]
    if name not in SUITES:
        raise UsageError(
            f"unknown suite {name!r}; choose from {', '.join(BUILTIN_SUITES)}"
        )
    return list(SUITES[name])


def read_manifest(path: str) -> list[dict]:
    """Manifest entries from a JSON-lines file (``#`` lines are comments)."""
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            ident = entry.get("identity_id") if isinstance(entry, dict) else None
            if not isinstance(ident, str) or ident not in IDENTITIES:
                raise UsageError(f"{path}:{lineno}: unknown identity_id {ident!r}")
            entries.append(entry)
    return entries


def run_one(entry: dict, cutoff: int | None) -> dict:
    """Run one manifest entry through the registry and return its record.

    ``cutoff`` is the flag or environment override; without one the
    entry's ``cfg.cutoff`` applies, else the default.  Every float series
    of the record (the chain kernel, ``rootzeta``, the Dirichlet weights)
    reads its power tables from the store of the open ``power_table_scope``
    (the run's, else one of its own); ``work.tables_built`` is the number of
    distinct tables the record read, the tables it would build alone.
    """
    spec = content_spec_from_json(entry["spec"]) if "spec" in entry else _NO_SPEC
    manifest_cfg = entry.get("cfg", {})
    if not isinstance(manifest_cfg, dict):
        raise UsageError(f"cfg must be an object, got {manifest_cfg!r}")
    if cutoff is None:
        cutoff = _json_int(manifest_cfg.get("cutoff", DEFAULT_CONFIG.cutoff), "cfg.cutoff")
    cfg = EvalConfig(cutoff=cutoff)
    ident = entry["identity_id"]
    t0 = time.perf_counter()
    with power_table_scope(), table_reads() as reads:
        record = {
            "identity_id": ident,
            "shape": entry.get("shape", ""),
            **IDENTITIES[ident](spec, entry, cfg),
        }
    record["runtime_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    record["cutoffs"] = {"series": cfg.cutoff, **record.get("cutoffs", {})}
    record["work"] = {"tables_built": len(reads)}
    return record


def cmd_check(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if args.manifest:
        entries = read_manifest(args.manifest)
    elif args.builtin:
        entries = builtin_suite(args.builtin)
    else:
        raise UsageError("check needs --builtin <suite> or --manifest <file>")

    def run(entry: dict) -> dict:
        return run_one(entry, args.cutoff)

    # One store for the run: records share every table and kernel sum.
    with power_table_scope():
        if args.jobs > 1:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                contexts = [contextvars.copy_context() for _ in entries]
                results = list(pool.map(lambda c, e: c.run(run, e), contexts, entries))
        else:
            results = [run(e) for e in entries]

    failures = 0
    for out in results:
        _emit(out)
        if not out.get("pass", False):
            failures += 1
    print(
        f"{len(results) - failures}/{len(results)} checks passed",
        file=sys.stderr,
    )
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# paths


def cmd_paths(args: argparse.Namespace) -> int:
    shape = parse_partition(args.shape)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.max_render < 0:
        raise UsageError(f"--max-render must be >= 0, got {args.max_render}")
    # Counts come from the per-pair path counts and the pruned enumeration,
    # which refuses an over-cap grid; only rendered patterns are enumerated.
    by_type = {
        "".join(map(str, sigma)): ways
        for sigma, ways in patterns_by_type(shape, args.n, args.kind).items()
    }
    nonintersecting = sum(1 for _ in enumerate_patterns(shape, args.n, args.kind, free=True))
    top = args.n + (args.kind == "E")  # the row every path ends on
    drawn = enumerate_patterns(shape, args.n, args.kind)
    shown = itertools.islice(drawn, args.max_render if args.render else 0)
    pattern_lines = [
        {
            "index": idx,
            "type": list(sigma),
            "sign": perm_sign(sigma),
            "nonintersecting": not shared_vertices(masks),
            "render": render_pattern(masks, top),
        }
        for idx, (sigma, masks) in enumerate(shown)
    ]
    total = sum(by_type.values())
    _emit(
        {
            "shape": args.shape,
            "n": args.n,
            "kind": args.kind,
            "patterns": total,
            "nonintersecting": nonintersecting,
            "types": dict(sorted(by_type.items())),
        }
    )
    for line in pattern_lines:
        _emit(line)
    print(
        f"{total} patterns, {nonintersecting} nonintersecting, "
        f"{len(by_type)} endpoint types",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Reports a bad invocation in one line, exit 2, like other malformed
    input; subparsers are built with the same class."""

    def error(self, message: str) -> NoReturn:
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shzeta",
        description="Evaluate Schur-Hurwitz multiple zeta series and "
        "verify their determinant/expansion identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one series")
    p_eval.add_argument("--shape", help='partition or skew shape, e.g. "2,2" or "3,2/1"')
    p_eval.add_argument("--z", help='per-content exponents, e.g. "-1=2,0=3,1=2"')
    p_eval.add_argument("--y", help='per-content shifts, e.g. "0=0.3"')
    p_eval.add_argument("--tableau-file", help="JSON file with explicit s/x row arrays")
    p_eval.add_argument("--cutoff", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run an identity suite")
    p_check.add_argument("--builtin", choices=BUILTIN_SUITES)
    p_check.add_argument("--manifest", help="manifest file (JSON lines, # comments)")
    p_check.add_argument("--cutoff", type=int, default=None)
    p_check.add_argument("--jobs", type=int, default=1)
    p_check.set_defaults(func=cmd_check)

    p_paths = sub.add_parser("paths", help="enumerate lattice-path patterns")
    p_paths.add_argument("--shape", required=True)
    p_paths.add_argument("--n", type=int, required=True, help="grid height")
    p_paths.add_argument("--kind", choices=("H", "E"), default="H")
    p_paths.add_argument("--render", action="store_true")
    p_paths.add_argument("--max-render", type=int, default=20)
    p_paths.set_defaults(func=cmd_paths)
    return parser


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Join ``--z -1=2,...`` into ``--z=-1=2,...`` so values that start
    with a dash survive option parsing."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--z", "--y") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_value_flags(list(argv)))
        if "cutoff" in vars(args) and args.cutoff is None:
            raw = os.environ.get("SHZETA_CUTOFF")
            args.cutoff = None if raw is None else _json_int(raw, "SHZETA_CUTOFF")
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        # UsageError, and every other malformed-input error (bad shapes,
        # cutoffs or JSON, unreadable files): DomainError is caught above.
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # numpy's allocation error is one; only the cutoff sizes an array.
        print(
            "usage error: the cutoff needs more memory than is available",
            file=sys.stderr,
        )
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
