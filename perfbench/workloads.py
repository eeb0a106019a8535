"""The four workloads: seeded inputs, one timed call per op, untimed checks.

A workload builds rounds of ops.  A round has a fixed structure (which call,
which shape, depth and cutoff) so that every seed runs the same mix of work;
the seed only draws the values (exponents, shifts, identity specs).  Each op
carries its own reference, computed outside the timed region, and a judge
that compares the op's result with it.

Verdicts separate two things.  ``ok`` is the full check: the value is within
its certified bound of the reference (or exactly equal, for the exact
oracles) and nothing failed.  ``value_ok`` only asks that the value be right
to ``VALUE_RTOL`` beyond its bound, so a certificate that is too tight by a
rounding error fails ``ok`` but not ``value_ok``.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from shzeta import cli
from shzeta.ezzeta import (
    APPROX_ZERO,
    Approx,
    EvalConfig,
    ez_zeta,
    ez_zeta_star,
    ez_zeta_star_star,
    hurwitz,
)
from shzeta.identities import determinant
from shzeta.lgv import rim_for_type, truncated_schur_via_paths, verify_cancellation
from shzeta.rootzeta import check_reductions
from shzeta.schurzeta import (
    chain_decomposition,
    chain_truncated_exact,
    instance_from_spec,
    schur_eval,
    schur_truncated_exact,
)
from shzeta.shapes import Partition, content, parse_partition
from shzeta.tableaux import ContentSpec, Tableau

VALUE_RTOL = 1e-9


@dataclass
class Verdict:
    ok: bool
    value_ok: bool
    rel_err_log10: float | None  # log10(err_bound / |value|); None if exact
    record: dict  # what the op returned, for diffing results across commits


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    reference: Callable[[], Any]
    judge: Callable[[Any, Any], Verdict]
    corrupt: Callable[[Any], Any]


def _rel_err(a: Approx) -> float | None:
    if a.err_bound <= 0 or a.value == 0:
        return None
    return math.log10(a.err_bound / abs(a.value))


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def judge_approx(a: Approx, ref: tuple[complex, float]) -> Verdict:
    value, ref_err = ref
    miss = abs(a.value - value)
    return Verdict(
        ok=miss <= a.err_bound + ref_err,
        value_ok=miss <= a.err_bound + ref_err + VALUE_RTOL * abs(value),
        rel_err_log10=_rel_err(a),
        record={"value": _pair(a.value), "err_bound": a.err_bound},
    )


def corrupt_value(ref: tuple[complex, float]) -> tuple[complex, float]:
    value, err = ref
    return value * (1 + 1e-6) + 1e-6, err


def _exponent(rng: random.Random, imag: bool) -> complex:
    """Real part in [1.5, 4], imaginary part in [-1, 1] or zero.

    Which exponents are complex follows a fixed pattern (about one in
    three), not the seed: numpy's complex exp is faster on a zero imaginary
    part, so a seeded choice would make the cost of a round depend on the
    seed.
    """
    return complex(rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.0) if imag else 0.0)


def _contents(shape: Partition) -> list[int]:
    return sorted({content(c) for c in shape.cells()})


# ---------------------------------------------------------------------------
# tableau-eval: schur_eval on a ladder of shapes at the default cutoff

# (shape, ops per round).  Sorted by latency, the 40 ops of a round put the
# median in the middle of the 3,2 block (ops 12-27) and p90 in the middle
# of the 4,3,2 block (ops 34-37), so neither percentile sits on the jump
# between two shapes.
LADDER = (("2,1", 12), ("3,2", 16), ("3,2,1", 6), ("4,3,2", 4), ("4,4,3", 1), ("4,3,2,1", 1))
LADDER_SHORT = (("2,1", 2), ("3,2", 2), ("3,2,1", 1))


def jacobi_trudi_h(spec: ContentSpec, shape: Partition) -> Approx:
    """det[h_{lambda_i - i + j}] with weak-chain entries on the contents."""
    r = shape.rows
    rows = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            d = shape.part(i) - i + j
            if d < 0:
                row.append(APPROX_ZERO)
                continue
            ks = range(-j + 1, -j + 1 + d)
            row.append(ez_zeta_star([spec.z_at(k) for k in ks], [spec.y_at(k) for k in ks]))
        rows.append(row)
    return determinant(rows)


def tableau_round(rng: random.Random, short: bool, prefix: str) -> list[Op]:
    ops = []
    for text, count in LADDER_SHORT if short else LADDER:
        shape = parse_partition(text)
        for n in range(count):
            ks = _contents(shape)
            z = {k: _exponent(rng, (i + n) % 3 == 0) for i, k in enumerate(ks)}
            spec = ContentSpec(z, {k: rng.random() for k in ks})
            inst = instance_from_spec(spec, shape)

            def reference(spec=spec, shape=shape) -> tuple[complex, float]:
                det = jacobi_trudi_h(spec, shape)
                return det.value, det.err_bound

            ops.append(
                Op(f"schur_eval {text}", lambda inst=inst: schur_eval(inst), reference, judge_approx, corrupt_value)
            )
    return ops


def tableau_warm_up() -> None:
    for text, _ in LADDER:
        chain_decomposition(parse_partition(text))
    tableau_round(random.Random(0), True, "")[0].run()


# ---------------------------------------------------------------------------
# chain-kernel: single chains by depth and cutoff, plus root-system sums

# cutoff -> times each op of that cutoff runs per round.  A round has
# 136 ops: sorted by latency, the median falls in the cutoff-20000 band and
# p90 in the cutoff-200000 band, where the array work, not Python overhead,
# sets the time.
CUTOFFS = {200: 1, 2000: 1, 20000: 3, 200000: 1}
CUTOFFS_SHORT = {200: 1, 2000: 1}
VARIANTS = (("strict", ez_zeta), ("star", ez_zeta_star), ("star_star", ez_zeta_star_star))
# (depth, cutoff) of the rootzeta.check_reductions ops in each round.
REDUCTIONS = ((2, 2000), (2, 2000), (3, 200), (3, 200))


def _refs():
    # Imported on first use, so that mpmath stays out of the set-up time.
    import refs

    return refs


def _ref(value: complex) -> tuple[complex, float]:
    return value, _refs().REF_RTOL * max(abs(value), 1.0)


def _chain_ops(rng: random.Random, cutoff: int) -> list[Op]:
    cfg = EvalConfig(cutoff=cutoff)
    ops = []
    for i in range(2):
        s, x = _exponent(rng, i == 0), rng.uniform(0.05, 1.0)
        ops.append(
            Op(
                f"hurwitz M={cutoff}",
                lambda s=s, x=x: hurwitz(s, x, cfg),
                lambda s=s, x=x: _ref(_refs().hurwitz(s, x)),
                judge_approx,
                corrupt_value,
            )
        )
    for depth in range(1, 7):
        for j, (variant, fn) in enumerate(VARIANTS):
            s = _exponent(rng, (depth + j) % 3 == 0)
            y = rng.uniform(0.05, 1.0) if variant == "star_star" else rng.random()
            ops.append(
                Op(
                    f"ez_{variant} d={depth} M={cutoff}",
                    lambda fn=fn, s=s, y=y, depth=depth: fn([s] * depth, [y] * depth, cfg),
                    lambda s=s, y=y, depth=depth, variant=variant: _ref(
                        _refs().constant_chain(s, y, depth, variant)
                    ),
                    judge_approx,
                    corrupt_value,
                )
            )
    # Inner exponent on the Re = 1 boundary (the fallback bound).
    for star, fn in ((False, ez_zeta), (True, ez_zeta_star)):
        n = rng.randint(2, 5)
        ops.append(
            Op(
                f"ez_{'star' if star else 'strict'} (1,n) M={cutoff}",
                lambda fn=fn, n=n: fn([1, n], None, cfg),
                lambda n=n, star=star: _ref(_refs().zeta_one_n(n, star)),
                judge_approx,
                corrupt_value,
            )
        )
    return ops


def judge_reductions(reports: list, ref: tuple) -> Verdict:
    """Both sides of both reductions against the Newton-identity references."""
    ok = value_ok = True
    rel = []
    record = []
    for rep, (value, ref_err) in zip(reports, ref):
        for side in (rep.lhs, rep.rhs):
            v = judge_approx(side, (value, ref_err))
            ok &= v.ok
            value_ok &= v.value_ok
            if v.rel_err_log10 is not None:
                rel.append(v.rel_err_log10)
        record.append(
            {"kind": rep.kind, "lhs": _pair(rep.lhs.value), "rhs": _pair(rep.rhs.value), "budget": rep.budget}
        )
    return Verdict(ok, value_ok, max(rel) if rel else None, {"reports": record})


def _reduction_ops(rng: random.Random, short: bool) -> list[Op]:
    ops = []
    for i, (depth, cutoff) in enumerate(REDUCTIONS[:1] if short else REDUCTIONS):
        s, x = _exponent(rng, i % 2 == 1), rng.uniform(0.5, 2.0)
        z = (s,) * depth
        cfg = EvalConfig(cutoff=cutoff)

        def reference(s=s, x=x, depth=depth) -> tuple:
            return (
                _ref(_refs().constant_chain(s, x, depth, "star_star")),
                _ref(_refs().constant_chain(s, x, depth, "strict")),
            )

        ops.append(
            Op(
                f"check_reductions d={depth} M={cutoff}",
                lambda z=z, x=x, cfg=cfg: check_reductions(z, z, x, cfg),
                reference,
                judge_reductions,
                lambda ref: tuple(corrupt_value(r) for r in ref),
            )
        )
    return ops


def chain_round(rng: random.Random, short: bool, prefix: str) -> list[Op]:
    ops = []
    for cutoff, repeat in (CUTOFFS_SHORT if short else CUTOFFS).items():
        ops += _chain_ops(rng, cutoff) * repeat
    return ops + _reduction_ops(rng, short)


def chain_warm_up() -> None:
    for cutoff in CUTOFFS:
        ez_zeta_star([2.5, 2.5], [0.5, 0.5], EvalConfig(cutoff=cutoff))


# ---------------------------------------------------------------------------
# identity-suite: `shzeta check` through cli.main, in process

BUILTINS = ("jacobi-trudi", "giambelli", "hook", "frobenius", "dirichlet", "derivative", "lgv-exact", "reductions")
# With the eight built-in suites a round has 25 ops, so the median and p90
# of its sorted latencies fall in the middle of one op's samples.
MANIFEST_CASES = (
    ("jacobi_trudi_H", "2,2"),
    ("jacobi_trudi_H", "3,2"),
    ("jacobi_trudi_E", "2,1"),
    ("jacobi_trudi_E", "2,2"),
    ("jacobi_trudi_E", "3,2"),
    ("giambelli", "2,2"),
    ("giambelli", "3,2"),
    ("frobenius_expansion", "2,2"),
    ("frobenius_expansion", "3,2"),
    ("dirichlet_series_expr", "2,1"),
    ("dirichlet_series_expr", "2,2"),
    ("hook_expansion_star", "2,1"),
    ("hook_expansion_star", "3,1,1"),
    ("hook_expansion_zeta", "2,1"),
    ("hook_expansion_zeta", "3,1,1"),
    ("derivative_identity", "2,1"),
    ("derivative_identity", "3,1,1"),
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def judge_check(result: tuple[int, str], expected: tuple[int, int]) -> Verdict:
    rc, text = result
    want_rc, want_lines = expected
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    ok = rc == want_rc and len(lines) == want_lines and all(line.get("pass") for line in lines)
    rel = [
        math.log10(line["budget"] / abs(complex(*line["lhs"])))
        for line in lines
        if "lhs" in line and line.get("budget", 0) > 0 and complex(*line["lhs"]) != 0
    ]
    record = [
        {k: line[k] for k in ("identity_id", "lhs", "rhs", "budget", "pass") if k in line}
        for line in lines
    ]
    return Verdict(ok, ok, max(rel) if rel else None, {"rc": rc, "checks": record})


def identity_round(rng: random.Random, short: bool, prefix: str) -> list[Op]:
    """Builtin suites plus one-line manifests written to ``prefix``-<k>.jsonl."""
    ops = []
    for name in BUILTINS[-2:] if short else BUILTINS:
        ops.append(
            Op(
                f"check --builtin {name}",
                lambda name=name: run_cli(["check", "--builtin", name]),
                lambda name=name: (0, len(cli.builtin_suite(name))),
                judge_check,
                lambda ref: (ref[0], ref[1] + 1),
            )
        )
    for k, (ident, text) in enumerate(MANIFEST_CASES[:3] if short else MANIFEST_CASES):
        entry: dict[str, Any] = {
            "identity_id": ident,
            "shape": text,
            "spec": {
                "z": {str(c): repr(_exponent(rng, (c + k) % 3 == 0)) for c in range(-3, 4)},
                "y": {str(c): rng.random() for c in range(-3, 4)},
            },
        }
        if ident == "derivative_identity":
            # Fixed per case: the order and the diagonal set how many
            # series the check evaluates.
            entry["ell"] = k % parse_partition(text).part(1)
            entry["order"] = 1 + k % 2
        path = f"{prefix}-{k}.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(entry) + "\n")
        ops.append(
            Op(
                f"check --manifest {ident} {text}",
                lambda path=path: run_cli(["check", "--manifest", path]),
                lambda: (0, 1),
                judge_check,
                lambda ref: (ref[0], ref[1] + 1),
            )
        )
    return ops


def identity_warm_up() -> None:
    run_cli(["check", "--builtin", "hook"])


# ---------------------------------------------------------------------------
# exact-oracles: lattice-path cancellation and exact truncations (Fractions)

# (kind, shape, grid height): about 100 to 4,000 patterns each.
CANCELLATIONS = (
    ("H", "2,2", 4), ("H", "2,2", 5), ("H", "3,2", 4), ("H", "3,2", 5),
    ("H", "3,2,1", 3), ("H", "3,2,1", 4), ("H", "2,2,2", 3), ("H", "2,2,2", 4),
    ("E", "2,2", 5), ("E", "3,2", 4), ("E", "3,2", 5), ("E", "3,2,1", 4),
    ("E", "3,2,1", 5), ("E", "2,2,2", 5),
)
# (shape, largest entry) of the exact-truncation triples.  With the
# cancellations a round has 25 ops, so the median and p90 of its sorted
# latencies fall in the middle of one op's samples, not between two ops.
TRIPLES = (
    ("2,2", 3), ("2,2", 4), ("2,2", 5), ("3,2", 4), ("3,2", 5),
    ("3,2,1", 3), ("3,2,1", 4), ("3,2,1", 5), ("2,2,2", 3), ("2,2,2", 4), ("2,2,2", 5),
)
EXACT_SHAPES = ("2,2", "3,2", "3,2,1", "2,2,2")
# One denominator for every shift, so the size of the Fractions, and with it
# the cost of an op, does not depend on the seed.
SHIFTS = tuple(Fraction(k, 5) for k in range(1, 5))


def _exact_data(rng: random.Random, shape: Partition) -> tuple[Tableau, Tableau]:
    """Integer exponents and rational shifts, constant along diagonals.

    The exponents 1, 2, 3 repeat along the contents from a seeded offset, so
    every seed uses each of them equally often.
    """
    offset = rng.randrange(3)
    z = {k: 1 + (i + offset) % 3 for i, k in enumerate(_contents(shape))}
    y = {k: rng.choice(SHIFTS) for k in _contents(shape)}
    return (
        Tableau(shape, {c: z[content(c)] for c in shape.cells()}),
        Tableau(shape, {c: y[content(c)] for c in shape.cells()}),
    )


def _exact_ref(shape: Partition, s: Tableau, x: Tableau, n: int) -> Callable[[], Fraction]:
    def reference() -> Fraction:
        return _refs().truncated_tableau_sum(shape.cells(), s.entries, x.entries, n)

    return reference


def judge_cancellation(rep: Any, ref: Fraction) -> Verdict:
    ok = rep.passes and rep.nonintersecting_total == ref
    record = {"patterns": rep.total_patterns, "nonintersecting": rep.nonintersecting, "value": str(rep.nonintersecting_total)}
    return Verdict(ok, ok, None, record)


def judge_triple(values: tuple, ref: Fraction) -> Verdict:
    ok = all(v == ref for v in values)
    return Verdict(ok, ok, None, {"value": str(values[0])})


def exact_round(rng: random.Random, short: bool, prefix: str) -> list[Op]:
    ops = []
    for kind, text, n in CANCELLATIONS[:3] if short else CANCELLATIONS:
        shape = parse_partition(text)
        s, x = _exact_data(rng, shape)
        ops.append(
            Op(
                f"verify_cancellation {kind} {text} n={n}",
                lambda shape=shape, n=n, s=s, x=x, kind=kind: verify_cancellation(shape, n, s, x, kind),
                _exact_ref(shape, s, x, n),
                judge_cancellation,
                lambda ref: ref + 1,
            )
        )
    for text, n in TRIPLES[:2] if short else TRIPLES:
        shape = parse_partition(text)
        s, x = _exact_data(rng, shape)
        ops.append(
            Op(
                f"exact triple {text} N={n}",
                lambda shape=shape, n=n, s=s, x=x: (
                    schur_truncated_exact(shape, s, x, n),
                    chain_truncated_exact(shape, s, x, n),
                    truncated_schur_via_paths(shape, n, s, x, "H"),
                ),
                _exact_ref(shape, s, x, n),
                judge_triple,
                lambda ref: ref + 1,
            )
        )
    return ops


def exact_warm_up() -> None:
    """Fill the rim-decomposition and linear-extension caches."""
    for text in EXACT_SHAPES:
        shape = parse_partition(text)
        chain_decomposition(shape)
        for kind, ref in (("H", shape), ("E", shape.conjugate())):
            rim_for_type(shape, tuple(range(1, ref.rows + 1)), kind)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[..., list[Op]]
    warm_up: Callable[[], None]


WORKLOADS = {
    "tableau-eval": Workload("tableau-eval", tableau_round, tableau_warm_up),
    "identity-suite": Workload("identity-suite", identity_round, identity_warm_up),
    "chain-kernel": Workload("chain-kernel", chain_round, chain_warm_up),
    "exact-oracles": Workload("exact-oracles", exact_round, exact_warm_up),
}
