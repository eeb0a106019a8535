"""No built-in bound loosens: ``check --builtin all`` against a recorded run.

``data/builtin_all.json`` holds, per record of ``check --builtin all`` at
the default cutoff, its identity id, shape and verdict, and its right side
and budget as ``float.hex``.  Every record must keep its verdict, no budget
may exceed its recorded value by more than 1e-15 relative, and each right
side must lie within the two budgets (new and recorded) of its recorded
value.  A change that means to move a bound re-records the file with

    PYTHONPATH=src python tests/test_builtin_bounds.py
"""

import json
import sys
from pathlib import Path

from shzeta.cli import builtin_suite, run_one

DATA = Path(__file__).with_name("data") / "builtin_all.json"


def _hex(v):
    return None if v is None else float(v).hex()


def builtin_records() -> list[dict]:
    """Each built-in record's id, shape, verdict, rhs and budget (hex)."""
    out = []
    for entry in builtin_suite("all"):
        rec = run_one(entry, None)
        rhs = rec.get("rhs")
        out.append({
            "identity_id": rec["identity_id"],
            "shape": rec["shape"],
            "pass": rec["pass"],
            "rhs": None if rhs is None else [_hex(v) for v in rhs],
            "budget": _hex(rec.get("budget")),
        })
    return out


def test_no_builtin_bound_loosens():
    recorded = json.loads(DATA.read_text())
    now = builtin_records()
    assert [(r["identity_id"], r["shape"]) for r in now] == [
        (r["identity_id"], r["shape"]) for r in recorded
    ]
    for new, old in zip(now, recorded):
        where = (new["identity_id"], new["shape"])
        assert new["pass"] == old["pass"], where
        assert (new["budget"] is None) == (old["budget"] is None), where
        assert (new["rhs"] is None) == (old["rhs"] is None), where
        if new["budget"] is None:
            continue
        budget, budget_old = float.fromhex(new["budget"]), float.fromhex(old["budget"])
        assert budget <= budget_old * (1 + 1e-15), where
        if new["rhs"] is not None:
            rhs, rhs_old = (complex(*map(float.fromhex, r["rhs"])) for r in (new, old))
            assert abs(rhs - rhs_old) <= budget + budget_old, where


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(r) for r in builtin_records())
    DATA.write_text(f"[\n{lines}\n]\n")
    sys.exit(0)
