"""``tools/bench_pairs.py --check``: the rules a committed ``BENCH_*.json``
must meet, and every committed file meets them."""

import copy
import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


GOOD = {
    "pr": 0, "what": "", "env": {}, "command": "",
    "parent": {"git_sha": "a", "src_sha256": "b"},
    "change": {"git_sha": "c", "src_sha256": "d"},
    "workloads": {
        "w": {
            "pairs": 3, "first_of_pair": ["parent", "change", "parent"],
            "parent": {"ops_per_s": bench_pairs.summary([1.0, 2.0, 3.0]), "attempted": [4], "failed": [0]},
            "change": {"ops_per_s": bench_pairs.summary([2.0, 3.0, 4.0]), "attempted": [4], "failed": [0]},
            "change_better_in_pairs": {"ops_per_s": "3/3"},
            "median_ratio_change_over_parent": {"ops_per_s": 1.5},
        },
    },
}


def test_a_well_formed_file_passes():
    assert bench_pairs.problems(GOOD) == []


@pytest.mark.parametrize("edit,found", [
    (lambda d: d.pop("workloads"), "no key 'workloads'"),
    (lambda d: d["change"].pop("src_sha256"), "change: no key 'src_sha256'"),
    (lambda d: d["workloads"]["w"].pop("change_better_in_pairs"), "w: no key 'change_better_in_pairs'"),
    (lambda d: d["workloads"]["w"]["parent"]["ops_per_s"].update(median=5.0), "outside"),
    (lambda d: d["workloads"]["w"]["change"]["ops_per_s"]["runs"].pop(), "2 runs for 3 pairs"),
    (lambda d: d["workloads"]["w"]["change"]["ops_per_s"].pop("q3"), "needs median, q1, q3, runs"),
])
def test_a_fault_is_named(edit, found):
    data = copy.deepcopy(GOOD)
    edit(data)
    assert any(found in p for p in bench_pairs.problems(data))


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))))
def test_committed_files_are_well_formed(path):
    with open(path) as fh:
        assert bench_pairs.problems(json.load(fh)) == []
