"""Command-line interface: JSON-lines output, exit codes, manifests."""

import json
import math
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest

import oracles
from shzeta import ezzeta, identities
from shzeta.cli import (
    _NO_SPEC,
    BUILTIN_SUITES,
    IDENTITIES,
    SUITES,
    build_parser,
    builtin_suite,
    main,
    run_one,
)
from shzeta.errors import DomainError
from shzeta.ezzeta import Approx, EvalConfig, hurwitz
from shzeta.shapes import Partition
from shzeta.tableaux import content_spec_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(name):
    raise ValueError(f"{name} is not a JSON number")


def json_lines(out):
    """The records of ``out``, parsed strictly: Python writes NaN and
    Infinity, which JSON has not."""
    return [json.loads(line, parse_constant=_not_json) for line in out.splitlines() if line.strip()]


def timeless(out):
    """The records of ``out`` without their ``runtime_ms``."""
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in json_lines(out)]


class TestEval:
    def test_plain_zeta(self, capsys):
        code, out, _ = run(capsys, "eval", "--shape", "1", "--z", "0=2")
        assert code == 0
        (rec,) = json_lines(out)
        assert abs(rec["value_re"] - math.pi**2 / 6) < 1e-6
        assert rec["err_bound"] < 1e-6
        assert rec["value_im"] == 0.0
        assert rec["cutoff"] == 2000

    def test_content_flags_with_negative_keys(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--shape", "2,1", "--z", "-1=2,0=3,1=2", "--y", "0=0.3"
        )
        assert code == 0
        (rec,) = json_lines(out)
        assert abs(rec["value_re"] - 0.5082217398123493) < 1e-5

    def test_cutoff_flag(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--shape", "1", "--z", "0=2", "--cutoff", "500"
        )
        assert code == 0
        assert json_lines(out)[0]["cutoff"] == 500

    def test_cutoff_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SHZETA_CUTOFF", "700")
        _, out, _ = run(capsys, "eval", "--shape", "1", "--z", "0=2")
        assert json_lines(out)[0]["cutoff"] == 700
        # An explicit flag still wins over the environment.
        _, out, _ = run(capsys, "eval", "--shape", "1", "--z", "0=2",
                        "--cutoff", "800")
        assert json_lines(out)[0]["cutoff"] == 800

    def test_tableau_file(self, capsys, tmp_path):
        f = tmp_path / "t.json"
        f.write_text(json.dumps({"s": [[3, 2], [2]], "x": [[0.3, 0], [0]]}))
        code, out, _ = run(capsys, "eval", "--tableau-file", str(f))
        assert code == 0
        assert abs(json_lines(out)[0]["value_re"] - 0.5082217398123493) < 1e-5

    def test_missing_content_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--shape", "2,1", "--z", "0=3")
        assert code == 2
        assert err.strip()

    def test_domain_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "eval", "--shape", "1", "--z", "0=1")
        assert code == 3

    def test_malformed_assignment(self, capsys):
        code, _, _ = run(capsys, "eval", "--shape", "1", "--z", "0:2")
        assert code == 2

    def test_huge_exponent_prints_a_finite_bound(self, capsys):
        # |s (s + 1)| overflows in the tail remainder, against a power that
        # underflows to 0: the bound once printed as NaN.
        code, out, _ = run(capsys, "eval", "--shape", "1", "--z", "0=1e155")
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["value_re"] == 1.0 and 0 < rec["err_bound"] < 1e-300


class TestCheck:
    def test_builtin_names_cover_all(self):
        assert "all" in BUILTIN_SUITES
        for name in ("jacobi-trudi", "giambelli", "hook", "frobenius",
                     "dirichlet", "derivative", "lgv-exact", "reductions"):
            assert name in BUILTIN_SUITES

    @pytest.mark.parametrize("suite", ["giambelli", "lgv-exact"])
    def test_builtin_suite_passes(self, capsys, suite):
        code, out, err = run(capsys, "check", "--builtin", suite,
                             "--cutoff", "600")
        assert code == 0
        recs = json_lines(out)
        assert recs and all(r["pass"] for r in recs)
        assert "pass" in err or "0 fail" in err  # human summary on stderr

    def test_jobs_flag(self, capsys):
        code, out, _ = run(capsys, "check", "--builtin", "hook",
                           "--cutoff", "400", "--jobs", "2")
        assert code == 0
        assert all(r["pass"] for r in json_lines(out))
        # Worker threads share the run's store.
        outs = [run(capsys, "check", "--builtin", "all", "--cutoff", "400",
                    "--jobs", jobs)[1] for jobs in ("1", "2")]
        assert timeless(outs[0]) == timeless(outs[1])

    def test_failed_identity_exits_1(self, capsys, monkeypatch):
        # The registry looks each identity up on its module at call time, so
        # a stand-in that reports lhs 1 against rhs 2 fails every H record.
        def broken(spec, shape, cfg):
            return identities.IdentityReport("jacobi_trudi_H", Approx(1.0, 0.0),
                                             Approx(2.0, 0.0))

        monkeypatch.setattr(identities, "jacobi_trudi_H", broken)
        code, out, err = run(capsys, "check", "--builtin", "jacobi-trudi")
        assert code == 1
        recs = json_lines(out)
        failed = [r for r in recs if r["pass"] is False]
        assert [r["identity_id"] for r in failed] == ["jacobi_trudi_H"] * 5
        assert [r["discrepancy"] for r in failed] == [1.0] * 5
        assert err == f"{len(recs) - 5}/{len(recs)} checks passed\n"

    def test_manifest(self, capsys, tmp_path):
        f = tmp_path / "suite.manifest"
        f.write_text(
            "# comment line\n"
            '{"identity_id": "jacobi_trudi_H", "shape": "2,1", '
            '"spec": {"z": {"-1": 2, "0": 3, "1": 2}}}\n'
            '{"identity_id": "derivative_identity", "shape": "2,1", '
            '"ell": 1, "order": 1, '
            '"spec": {"z": {"-1": 2, "0": 3, "1": 2}, "y": {"1": 0.3}}}\n'
        )
        code, out, _ = run(capsys, "check", "--manifest", str(f),
                           "--cutoff", "600")
        assert code == 0
        recs = json_lines(out)
        assert len(recs) == 2 and all(r["pass"] for r in recs)

    @pytest.mark.parametrize("shape,z", [
        ("2,1,1", {"-2": 2, "-1": 1, "0": 3, "1": 2}),  # Re z = 1 on a leg content
        ("3,1", {"-1": 2, "0": 3, "1": 1, "2": 2}),  # Re z = 1 on an arm content
    ], ids=["leg", "arm"])
    def test_dirichlet_domain_error_exits_3(self, capsys, tmp_path, shape, z):
        f = tmp_path / "re1.manifest"
        f.write_text(json.dumps({"identity_id": "dirichlet_series_expr",
                                 "shape": shape, "spec": {"z": z}}) + "\n")
        code, out, err = run(capsys, "check", "--manifest", str(f))
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "content " in err and "Traceback" not in err

    def test_manifest_unknown_identity(self, capsys, tmp_path):
        f = tmp_path / "bad.manifest"
        f.write_text('{"identity_id": "nope", "shape": "2,1", "spec": {"z": {}}}\n')
        code, _, _ = run(capsys, "check", "--manifest", str(f))
        assert code == 2

    def test_example_manifest_in_repo(self, capsys):
        from pathlib import Path

        manifest = Path(__file__).resolve().parents[1] / "suite.manifest.example"
        code, out, _ = run(capsys, "check", "--manifest", str(manifest),
                           "--cutoff", "800")
        assert code == 0
        assert all(r["pass"] for r in json_lines(out))


class TestLargeExponents:
    """A bound that multiplies an overflowed |s|^2 or |z|^3 by a power that
    underflowed to 0 is taken from logs, so it stays finite."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_committed_manifest_passes(self, capsys, jobs):
        from pathlib import Path

        manifest = Path(__file__).parent / "data" / "large_exponent.manifest"
        code, out, err = run(capsys, "check", "--manifest", str(manifest), "--jobs", jobs)
        recs = json_lines(out)
        assert code == 0, err
        assert [r["identity_id"] for r in recs] == [
            "derivative_fd_check", "dirichlet_series_expr", "hook_expansion_zeta",
            "root_reductions",
        ]
        assert all(r["pass"] and math.isfinite(r["budget"]) for r in recs)

    def test_fd_check_below_the_remainder_overflow(self, capsys, tmp_path):
        # At 1e120 only the Taylor term's |z|^3 overflows.
        f = tmp_path / "m.jsonl"
        f.write_text(json.dumps({
            "identity_id": "derivative_fd_check", "shape": "2,1", "ell": 1,
            "spec": {"z": {"-1": 2, "0": 3, "1": 1e120}, "y": {"1": 0.3}},
        }) + "\n")
        code, out, err = run(capsys, "check", "--manifest", str(f))
        (rec,) = json_lines(out)
        assert code == 0 and rec["pass"] and 0 < rec["budget"] < 1e-300, err


class TestPaths:
    def test_count_and_records(self, capsys):
        code, out, _ = run(capsys, "paths", "--shape", "2,1", "--n", "2")
        assert code == 0
        recs = json_lines(out)
        summary = recs[-1]
        assert summary["patterns"] == 10
        assert summary["nonintersecting"] == 2
        assert summary["types"] == {"12": 6, "21": 4}

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "paths", "--shape", "2,1", "--n", "2")
        _, out2, _ = run(capsys, "paths", "--shape", "2,1", "--n", "2")
        assert out1 == out2

    def test_render_limit(self, capsys):
        code, out, _ = run(capsys, "paths", "--shape", "2,1", "--n", "2",
                           "--render", "--max-render", "3")
        assert code == 0
        renders = [r for r in json_lines(out) if "render" in r]
        assert 0 < len(renders) <= 3

    @pytest.mark.parametrize("parts,n,kind", [((3, 2), 4, "E"), ((2, 2, 1), 3, "H")])
    def test_counts_are_those_of_the_enumeration(self, capsys, parts, n, kind):
        # The summary is counted from path counts and the pruned
        # enumeration; walking every pattern of the reference must give
        # the same numbers.
        shape = ",".join(map(str, parts))
        code, out, _ = run(capsys, "paths", "--shape", shape, "--n", str(n), "--kind", kind)
        assert code == 0
        pats = list(oracles.patterns(Partition(parts), n, kind))
        types = Counter("".join(map(str, sigma)) for sigma, _ in pats)
        assert json_lines(out)[0] == {
            "shape": shape, "n": n, "kind": kind, "patterns": len(pats),
            "nonintersecting": sum(not oracles.crossing(chosen) for _, chosen in pats),
            "types": dict(types),
        }

    def test_rendered_records_are_the_patterns(self, capsys):
        # Type, sign and intersection of each rendered pattern, in
        # enumeration order, against the reference.
        code, out, _ = run(capsys, "paths", "--shape", "2,2,1", "--n", "3", "--kind", "E",
                           "--render", "--max-render", "1000")
        assert code == 0
        recs = json_lines(out)[1:]
        pats = list(oracles.patterns(Partition((2, 2, 1)), 3, "E"))
        assert [(r["index"], tuple(r["type"]), r["sign"], r["nonintersecting"]) for r in recs] == [
            (k, sigma, oracles.sign(sigma), not oracles.crossing(chosen))
            for k, (sigma, chosen) in enumerate(pats)
        ]

    def test_empty_shape_renders_an_empty_pattern(self, capsys):
        code, out, err = run(capsys, "paths", "--shape", "0", "--n", "2", "--render")
        assert code == 0
        summary, pattern = json_lines(out)
        assert (summary["patterns"], summary["nonintersecting"], summary["types"]) == (1, 1, {"": 1})
        assert pattern == {"index": 0, "nonintersecting": True, "render": "", "sign": 1, "type": []}
        assert err == "1 patterns, 1 nonintersecting, 1 endpoint types\n"

    def test_over_the_cap_is_refused(self, capsys):
        code, out, err = run(capsys, "paths", "--shape", "4,3,2,1", "--n", "30")
        assert (code, out) == (2, "")
        assert "enumeration cap" in err


class TestUsage:
    # argparse reports bad invocations through SystemExit(2), which the
    # console entry point passes through unchanged, in one stderr line.
    def exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("usage error: ")

    def test_no_subcommand(self, capsys):
        self.exits_2(capsys, [])

    def test_unknown_flag(self, capsys):
        self.exits_2(capsys, ["eval", "--bogus"])

    @pytest.mark.parametrize("argv", [
        ["paths", "--shape", "2,1", "--n", "x"],
        ["eval", "--cutoff", "x"],
    ], ids=["paths-n-x", "eval-cutoff-x"])
    def test_bad_flag_value(self, capsys, argv):
        self.exits_2(capsys, argv)

    def test_one_parser_survives_a_bad_invocation(self, capsys):
        assert build_parser() is build_parser()
        argv = ["check", "--builtin", "giambelli", "--cutoff", "300"]
        first = run(capsys, *argv)
        self.exits_2(capsys, ["check", "--cutoff", "x"])
        again = run(capsys, *argv)
        assert first[0] == again[0] == 0
        assert timeless(first[1]) == timeless(again[1])


class TestRegistry:
    def test_builtin_all_record_schema(self, capsys):
        from shzeta.cli import LGV_GRID_HEIGHT, builtin_suite

        code, out, _ = run(capsys, "check", "--builtin", "all")
        assert code == 0
        recs = json_lines(out)
        assert len(recs) == len(builtin_suite("all"))
        for rec in recs:
            assert {"identity_id", "shape", "pass"} <= set(rec)
            assert rec["shape"]
            assert rec["cutoffs"]["series"] == 2000
            assert set(rec["work"]) == {"tables_built"}
            assert isinstance(rec["work"]["tables_built"], int)
            if rec["identity_id"].startswith("derivative_"):
                assert "ell" in rec
            if rec["identity_id"] == "dirichlet_series_expr":
                assert rec["cutoffs"]["outer"] == 300
            if rec["identity_id"] == "lgv_exact":
                assert rec["cutoffs"]["grid"] == LGV_GRID_HEIGHT == 3
                assert rec["work"]["tables_built"] == 0  # it sums no series

    def test_example_manifest_lists_every_registry_id(self):
        from pathlib import Path

        from shzeta.cli import IDENTITIES

        manifest = Path(__file__).resolve().parents[1] / "suite.manifest.example"
        lines = manifest.read_text().splitlines()
        start = lines.index("# identity_id is one of:") + 1
        ids = []
        for line in lines[start:]:
            if line.strip() == "#":
                break
            ids.append(line.lstrip("#").split()[0])
        assert ids == list(IDENTITIES)

    def test_cutoff_precedence(self, capsys, monkeypatch, tmp_path):
        # flag > SHZETA_CUTOFF > manifest cfg.cutoff > 2000
        entry = {"identity_id": "jacobi_trudi_H", "shape": "2,1",
                 "spec": {"z": {"-1": 2, "0": 3, "1": 2}}}
        f = tmp_path / "suite.manifest"
        f.write_text(json.dumps(entry) + "\n"
                     + json.dumps({**entry, "cfg": {"cutoff": 50}}) + "\n")

        def cutoffs(*flags):
            code, out, _ = run(capsys, "check", "--manifest", str(f), *flags)
            assert code == 0
            return [(r["cutoffs"]["series"], r["lhs"]) for r in json_lines(out)]

        (default, default_lhs), (manifest, manifest_lhs) = cutoffs()
        assert (default, manifest) == (2000, 50)
        # The reported cutoff is the one the check ran at.
        assert manifest_lhs == cutoffs("--cutoff", "50")[0][1] != default_lhs
        monkeypatch.setenv("SHZETA_CUTOFF", "70")
        assert [c for c, _ in cutoffs()] == [70, 70]
        assert [c for c, _ in cutoffs("--cutoff", "90")] == [90, 90]


JT_32 = next(e for e in builtin_suite("jacobi-trudi")
             if e["identity_id"] == "jacobi_trudi_H" and e["shape"] == "3,2")


def run_alone(entry):
    """The identity's fields computed outside any record: tables per call."""
    spec = content_spec_from_json(entry["spec"]) if "spec" in entry else _NO_SPEC
    return IDENTITIES[entry["identity_id"]](spec, entry, EvalConfig())


def float_bits(rec):
    return {k: [float.hex(v) for v in np.ravel(rec[k])]
            for k in ("lhs", "rhs", "discrepancy", "budget") if k in rec}


class TestTableScope:
    """One store per check run, shared by its records and dropped when the
    run ends; a record run alone opens its own."""

    def test_tables_built_counts_the_builds(self, built):
        # All-real data: one float table per (exponent, shift) pair.
        rec = run_one(JT_32, None)
        assert rec["work"]["tables_built"] == sum(built.values()) == 3
        run_alone(JT_32)  # per call, the same work builds 12 tables
        assert sum(built.values()) == 3 + 12

    def test_tables_built_counts_every_build(self, capsys, built):
        # On every record of a run, the counter equals the tables the record
        # builds when run alone in its own store: the distinct tables its
        # float series (the kernel, rootzeta, the Dirichlet weights) read.
        alone = []
        for entry in builtin_suite("all"):
            before = sum(built.values())
            run_one(entry, None)
            alone.append(sum(built.values()) - before)
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "check", "--builtin", "all", "--jobs", jobs)
            assert code == 0
            assert [r["work"]["tables_built"] for r in json_lines(out)] == alone

    def test_a_run_builds_each_table_and_sum_once(self, capsys, built, summed):
        code, out, _ = run(capsys, "check", "--builtin", "all")
        assert code == 0
        # 152 tables and 200 kernel sums with one store per record.
        assert sum(built.values()) == 36 and len(summed) == 96
        assert sum(r["work"]["tables_built"] for r in json_lines(out)) == 152
        # Worker threads share the store too; two may sum one key at once.
        # (A store per record would sum 197 times.)
        summed.clear()
        assert run(capsys, "check", "--builtin", "all", "--jobs", "2")[0] == 0
        assert 96 <= len(summed) < 150

    def test_no_state_survives_a_record(self, built):
        # A record run outside a check run opens, and drops, its own store.
        counts = []
        for _ in range(2):
            before = sum(built.values())
            tables_built = run_one(JT_32, None)["work"]["tables_built"]
            counts.append((tables_built, sum(built.values()) - before))
        assert counts[0] == counts[1] == (3, 3)

    def test_no_state_survives_a_run(self, capsys, built):
        counts = []
        for _ in range(2):
            before = sum(built.values())
            run(capsys, "check", "--builtin", "jacobi-trudi")
            counts.append(sum(built.values()) - before)
        assert counts[0] == counts[1] == 3
        assert ezzeta._SCOPE_TABLES.get() is None

    def test_threads_share_the_store(self, capsys):
        # More workers than cores, switching often: a table or sum lost or
        # read half-built would change a record.
        serial = timeless(run(capsys, "check", "--builtin", "all")[1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code, out, _ = run(capsys, "check", "--builtin", "all", "--jobs", "4")
        finally:
            sys.setswitchinterval(interval)
        assert code == 0 and timeless(out) == serial

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_a_store_over_budget_changes_no_record(self, capsys, monkeypatch, jobs):
        # With no byte budget each record drops every kept table, so tables
        # are built again, to the same bits and the same counts, while
        # worker threads drop tables that others read.
        serial = timeless(run(capsys, "check", "--builtin", "all")[1])
        monkeypatch.setattr(ezzeta, "TABLE_BUDGET", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code, out, _ = run(capsys, "check", "--builtin", "all", "--jobs", jobs)
        finally:
            sys.setswitchinterval(interval)
        assert code == 0 and timeless(out) == serial

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scope_unset_after_a_run_that_raises(self, capsys, tmp_path, jobs):
        # The second record overflows after the first has filled the store.
        f = tmp_path / "m.jsonl"
        f.write_text(json.dumps(JT_32) + "\n" + json.dumps(
            {"identity_id": "root_reductions", "z": [2, 3], "m": 1e-200}) + "\n")
        code, out, err = run(capsys, "check", "--manifest", str(f), "--jobs", jobs)
        assert (code, out) == (3, "") and "overflows" in err
        assert ezzeta._SCOPE_TABLES.get() is None

    def test_scope_unset_after_a_domain_error(self):
        entry = {"identity_id": "root_reductions", "z": [2, 3], "m": 1e-200}
        with pytest.raises(DomainError, match="overflows"):
            run_one(entry, None)
        assert ezzeta._SCOPE_TABLES.get() is None

    @pytest.mark.parametrize("suite", SUITES)
    def test_sharing_changes_no_bit(self, suite):
        for entry in builtin_suite(suite):
            shared, alone = run_one(entry, None), run_alone(entry)
            assert float_bits(shared) == float_bits(alone)
            alone.pop("cutoffs", None)  # run_one adds the series cutoff
            assert {k: shared[k] for k in alone} == alone


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--shape", "2,a", "--z", "0=2"],
        ["eval", "--shape", "1,2", "--z", "-1=2,0=2,1=2"],
        ["eval", "--tableau-file", "{missing}"],
        ["eval", "--tableau-file", "{no_s}"],
        ["eval", "--shape", "1", "--z", "0=2", "--cutoff", "0"],
        ["paths", "--shape", "2,1", "--n", "0"],
        ["paths", "--shape", "2,1", "--n", "2", "--max-render", "-1", "--render"],
        ["check", "--manifest", "{missing}"],
        ["check", "--manifest", "{spec_z_list}"],
        ["check", "--manifest", "{spec_5}"],
        ["check", "--manifest", "{cfg_5}"],
        ["check", "--manifest", "{root_z_5}"],
        ["eval", "--tableau-file", "{s_5}"],
        ["eval", "--tableau-file", "{x_7}"],
        ["eval", "--tableau-file", "{s_gap}"],
        ["eval", "--tableau-file", "{s_rows_grow}"],
        ["check", "--manifest", "{no_shape}"],
        ["check", "--manifest", "{shape_2}"],
        # 0 = 10^7 would raise its bases to the power 10^7.
        ["check", "--manifest", "{lgv_huge_exponent}"],
        # 10^15 entries (7.11 PiB) lie beyond the 128 TiB x86-64 address
        # space, so the allocation is refused before any memory is touched.
        ["eval", "--shape", "1", "--z", "0=2", "--cutoff", "1000000000000000"],
        ["check", "--builtin", "hook", "--cutoff", "1000000000000000"],
        ["check"],
    ],
    ids=["bad-part", "increasing-parts", "missing-tableau-file",
         "tableau-without-s", "cutoff-0", "paths-n-0", "paths-max-render-negative",
         "missing-manifest",
         "spec-z-list", "spec-number", "cfg-number", "root-z-number",
         "tableau-s-number", "tableau-x-number", "tableau-row-gap",
         "tableau-rows-grow", "shape-missing", "shape-number",
         "lgv-huge-exponent",
         "eval-cutoff-beyond-memory", "check-cutoff-beyond-memory",
         "check-without-suite"],
)
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    jt = {"identity_id": "jacobi_trudi_H", "shape": "2,1"}
    files = {
        "no_s": {"x": [[0.3]]},
        "spec_z_list": {**jt, "spec": {"z": [1, 2]}},
        "spec_5": {**jt, "spec": 5},
        "cfg_5": {**jt, "spec": {"z": {"-1": 2, "0": 3, "1": 2}}, "cfg": 5},
        "root_z_5": {"identity_id": "root_reductions", "z": 5},
        "s_5": {"s": 5},
        "x_7": {"s": [[2, 3]], "x": 7},
        "s_gap": {"s": [[2, None, 3]]},  # cells that form no skew shape
        "s_rows_grow": {"s": [[2], [3, 3]]},
        "no_shape": {"identity_id": "jacobi_trudi_H", "spec": {"z": {"0": 2}}},
        "shape_2": {"identity_id": "hook_expansion_star", "shape": 2,
                    "spec": {"z": {"0": 2, "1": 3}}},
        "lgv_huge_exponent": {"identity_id": "lgv_exact", "shape": "2,1",
                              "spec": {"z": {"-1": 2, "0": 1e7, "1": 2}}},
    }
    paths = {"{missing}": str(tmp_path / "missing.json")}
    for name, data in files.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(data) + "\n")
        paths["{" + name + "}"] = str(f)
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


_DERIVATIVE = {"identity_id": "derivative_identity", "shape": "2,1",
               "spec": {"z": {"-1": 2, "0": 3, "1": 2}, "y": {"1": 0.3}}}


@pytest.mark.parametrize(
    "extra,flags,code,ran",
    [
        ({"ell": 0.9}, [], 2, None),
        ({"order": 1.7}, [], 2, None),
        ({"ell": True}, [], 2, None),
        ({"cfg": {"cutoff": 600.9}}, [], 2, None),
        ({"cfg": {"cutoff": True}}, [], 2, None),
        ({"cfg": {"cutoff": "6e2"}}, [], 2, None),
        ({}, ["--jobs", "0"], 2, None),
        ({}, ["--jobs", "-3"], 2, None),
        ({"ell": 1, "order": 1, "cfg": {"cutoff": 600}}, [], 0, (1, 600)),
        ({"ell": "1", "order": "1", "cfg": {"cutoff": "600"}}, [], 0, (1, 600)),
        ({"ell": 1.0, "cfg": {"cutoff": 600.0}}, ["--jobs", "2"], 0, (1, 600)),
    ],
    ids=["ell-float", "order-float", "ell-bool", "cutoff-float", "cutoff-bool",
         "cutoff-float-string", "jobs-0", "jobs-negative", "ints",
         "integer-strings", "integral-floats"],
)
def test_integer_inputs(capsys, tmp_path, extra, flags, code, ran):
    # Manifest integers are ints, integral floats or integer strings; a
    # fraction or a bool, like --jobs < 1, is malformed input (exit 2).
    f = tmp_path / "ints.manifest"
    f.write_text(json.dumps({**_DERIVATIVE, **extra}) + "\n")
    got, out, err = run(capsys, "check", "--manifest", str(f), *flags)
    assert got == code
    if code == 2:
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
    else:
        (rec,) = json_lines(out)
        assert (rec["ell"], rec["cutoffs"]["series"]) == ran and rec["pass"]


class TestEvalRecord:
    def test_record_schema_with_work_counters(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--shape", "3,2,1", "--z", "-2=2,-1=2,0=3,1=2,2=2",
            "--cutoff", "300",
        )
        assert code == 0
        (rec,) = json_lines(out)
        assert set(rec) == {
            "value_re", "value_im", "err_bound", "cutoff", "runtime_ms", "work",
        }
        # One DP state per (order ideal, last cell) of the 3,2,1 cell poset;
        # its five contents carry only the pairs (3, 0) and (2, 0).
        assert rec["work"] == {"dp_states": 21, "power_tables": 2, "array_len": 301}

    def test_negative_imaginary_part_prints_a_minus(self, capsys):
        code, out, err = run(capsys, "eval", "--shape", "1", "--z", "0=2+1j")
        assert code == 0
        assert json_lines(out)[0]["value_im"] < 0
        assert "+ -" not in err
        assert f"- {abs(json_lines(out)[0]['value_im']):.12g}i" in err


_JT = {"identity_id": "jacobi_trudi_H", "shape": "2,1"}
_ROOT = {"identity_id": "root_reductions", "z": [2, 3]}


@pytest.mark.parametrize(
    "manifest,argv",
    [
        ({**_ROOT, "m": True}, []),
        ({**_JT, "spec": {"z": {"-1": 2, "0": 3, "1": 2}, "y": {"0": True}}}, []),
        ({**_ROOT, "m": math.nan}, []),
        ({**_JT, "spec": {"z": {"-1": 2, "0": 3, "1": 2}, "y": {"0": math.nan}}}, []),
        ({**_JT, "spec": {"z": {"-1": 2, "0": math.inf, "1": 2}}}, []),
        ({**_ROOT, "m": "nan"}, []),
        (None, ["eval", "--shape", "2,1", "--z", "-1=2,0=inf,1=2"]),
        (None, ["eval", "--shape", "2,1", "--z", "-1=2,0=3,1=2", "--y", "0=nan"]),
        ('{"s": [[2, NaN]]}', ["eval", "--tableau-file", "{file}"]),
    ],
    ids=["m-bool", "y-bool", "m-nan", "y-nan", "z-infinity", "m-nan-string",
         "flag-z-inf", "flag-y-nan", "tableau-nan"],
)
def test_non_finite_and_bool_numbers_exit_2(capsys, tmp_path, manifest, argv):
    # JSON booleans are not numbers, and NaN or an infinity is no input a
    # series can take, whether it comes from a manifest, a flag or a file.
    f = tmp_path / "input.json"
    if isinstance(manifest, dict):
        f.write_text(json.dumps(manifest) + "\n")
        argv = ["check", "--manifest", str(f), "--cutoff", "300"]
    elif manifest is not None:
        f.write_text(manifest + "\n")
    code, out, err = run(capsys, *(str(f) if a == "{file}" else a for a in argv))
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_tiny_shift_overflow_exits_3(capsys, tmp_path):
    # With every variable 0 the term is (1e-200)^-2 (1e-200)^-3, beyond the
    # double range; the complex power once raised ZeroDivisionError.
    f = tmp_path / "m.jsonl"
    f.write_text(json.dumps({"identity_id": "root_reductions", "z": [2, 3], "m": 1e-200}) + "\n")
    code, out, err = run(capsys, "check", "--manifest", str(f))
    assert code == 3
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["hurwitz", "eval", "manifest-depth1", "manifest-depth3"])
def test_huge_shift_gives_finite_value_within_bound(capsys, tmp_path, case):
    # For an integer exponent Python's complex ** multiplies repeatedly, so
    # (1e160)^-2 once overflowed to NaN in an intermediate power although it
    # fits in a float.  Rounding is not yet in the bounds: 1e-12 relative.
    if case.startswith("manifest"):
        z = [2] if case == "manifest-depth1" else [2, 2, 3]
        f = tmp_path / "m.jsonl"
        f.write_text(json.dumps({"identity_id": "root_reductions", "z": z, "m": 1e160}) + "\n")
        code, out, err = run(capsys, "check", "--manifest", str(f))
        (rec,) = json_lines(out)
        assert code == 0 and rec["pass"], err
        assert rec["discrepancy"] <= rec["budget"]
        return
    if case == "hurwitz":
        a = hurwitz(2, 1e160)
        value, bound, ref = a.value, a.err_bound, mpmath.zeta(2, 1e160)
    else:
        code, out, _ = run(capsys, "eval", "--shape", "1", "--z", "0=4", "--y", "0=1e80")
        assert code == 0
        (rec,) = json_lines(out)
        value, bound = complex(rec["value_re"], rec["value_im"]), rec["err_bound"]
        # sum_{m >= 1} (m + 1e80)^-4; the m = 0 term is 1e-320 of it.
        ref = mpmath.zeta(4, 1e80)
    assert abs(value - complex(ref)) <= bound + 1e-12 * abs(ref)
