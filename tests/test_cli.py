"""Command-line interface: JSON-lines output, exit codes, manifests."""

import json
import math

import pytest

from shzeta.cli import BUILTIN_SUITES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


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


class TestUsage:
    # argparse reports bad invocations through SystemExit(2), which the
    # console entry point passes through unchanged.
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--bogus"])
        assert exc.value.code == 2


class TestRegistry:
    def test_builtin_all_record_schema(self, capsys):
        from shzeta.cli import builtin_suite

        code, out, _ = run(capsys, "check", "--builtin", "all")
        assert code == 0
        recs = json_lines(out)
        assert len(recs) == len(builtin_suite("all"))
        for rec in recs:
            assert {"identity_id", "shape", "pass"} <= set(rec)
            assert rec["shape"]
            assert rec["cutoffs"]["series"] == 2000
            if rec["identity_id"].startswith("derivative_"):
                assert "ell" in rec
            if rec["identity_id"] == "dirichlet_series_expr":
                assert rec["cutoffs"]["outer"] == 300

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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--shape", "2,a", "--z", "0=2"],
        ["eval", "--shape", "1,2", "--z", "-1=2,0=2,1=2"],
        ["eval", "--tableau-file", "{missing}"],
        ["eval", "--tableau-file", "{no_s}"],
        ["eval", "--shape", "1", "--z", "0=2", "--cutoff", "0"],
        ["paths", "--shape", "2,1", "--n", "0"],
        ["check", "--manifest", "{missing}"],
        ["check", "--manifest", "{spec_z_list}"],
        ["check", "--manifest", "{spec_5}"],
        ["check", "--manifest", "{cfg_5}"],
        ["check", "--manifest", "{root_z_5}"],
        ["eval", "--tableau-file", "{s_5}"],
        ["eval", "--tableau-file", "{x_7}"],
    ],
    ids=["bad-part", "increasing-parts", "missing-tableau-file",
         "tableau-without-s", "cutoff-0", "paths-n-0", "missing-manifest",
         "spec-z-list", "spec-number", "cfg-number", "root-z-number",
         "tableau-s-number", "tableau-x-number"],
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
        # One DP state per (order ideal, last cell) of the 3,2,1 cell poset.
        assert rec["work"] == {"dp_states": 21, "array_len": 301}

    def test_negative_imaginary_part_prints_a_minus(self, capsys):
        code, out, err = run(capsys, "eval", "--shape", "1", "--z", "0=2+1j")
        assert code == 0
        assert json_lines(out)[0]["value_im"] < 0
        assert "+ -" not in err
        assert f"- {abs(json_lines(out)[0]['value_im']):.12g}i" in err
