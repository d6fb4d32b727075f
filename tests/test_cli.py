import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptfprg.cli import main
from ptfprg.hermite import HermitePoly, random_poly

RUN = [sys.executable, "-m", "ptfprg.cli"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


class TestGen:
    def test_reproducible_bytes(self, tmp_path):
        args = ["gen", "--n", "2", "--d", "1", "--trials", "3", "--seed", "9"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert len(a.stdout.strip().split("\n")) == 2 + 3  # header+cols+rows

    def test_json_document(self):
        r = run_cli(["gen", "--n", "2", "--d", "1", "--trials", "2",
                     "--seed", "1", "--format", "json"])
        doc = json.loads(r.stdout)
        assert set(doc) == {"params", "samples"}
        assert len(doc["samples"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_is_one_line_error(self, trials):
        r = run_cli(["gen", "--n", "2", "--d", "1", "--trials", trials])
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == (f"ptfprg gen: sample count {trials} is not an "
                            "int >= 1\n")

    def test_header_seed_bits_match_accounting(self):
        from ptfprg.kwise import gaussian_seed_length
        from ptfprg.prg import choose_params
        r = run_cli(["gen", "--n", "2", "--d", "1", "--trials", "1",
                     "--seed", "4"])
        header = json.loads(r.stdout.split("\n")[0][2:])
        params = choose_params(2, 1, 0.2)
        assert header["seed_bits_per_sample"] == \
            params.L * gaussian_seed_length(params.block_spec())


class TestFool:
    def test_file_polys_and_gate(self, tmp_path):
        rng = np.random.default_rng(2)
        polys = [random_poly(2, 1, rng).to_json_dict() for _ in range(2)]
        path = tmp_path / "polys.json"
        path.write_text(json.dumps(polys))
        r = run_cli(["fool", "--polys", str(path), "--n", "2", "--d", "1",
                     "--samples", "4000", "--seed", "3", "--format", "json"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert len(doc["rows"]) == 2
        assert all(row["diff"] == abs(row["est_prg"] - row["est_true"])
                   for row in doc["rows"])

    def test_degree_violation_names_polynomial(self, tmp_path):
        poly = HermitePoly(1, {(3,): 1.0}).to_json_dict()
        path = tmp_path / "p.json"
        path.write_text(json.dumps([poly]))
        r = run_cli(["fool", "--polys", str(path), "--d", "1"])
        assert r.returncode != 0
        assert "00-file" in r.stderr

    def test_parse_error_names_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"n": 1, "basis": "weird", "terms": []}]))
        r = run_cli(["fool", "--polys", str(path)])
        assert r.returncode != 0
        assert "#0" in r.stderr

    def test_nonfinite_coefficient_one_line_error(self, tmp_path):
        # json.dump writes NaN, which json.load reads back
        poly = {"n": 2, "basis": "hermite",
                "terms": [{"alpha": [1, 0], "coeff": 1.0},
                          {"alpha": [0, 1], "coeff": float("nan")}]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps([poly]))
        r = run_cli(["fool", "--polys", str(path), "--n", "2", "--d", "1",
                     "--samples", "200"])
        assert r.returncode == 1
        assert r.stdout == ""
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("polynomial #0: ")
        assert "alpha=[0, 1]" in lines[0]


class TestMollifierCmd:
    def test_row_schema(self):
        r = run_cli(["mollifier", "--n", "2", "--d", "1", "--x-trials", "3",
                     "--trials", "100", "--seed", "5"])
        doc = json.loads(r.stdout)
        assert len(doc["rows"]) == 3
        row = doc["rows"][0]
        assert set(row) == {"poly_id", "x_id", "mollifier", "sign",
                            "first_analysis_failure"}


class TestStatsCmd:
    def test_csv_header(self):
        r = run_cli(["stats", "--n", "2", "--d", "1", "--x-trials", "2",
                     "--cols", "2", "--trials", "100", "--seed", "5"])
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "i,j,x_id,value,stderr,exact"
        assert len(lines) == 1 + 2 * 3 * 2


class TestBattery:
    def test_only_single_check(self):
        r = run_cli(["battery", "--only", "clean_fraction", "--seed", "1"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert [c["name"] for c in doc["checks"]] == ["clean_fraction"]

    def test_unknown_only_errors(self):
        r = run_cli(["battery", "--only", "nope"])
        assert r.returncode != 0

    def test_injected_fault_fails(self):
        r = run_cli(["battery", "--only", "jigsaw_grid", "--inject-fault",
                     "jigsaw", "--seed", "1"])
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["checks"][0]["pass"] is False

    def test_verify_subcommand_exact_only(self):
        r = run_cli(["verify", "--seed", "2", "--trials", "300"])
        assert r.returncode == 0, r.stdout[-2000:]
        doc = json.loads(r.stdout)
        assert all(c["kind"] == "exact" for c in doc["checks"])
        assert len(doc["checks"]) >= 12


class TestPrintParams:
    def test_dumps_resolved_set(self):
        r = run_cli(["gen", "--n", "2", "--d", "1", "--trials", "1",
                     "--seed", "0", "--print-params"])
        dumped = json.loads(r.stderr)
        assert dumped["n"] == 2 and dumped["d"] == 1
        assert dumped["lambda_exp"] == 4.0

    def test_fool_prints_each_group_it_runs(self):
        # fool runs its own lambda_exp and M once per (n, d) group of the
        # suite, whatever --n and --d say
        r = run_cli(["fool", "--n", "4", "--d", "2", "--samples", "200",
                     "--seed", "3", "--format", "json", "--print-params"])
        groups = {(p["n"], p["d"]): p for p in json.loads(r.stderr)}
        rows = json.loads(r.stdout)["rows"]
        assert {(row["n"], row["d"]) for row in rows} == set(groups)
        for row in rows:
            printed = groups[row["n"], row["d"]]
            assert printed["seed_bits_per_sample"] == row["seed_bits"]
            assert printed["lambda_exp"] == 2.0 and printed["M"] == 16


class TestMainEntry:
    def test_in_process_invocation(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        rc = main(["battery", "--only", "clean_fraction", "--seed", "0",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["pass"] is True


@pytest.fixture(scope="module")
def linear_poly_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("polys") / "linear.json"
    path.write_text(json.dumps(HermitePoly(2, {(1, 0): 1.0}).to_json_dict()))
    return str(path)


class TestMonteCarloSizes:
    @settings(max_examples=25, deadline=None)
    @given(cmd=st.sampled_from(["stats", "mollifier", "fool"]),
           size=st.integers(0, 4))
    def test_error_or_no_nan(self, linear_poly_file, cmd, size):
        # sizes below 2 give no error bar: one-line error, nonzero exit
        args = {"stats": ["stats", "--n", "2", "--d", "2", "--x-trials", "2",
                          "--trials", str(size)],
                "mollifier": ["mollifier", "--n", "2", "--d", "1",
                              "--x-trials", "2", "--trials", str(size)],
                "fool": ["fool", "--polys", linear_poly_file, "--n", "2",
                         "--d", "1", "--samples", str(size), "--format",
                         "json"]}[cmd]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                main(args)
        except SystemExit as exc:
            assert size < 2
            assert isinstance(exc.code, str) and "\n" not in exc.code
            assert "at least 2 samples" in exc.code
        else:
            assert size >= 2
            assert "nan" not in out.getvalue().lower()


class TestBadCenters:
    @pytest.mark.parametrize("cmd", ["mollifier", "stats"])
    def test_nonfinite_center_one_line_error(self, monkeypatch, cmd):
        import ptfprg.cli as cli
        real = cli.substream

        class NanCenters:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                X = self.rng.standard_normal(size)
                X[-1, 0] = np.nan
                return X

        def substream(seed, tag, *rest):
            rng = real(seed, tag, *rest)
            return NanCenters(rng) if tag.endswith("-x") else rng

        monkeypatch.setattr(cli, "substream", substream)
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--n", "2", "--d", "1", "--x-trials", "3",
                  "--trials", "2"])
        assert exc.value.code == (f"ptfprg {cmd}: centers must be finite "
                                  "(got nan or inf)")
