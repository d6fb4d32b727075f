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
        r = run_cli(["fool", "--polys", str(path), "--d", "1",
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
        good = {"n": 2, "terms": [{"alpha": [1, 0], "coeff": 1.0}]}
        cases = {
            "missing.json": (None, f"polynomial file {tmp_path}/missing.json: "
                                   "No such file or directory"),
            "int.json": (5, f"polynomial file {tmp_path}/int.json: expected "
                            "an object or a list of objects, got int"),
            "empty.json": ([], f"polynomial file {tmp_path}/empty.json: "
                               "holds no polynomial"),
            "entry.json": ([good, 5], "polynomial #1: expected an object, "
                                      "got int"),
            "alpha.json": ([{"n": 2, "terms": [{"alpha": [1.5, 0],
                                                "coeff": 1.0}]}],
                           "polynomial #0: multi-index [1.5, 0] has an entry "
                           "that is not an integer"),
            "bool.json": ([good, {"n": 2, "terms": [{"alpha": [True, 0],
                                                     "coeff": 1.0}]}],
                          "polynomial #1: multi-index [True, 0] has an entry "
                          "that is not an integer"),
            "n-float.json": ([{**good, "n": 2.7}],
                             "polynomial #0: n = 2.7 is not an integer"),
            "n-bool.json": ([good, {**good, "n": True}],
                            "polynomial #1: n = True is not an integer"),
            "coeff-text.json": ([{"n": 2, "terms": [{"alpha": [1, 0],
                                                     "coeff": "1.5"}]}],
                                "polynomial #0: term alpha=[1, 0] has "
                                "coefficient '1.5', which is not a number"),
            "coeff-bool.json": ([{"n": 2, "terms": [{"alpha": [1, 0],
                                                     "coeff": True}]}],
                                "polynomial #0: term alpha=[1, 0] has "
                                "coefficient True, which is not a number"),
            "text.json": ("{not json", None),
        }
        for name, (doc, message) in cases.items():
            path = tmp_path / name
            if doc is not None:
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            with pytest.raises(SystemExit) as exc:
                main(["fool", "--polys", str(path), "--samples", "100"])
            text = str(exc.value.code)
            assert "\n" not in text
            if message is None:
                assert text.startswith(f"polynomial file {path}: ")
            else:
                assert text == message

    def test_nonfinite_coefficient_one_line_error(self, tmp_path):
        # json.dump writes NaN, which json.load reads back
        poly = {"n": 2, "basis": "hermite",
                "terms": [{"alpha": [1, 0], "coeff": 1.0},
                          {"alpha": [0, 1], "coeff": float("nan")}]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps([poly]))
        r = run_cli(["fool", "--polys", str(path), "--d", "1",
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


class TestPolyFileMatchesGrid:
    # mollifier and stats run the file's polynomial on a grid of --n
    # variables and degree bound --d; stats writes one polynomial's grid
    CUBIC = {"n": 2, "terms": [{"alpha": [3, 0], "coeff": 1.0}]}
    LINEAR = {"n": 2, "terms": [{"alpha": [1, 0], "coeff": 1.0}]}

    @pytest.mark.parametrize("cmd,polys,n,message", [
        ("mollifier", [LINEAR, CUBIC], 2,
         "polynomial 01-file has degree 3 above the requested bound 2"),
        ("stats", [CUBIC], 2,
         "polynomial 00-file has degree 3 above the requested bound 2"),
        ("mollifier", [LINEAR], 4,
         "polynomial 00-file has n = 2, not the requested n = 4"),
        ("stats", [LINEAR], 3,
         "polynomial 00-file has n = 2, not the requested n = 3"),
        ("stats", [LINEAR, LINEAR], 2,
         "polynomial file {path}: holds 2 polynomials, stats takes one"),
    ])
    def test_mismatch_is_one_line_error(self, tmp_path, cmd, polys, n,
                                        message):
        path = tmp_path / "polys.json"
        path.write_text(json.dumps(polys))
        r = run_cli([cmd, "--polys", str(path), "--n", str(n), "--d", "2",
                     "--x-trials", "2", "--trials", "50"])
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == message.format(path=path) + "\n"

    def test_matching_file_runs(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(json.dumps([self.LINEAR]))
        for cmd in ("mollifier", "stats"):
            r = run_cli([cmd, "--polys", str(path), "--n", "2", "--d", "2",
                         "--x-trials", "2", "--trials", "50"])
            assert r.returncode == 0, r.stderr


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
        # suite, whatever --d says
        r = run_cli(["fool", "--d", "2", "--samples", "200",
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
                "fool": ["fool", "--polys", linear_poly_file, "--d", "1",
                         "--samples", str(size), "--format", "json"]}[cmd]
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


GRID_FLAGS = {"--n", "--d", "--eps", "--lambda-exp", "--c-lambda", "--k-mult",
              "--M", "--R-bar", "--K", "--coupling", "--seed", "--trials",
              "--out", "--print-params", "--x-trials", "--polys"}
ACCEPTED = {
    "gen": GRID_FLAGS - {"--x-trials", "--polys"} | {"--format"},
    "fool": {"--d", "--eps", "--lambda-exp", "--k-mult", "--M", "--seed",
             "--format", "--out", "--print-params", "--polys", "--samples"},
    "hyperconc": {"--n", "--d", "--seed", "--trials", "--out", "--x-trials",
                  "--R", "--beta", "--inner-eps", "--c-couple"},
    "mollifier": GRID_FLAGS,
    "stats": GRID_FLAGS | {"--cols"},
    "verify": {"--eps", "--seed", "--trials", "--out"},
    "battery": {"--n", "--eps", "--seed", "--trials", "--out", "--only",
                "--inject-fault"},
}
# the flags every subcommand used to accept, read or not
OLD_COMMON = {"--n", "--d", "--eps", "--seed", "--trials", "--format", "--out",
              "--lambda-exp", "--c-lambda", "--k-mult", "--M", "--R-bar",
              "--K", "--coupling", "--print-params"}
REMOVED = sorted((cmd, flag) for cmd, flags in ACCEPTED.items()
                 for flag in OLD_COMMON - flags)


def parser_options():
    import argparse
    from ptfprg.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {cmd: {opt for a in p._actions for opt in a.option_strings
                  if not isinstance(a, argparse._HelpAction)}
            for cmd, p in sub.choices.items()}


class TestOptionSets:
    def test_each_subcommand_accepts_the_flags_it_reads(self):
        options = parser_options()
        assert options == ACCEPTED
        assert sum(map(len, options.values())) == 80
        assert len(REMOVED) == 39

    @pytest.mark.parametrize("cmd,flag", REMOVED)
    def test_removed_flag_is_usage_error(self, cmd, flag, capsys):
        args = [cmd, flag] + ([] if flag == "--print-params" else ["1"])
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_battery_config_keys():
    from ptfprg.battery import BatteryConfig, run_battery
    report = run_battery(BatteryConfig(seed=1), only="clean_fraction")
    assert set(report["config"]) == {"n", "eps", "seed", "trials", "fault"}


def test_verify_config_keys(capsys):
    # verify takes no --n and no --inject-fault, so its report names neither
    assert main(["verify", "--seed", "1", "--eps", "0.3"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"eps": 0.3, "seed": 1, "trials": 2000}


ZERO_X_TRIALS = {"hyperconc": "x_trials = 0 is below 1",
                 "mollifier": "centers have shape (0, 4): no center to read",
                 "stats": "centers have shape (0, 4): no center to read"}


@pytest.mark.parametrize("cmd", sorted(ZERO_X_TRIALS))
def test_zero_x_trials_one_line_error(cmd):
    r = run_cli([cmd, "--x-trials", "0"])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == f"ptfprg {cmd}: {ZERO_X_TRIALS[cmd]}\n"


@pytest.mark.parametrize("args,message", [
    (["stats", "--cols", "-1"], "cols = -1 is below 0"),
    (["hyperconc", "--n", "0"], "n = 0 is below 1"),
], ids=["stats-cols", "hyperconc-n"])
def test_empty_request_one_line_error(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == f"ptfprg {args[0]}: {message}"
    assert capsys.readouterr().out == ""
