"""Command-line interface: subcommands, file outputs, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import paircorr.cli
from paircorr.cli import main
from paircorr.correlation import correlation_R
from paircorr.data import load_dataset
from paircorr.oracle import OracleResult


def test_curve_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(
        [
            "curve",
            "--sigma", "0.5",
            "--f", "0.25",
            "--p-tilde", "0.3",
            "--grid", "0.1:2.0:5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "wrote 5 points" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "delta_p,R"
    dp, r = np.loadtxt(lines[1:], delimiter=",", unpack=True)
    np.testing.assert_array_equal(dp, np.linspace(0.1, 2.0, 5))
    np.testing.assert_array_equal(r, correlation_R(dp, 0.5, 0.25, 0.3))


def test_curve_json_defaults(tmp_path):
    out = tmp_path / "curve.json"
    rc = main(["curve", "--sigma", "0.4", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"sigma", "f", "p_tilde", "delta_p", "r"}
    assert payload["sigma"] == 0.4
    assert payload["f"] == 0.5
    assert payload["p_tilde"] == pytest.approx(0.04)  # tied to 0.1 sigma
    assert len(payload["delta_p"]) == 200  # default grid


def test_synth_is_deterministic(tmp_path):
    flags = ["synth", "--sigma", "0.22", "--grid", "0.05:1.2:20", "--noise", "0.1",
             "--seed", "5"]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(flags[:-1] + ["6", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()
    ds = load_dataset(a)
    assert len(ds) == 20 and ds.sigma_r is not None


def test_synth_then_fit_roundtrip(tmp_path, capsys):
    data = tmp_path / "data.csv"
    result = tmp_path / "fit.json"
    rc = main(
        ["synth", "--sigma", "0.22", "--f", "0.5", "--grid", "0.02:1.1:30",
         "--noise", "0", "--out", str(data)]
    )
    assert rc == 0
    rc = main(["fit", "--data", str(data), "--out", str(result)])
    assert rc == 0
    assert "fitted" in capsys.readouterr().out
    payload = json.loads(result.read_text())
    assert set(payload) == {
        "sigma", "f", "p_tilde", "approx_error_pct", "converged", "residuals",
    }
    assert payload["converged"] is True
    assert abs(payload["sigma"] - 0.22) < 1e-4
    assert abs(payload["f"] - 0.5) < 1e-3


def test_fit_with_one_free_parameter(tmp_path):
    data = tmp_path / "data.csv"
    result = tmp_path / "fit.json"
    assert main(["synth", "--sigma", "0.22", "--grid", "0.02:1.1:30", "--noise", "0",
                 "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--free", "sigma", "--out", str(result)]) == 0
    payload = json.loads(result.read_text())
    assert payload["f"] == 0.5  # held at the --f default
    assert abs(payload["sigma"] - 0.22) < 1e-4


def test_repeated_calls_share_no_state(tmp_path):
    # one parser serves every call in a process: no call may see another's arguments
    data, again, curve, first, second = (
        tmp_path / name for name in ("d.csv", "d2.csv", "c.csv", "f1.json", "f2.json")
    )
    synth = ["synth", "--sigma", "0.22", "--grid", "0.02:1.1:30", "--noise", "0"]
    fit = ["fit", "--data", str(data)]
    assert main(synth + ["--out", str(data)]) == 0
    assert main(["curve", "--sigma", "0.5", "--grid", "0.1:2.0:5", "--out", str(curve)]) == 0
    assert main(fit + ["--out", str(first)]) == 0
    with pytest.raises(SystemExit) as excinfo:
        main(fit + ["--starts", "0", "--out", str(second)])
    assert excinfo.value.code == 2
    assert not second.exists()
    assert main(synth + ["--out", str(again)]) == 0
    assert main(fit + ["--out", str(second)]) == 0
    assert again.read_bytes() == data.read_bytes()
    assert second.read_bytes() == first.read_bytes()
    assert curve.read_text().splitlines()[0] == "delta_p,R"


def test_fit_nonconvergence_still_writes(tmp_path):
    data = tmp_path / "data.csv"
    result = tmp_path / "fit.json"
    main(["synth", "--sigma", "0.22", "--grid", "0.02:1.1:30", "--noise", "0.1",
          "--out", str(data)])
    rc = main(
        ["fit", "--data", str(data), "--starts", "1", "--max-iter", "1",
         "--out", str(result)]
    )
    assert rc == 3
    payload = json.loads(result.read_text())
    assert payload["converged"] is False


def test_oracle_check_passes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PAIRCORR_THREADS", "1")
    out = tmp_path / "report.csv"
    rc = main(
        ["oracle-check", "--sigma", "0.5", "--f", "0.3", "--p-tilde", "0.5",
         "--grid", "0.5:2.0:3", "--samples", "131072", "--tol", "0.05",
         "--out", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "coincidence: 3/3 passed" in printed
    assert "accidental:  3/3 passed" in printed
    body = out.read_text().splitlines()
    header = "delta_p,closed,oracle,err,pass,est_error,samples,chunks,threads,elapsed_s"
    assert body.count(header) == 2
    data_rows = [line.split(",") for line in body if line and not line.startswith(("#", "delta_p"))]
    assert len(data_rows) == 6
    columns = header.split(",")
    for row in data_rows:
        fields = dict(zip(columns, row, strict=True))
        assert fields["pass"] == "1"
        assert 0.0 < float(fields["est_error"]) <= 3.0 * abs(float(fields["oracle"]))
        assert int(fields["samples"]) == 131072
        assert (int(fields["chunks"]), int(fields["threads"])) == (1, 1)
        assert float(fields["elapsed_s"]) > 0.0


def test_oracle_check_starved_budget_fails(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(
        ["oracle-check", "--sigma", "0.5", "--f", "0.3", "--p-tilde", "0.5",
         "--grid", "0.5:2.0:3", "--samples", "64", "--tol", "1e-4",
         "--out", str(out)]
    )
    assert rc == 4
    data_rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith(("#", "delta_p"))
    ]
    assert len(data_rows) == 6
    assert all(row[4] == "0" for row in data_rows)


@pytest.mark.parametrize(
    "flags",
    [["--sigma", "0.22", "--f", "1.0"], ["--sigma", "0.5", "--f", "0.3", "--samples", "500000"]],
)
def test_oracle_check_verifies_the_paper_and_readme_regimes(tmp_path, capsys, flags):
    # both intensity oracles at the oracle-check defaults meet the
    # default tolerance on every row: the paper's sigma = 0.22 at f = 1,
    # and the README mixture at a quarter of the default samples
    rc = main(["oracle-check", *flags, "--out", str(tmp_path / "report.csv")])
    printed = capsys.readouterr().out
    assert rc == 0, printed
    assert "coincidence: 4/4 passed" in printed
    assert "accidental:  4/4 passed" in printed


def test_oracle_check_rows_draw_their_own_seeds(tmp_path, monkeypatch):
    # each row of each intensity gets its own rng_seed, derived from
    # --seed, so the rows are independent checks; the same --seed gives
    # the same seeds, and another --seed other ones
    seeds = []

    def spy(name):
        def oracle(dp, params, spec):
            seeds.append((name, float(dp), spec.rng_seed))
            return OracleResult(1.0, 0.0, spec.sample_count)

        return oracle

    monkeypatch.setattr(paircorr.cli, "intensity_cor_oracle", spy("cor"))
    monkeypatch.setattr(paircorr.cli, "intensity_uncor_oracle", spy("uncor"))

    def run(seed):
        seeds.clear()
        argv = ["oracle-check", "--sigma", "0.5", "--seed", str(seed), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 4  # the spies' value 1 misses every closed form
        return list(seeds)

    first = run(7)
    assert [(name, dp) for name, dp, _ in first] == [
        (name, dp) for name in ("cor", "uncor") for dp in (0.25, 0.5, 1.0, 2.0)
    ]
    assert len({seed for _, _, seed in first}) == 8
    assert run(7) == first
    assert not {seed for _, _, seed in run(8)} & {seed for _, _, seed in first}


def test_missing_data_file(tmp_path, capsys):
    rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_data_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    for row in ("0.7,oops", "0.7,nan", "-0.7,0.2"):
        bad.write_text(f"delta_p,R\n0.5,0.1\n{row}\n")
        rc = main(["fit", "--data", str(bad), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err


def test_too_few_points(tmp_path, capsys):
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("delta_p,R\n0.5,0.1\n")
    rc = main(["fit", "--data", str(tiny), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "insufficient" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path, capsys):
    rc = main(["curve", "--sigma", "-0.5", "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curve", "synth", "oracle-check"])
def test_negative_p_tilde_exit_code(command, tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main([command, "--sigma", "0.3", "--p-tilde", "-1", "--out", str(out)])
    assert rc == 1
    assert "p_tilde" in capsys.readouterr().err
    assert not out.exists()


def test_huge_split_ratio_exit_code(tmp_path, capsys):
    # p_tilde / sigma = 1e203, whose square overflows: a one-line error
    # and exit 1, no traceback and no output file
    out = tmp_path / "x.csv"
    rc = main(["curve", "--sigma", "1e-3", "--p-tilde", "1e200", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "square overflows" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--sigma", "0.5", "--noise", "-0.1", "--out", "x.csv"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["curve", "--sigma", "0.5", "--grid", "2.0:1.0:5", "--out", "x.csv"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", "d.csv", "--out", "o.json", "--starts", "0"],
        ["fit", "--data", "d.csv", "--out", "o.json", "--max-iter", "0"],
        ["fit", "--data", "d.csv", "--out", "o.json", "--free", "sigma,q"],
        ["fit", "--data", "d.csv", "--out", "o.json", "--free", "sigma,sigma"],
        ["oracle-check", "--sigma", "0.5", "--samples", "0", "--out", "r.csv"],
        # fit takes no seed: every fit is deterministic without one
        ["fit", "--data", "d.csv", "--out", "o.json", "--seed", "0"],
        ["synth", "--sigma", "0.5", "--out", "x.csv", "--seed", "-1"],
        ["oracle-check", "--sigma", "0.5", "--seed", "-1", "--out", "r.csv"],
        ["oracle-check", "--sigma", "0.5", "--tol", "0", "--out", "r.csv"],
        ["curve", "--sigma", "0.5", "--grid", "1:2", "--out", "x.csv"],
        ["curve", "--sigma", "0.5", "--grid", "a:1:3", "--out", "x.csv"],
        ["oracle-check", "--sigma", "0.5", "--samples", "abc", "--out", "r.csv"],
    ],
)
def test_config_usage_errors(argv, capsys):
    # rejected while parsing, before any file is read or written
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    unknown = argv[0] == "fit" and "--seed" in argv
    want = "error: unrecognized arguments: --seed 0" if unknown else "error: argument"
    assert want in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("paircorr ")


def test_console_script(tmp_path):
    out = tmp_path / "curve.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "paircorr.cli", "curve", "--sigma", "0.5",
         "--grid", "0.1:1.0:4", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("delta_p,R\n")
