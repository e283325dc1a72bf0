import json
import os
import subprocess
import sys
import threading

import threespheres
from threespheres.cli import main
from threespheres.sweep import SweepConfig, run_sweep


SMALL_CONFIG = {
    "dimensions": [2],
    "corpus": {"count": 3, "max_degree": 5, "seed": 3},
    "geometry": {"count": 2, "seed": 5, "t_count": 2, "lambdas": [0.6]},
    "checks": ["three_spheres", "three_balls", "log_convexity"],
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_correlate_table(capsys):
    rc = main(["correlate", "--x-norm", "0.5", "--r", "0.2",
               "--t-grid", "0:0.5:11"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if l.strip()]
    assert "1.891248853" in lines[0]
    assert len(lines) == 2 + 11  # header rows + 11 grid rows


def test_correlate_error_exits(capsys):
    assert main(["correlate", "--x-norm", "0.5", "--r", "0.5"]) == 2
    assert "touching" in capsys.readouterr().err
    assert main(["correlate", "--x-norm", "0", "--r", "0.3"]) == 2
    err = capsys.readouterr().err
    assert "x != 0" in err or "concentric" in err.lower()


def test_verify_small_config_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    rc = main(["verify", "--config", cfg, "--out-csv", str(csv_path),
               "--out-json", str(json_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "name,n,x_norm,r,t_or_xbar,exponent,lhs,rhs,ratio,pass"
    assert all(row.endswith(",true") for row in rows[1:])
    data = json.loads(json_path.read_text())
    assert all(d["pass"] for d in data)
    assert {d["name"] for d in data} >= {"three_spheres_eq24",
                                         "three_balls_eq27",
                                         "log_convexity_eq18"}


def test_verify_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["verify", "--config", cfg, "--out-csv", str(a)]) == 0
    assert main(["verify", "--config", cfg, "--out-csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_starts_no_thread(monkeypatch):
    monkeypatch.delenv("THREESPHERES_THREADS", raising=False)

    def refuse(self):
        raise AssertionError(f"the sweep started a thread: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    reports, _ = run_sweep(SweepConfig.from_dict(SMALL_CONFIG))
    assert reports and all(r.passed for r in reports)


def test_verify_bytes_independent_of_blas_threads(tmp_path):
    # the BLAS thread count is read when numpy is imported, so each run is
    # a fresh process; with 30 columns, a BLAS node sum split over two
    # threads changed the bits of some rows
    cfg = write_config(tmp_path, {
        "dimensions": [2, 3, 4],
        "corpus": {"count": 30, "max_degree": 6, "seed": 3},
        "geometry": {"count": 2, "seed": 5, "t_count": 2, "lambdas": [0.6]},
        "checks": ["three_spheres", "transfer_identity", "three_balls",
                   "embedded_bound", "log_convexity"],
    })
    src = os.path.dirname(os.path.dirname(threespheres.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "threespheres.cli", "verify", "--config",
             cfg, "--out-csv", str(out)], env=env, capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_beta_above_alpha_fails_with_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, {"beta": 0.99,
                                  "checks": ["three_spheres"]})
    rc = main(["verify", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILED rows" in out
    assert "BetaOutOfRange" in out


def test_verify_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--config", missing]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err

    empty_corpus = write_config(tmp_path, {"corpus": {"count": 0}},
                                name="empty.json")
    assert main(["verify", "--config", empty_corpus]) == 2
    assert "corpus.count" in capsys.readouterr().err

    unknown = write_config(tmp_path, {"checks": ["not_a_check"]},
                           name="unknown.json")
    assert main(["verify", "--config", unknown]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err

    # misspelt keys, at the top level and inside a section, are not ignored
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"chekcs": ["three_spheres"]}))
    assert main(["verify", "--config", str(typo)]) == 2
    assert "'chekcs': unknown key" in capsys.readouterr().err
    typo.write_text(json.dumps({"corpus": {"sed": 5}}))
    assert main(["verify", "--config", str(typo)]) == 2
    assert "'corpus.sed': unknown key" in capsys.readouterr().err


def test_file_errors_exit_2(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    # an unwritable output path
    missing_dir = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    assert main(["verify", "--config", cfg, "--out-csv", missing_dir]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    # ... is found before the sweep runs
    def no_sweep(cfg):
        raise AssertionError("the sweep ran before the outputs were checked")

    with monkeypatch.context() as mp:
        mp.setattr("threespheres.cli.run_sweep", no_sweep)
        for flag in ("--out-csv", "--out-json"):
            assert main(["verify", "--config", cfg, flag, missing_dir]) == 2
            assert "No such file or directory" in capsys.readouterr().err
    # a directory where a file is expected
    assert main(["verify", "--config", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert main(["report", "--json", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    # a config that is not UTF-8
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"beta": "\xe9"}')
    assert main(["verify", "--config", str(latin1)]) == 2
    assert "codec can't decode" in capsys.readouterr().err


def test_verify_skips_are_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dimensions": [3],
        "checks": ["three_spheres", "holomorphic_variant"],
    }, name="skip.json")
    rc = main(["verify", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "skipped: holomorphic_variant" in out


def test_uniqueness_cubic_and_linear(tmp_path, capsys):
    ms = list(range(1, 21)) + [int(1500 * 1.2 ** k) for k in range(12)]
    cubic = [{"x": [float(m), 0.0], "r": m / 2.0, "log_eps": -float(m) ** 3}
             for m in ms]
    seq = tmp_path / "cubic.json"
    seq.write_text(json.dumps(cubic))
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"kind": "power", "p": 2, "c": 1}))
    trace_csv = tmp_path / "trace.csv"
    rc = main(["uniqueness", "--sequence", str(seq), "--envelope", str(env),
               "--out-csv", str(trace_csv)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trend: diverges (variant A and B)" in out
    header = trace_csv.read_text().splitlines()[0]
    assert header.startswith("m,x_norm,r,rho,term_a,term_b")

    linear = [{"x": [float(m), 0.0], "r": m / 2.0, "log_eps": -float(m)}
              for m in range(1, 31)]
    seq2 = tmp_path / "linear.json"
    seq2.write_text(json.dumps(linear))
    rc = main(["uniqueness", "--sequence", str(seq2), "--envelope", str(env)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trend: does not" in out


def test_uniqueness_malformed_json(tmp_path, capsys):
    seq = tmp_path / "bad.json"
    seq.write_text('[{"x": [2.0, 0.0], "r": 1.0, "eps": }]')
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"kind": "power", "p": 2}))
    rc = main(["uniqueness", "--sequence", str(seq), "--envelope", str(env)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 1 column" in err


def test_report_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    json_path = tmp_path / "rep.json"
    assert main(["verify", "--config", cfg, "--out-json", str(json_path)]) == 0
    capsys.readouterr()
    rc = main(["report", "--json", str(json_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "three_spheres_eq24" in out
    assert "0 failed" in out.splitlines()[-1]

    rows = json.loads(json_path.read_text())
    rows[0]["pass"] = False
    json_path.write_text(json.dumps(rows))
    rc = main(["report", "--json", str(json_path)])
    assert rc == 1
