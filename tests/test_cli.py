import json
import math
import os
import subprocess
import sys
import threading

import pytest

import threespheres
from threespheres import uniqueness
from threespheres.cli import build_parser, main
from threespheres.sweep import ALL_CHECKS, SweepConfig, run_sweep
from threespheres.verify import flat


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
    # the default grid is 0:|x|:11
    assert main(["correlate", "--x-norm", "0.5", "--r", "0.2"]) == 0
    assert capsys.readouterr().out == out


def test_correlate_error_exits(capsys):
    assert main(["correlate", "--x-norm", "0.5", "--r", "0.5"]) == 2
    assert "touching" in capsys.readouterr().err
    assert main(["correlate", "--x-norm", "0", "--r", "0.3"]) == 2
    err = capsys.readouterr().err
    assert "x != 0" in err or "concentric" in err.lower()
    for grid, message in [("1:2", "--t-grid must be start:stop:count"),
                          ("0:1:3", "0 <= start < stop <= |x|")]:
        assert main(["correlate", "--x-norm", "0.5", "--r", "0.2",
                     "--t-grid", grid]) == 2
        captured = capsys.readouterr()
        assert not captured.out and message in captured.err


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
    groups, _ = run_sweep(SweepConfig.from_dict(SMALL_CONFIG))
    assert groups and all(r.passed for r in flat(groups))


def fresh_env(threads: str) -> dict:
    """The environment of a fresh Python process that imports this
    checkout's package, with ``OPENBLAS_NUM_THREADS`` set to ``threads``."""
    src = os.path.dirname(os.path.dirname(threespheres.__file__))
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(
                    [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_verify_bytes_independent_of_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when numpy is imported, so each run is
    # a fresh process.  Two BLAS threads sum the evaluator's dgemm in another
    # order; at n = 4 and max degree 8 (495 monomials, the n = 4 benchmark
    # shape) that changed the bits of most rows, unless the package runs
    # OpenBLAS on one thread.
    configs = [write_config(tmp_path, {
        "dimensions": [2, 3, 4],
        "corpus": {"count": 30, "max_degree": 6, "seed": 3},
        "geometry": {"count": 2, "seed": 5, "t_count": 2, "lambdas": [0.6]},
        "checks": ["three_spheres", "transfer_identity", "three_balls",
                   "embedded_bound", "log_convexity"],
    }), write_config(tmp_path, {
        "dimensions": [4],
        "corpus": {"count": 20, "max_degree": 8, "seed": 3},
        "geometry": {"count": 2, "seed": 5, "t_count": 5},
        "checks": ["three_spheres", "transfer_identity"],
    }, name="n4.json")]
    for cfg in configs:
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "threespheres.cli", "verify",
                 "--config", cfg, "--out-csv", str(out)],
                env=fresh_env(threads), capture_output=True, text=True,
                timeout=300)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], cfg


def test_import_pins_openblas_to_one_thread():
    # OpenBLAS starts with the two threads the environment asks for; the
    # import of the package must leave every library on one
    script = """if True:
        import ctypes, json, os
        import numpy, scipy.special
        import threespheres
        getters = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
        threads = {}
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
        for path in paths:
            if "openblas" in os.path.basename(path):
                lib = ctypes.CDLL(path)
                for name in getters:
                    if hasattr(lib, name):
                        getattr(lib, name).restype = ctypes.c_int
                        threads[path] = getattr(lib, name)()
                        break
        print(json.dumps(threads))
    """
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the BLAS libraries in")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=fresh_env("2"), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    threads = json.loads(proc.stdout)
    if not threads:
        pytest.skip("no OpenBLAS library is mapped into the process")
    assert set(threads.values()) == {1}, threads


def test_verify_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: a verify run, sphere and ball rules
    # included, must not import any of it
    cfg = write_config(tmp_path, {
        "dimensions": [3],
        "geometry": {"count": 1, "seed": 5, "t_count": 2, "lambdas": [0.6]},
        "checks": ["three_spheres", "three_balls"]})
    script = """if True:
        import sys
        from threespheres.cli import main
        code = main(["verify", "--config", sys.argv[1],
                     "--out-csv", sys.argv[2], "--out-json", sys.argv[3]])
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
        sys.exit(code)
    """
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path / "r.csv"),
         str(tmp_path / "r.json")],
        env=fresh_env("1"), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
    assert (tmp_path / "r.csv").stat().st_size > 0


def test_verify_beta_above_alpha_fails_with_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, {"beta": 0.99,
                                  "checks": ["three_spheres"]})
    rc = main(["verify", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILED rows" in out
    assert "BetaOutOfRange" in out


def test_verify_summary_is_that_of_the_flattened_rows(tmp_path, capsys):
    # every check, beta above alpha (error rows) and the delta_0 rows that
    # fail by design: the printed counts and failed rows are those of the
    # rows the writers flatten
    cfg = write_config(tmp_path, {
        "dimensions": [2, 3], "beta": 0.99,
        "geometry": {"count": 1, "seed": 5, "x_norm_range": [0.5, 0.7],
                     "t_count": 2, "lambdas": [0.6]},
        "checks": list(ALL_CHECKS) + ["delta_lower_bound"]})
    rc = main(["verify", "--config", cfg])
    out = capsys.readouterr().out.splitlines()
    groups, skipped = run_sweep(SweepConfig.from_file(cfg))
    rows = flat(groups)
    failed = [r for r in rows if not r.passed]
    names = sorted({r.name for r in rows})
    assert rc == 1 and failed and skipped
    assert out == [
        f"{name}: {sum(r.passed for r in rows if r.name == name)} passed, "
        f"{sum(not r.passed for r in rows if r.name == name)} failed"
        for name in names] + [f"skipped: {msg}" for msg in skipped] + [
        f"FAILED rows ({len(failed)}):"] + [
        f"  {r.name} n={r.n} |x|={r.x_norm} r={r.r} t={r.t} lhs={r.lhs!r} "
        f"rhs={r.rhs!r}" for r in failed]
    assert {r.name for r in failed} >= {
        "three_spheres_eq24:error:BetaOutOfRange", "delta_lower_bound_scaled"}


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


def test_uniqueness_mixed_trends(tmp_path, capsys):
    # |x_m| = m and r_m = m/2, so rho_m = 1/log 4 and each term is
    # log(eps_m) / (100 log 4) plus phi(4m) (A) or log phi(4m) (B)
    def trend(log_eps, envelope, *flags):
        seq, env = tmp_path / "seq.json", tmp_path / "env.json"
        seq.write_text(json.dumps([
            {"x": [float(m), 0.0], "r": m / 2.0, "log_eps": v}
            for m, v in enumerate(log_eps, start=1)]))
        env.write_text(json.dumps(envelope))
        assert main(["uniqueness", "--sequence", str(seq), "--envelope",
                     str(env), *flags]) == 0
        return capsys.readouterr().out.strip().splitlines()[-1]

    ms = range(1, 13)
    # phi < 1 rising a decade per step: A falls with log eps below -1e3,
    # B rises
    tiny = {"kind": "table", "r": [4.0 * m for m in ms],
            "phi": [math.exp(10.0 * m - 200) for m in ms]}
    assert trend([-1e6 - 1e3 * m for m in ms], tiny) == (
        "trend: diverges (variant A only; other: does not)")
    # phi = 16 m^2 rises faster than its log: A rises, B falls but stays
    # above -1e3
    assert trend([-1e3 * m for m in ms], {"kind": "power", "p": 2}) == (
        "trend: variant A: does not; variant B: inconclusive")


def test_uniqueness_refuses_a_nan_threshold(tmp_path, capsys):
    seq, env = tmp_path / "seq.json", tmp_path / "env.json"
    seq.write_text(json.dumps([{"x": [2.0, 0.0], "r": 1.0, "log_eps": -1}]))
    env.write_text(json.dumps({"kind": "power", "p": 2}))
    assert main(["uniqueness", "--sequence", str(seq), "--envelope",
                 str(env), "--threshold", "nan"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "threshold" in captured.err


def test_uniqueness_defaults_are_the_criterion_constants():
    args = build_parser().parse_args(["uniqueness", "--sequence", "s.json",
                                      "--envelope", "e.json"])
    assert args.window == uniqueness.DEFAULT_WINDOW
    assert args.threshold == uniqueness.DEFAULT_THRESHOLD


def test_uniqueness_malformed_json(tmp_path, capsys):
    seq = tmp_path / "bad.json"
    seq.write_text('[{"x": [2.0, 0.0], "r": 1.0, "eps": }]')
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"kind": "power", "p": 2}))
    rc = main(["uniqueness", "--sequence", str(seq), "--envelope", str(env)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 1 column" in err


def test_uniqueness_non_finite_input_exits_2(tmp_path, capsys):
    # NaN and Infinity parse as JSON numbers; no trace is printed for them,
    # nor for an eps that contradicts its log_eps
    seq = tmp_path / "seq.json"
    env = tmp_path / "env.json"
    for seq_text, env_text, message in [
            ('[{"x": [2.0, 0.0], "r": 1.0, "eps": 0.5}]',
             '{"kind": "power", "p": NaN}', "finite p > 0"),
            ('[{"x": [2.0, 0.0], "r": 1.0, "log_eps": Infinity}]',
             '{"kind": "power", "p": 2}', "log eps must be finite"),
            ('[{"x": [2.0, 0.0], "r": 1.0, "eps": 0.5, "log_eps": -1}]',
             '{"kind": "power", "p": 2}', "eps = 0.5 contradicts log_eps")]:
        seq.write_text(seq_text)
        env.write_text(env_text)
        rc = main(["uniqueness", "--sequence", str(seq),
                   "--envelope", str(env)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and message in captured.err
        assert "trend:" not in captured.out


def test_uniqueness_overflow_and_non_vector_x_exit_2(tmp_path, capsys):
    # an envelope that overflows at 4 |x| = 120, and a matrix x with
    # |x| = 30, are input errors, not failed checks or tracebacks
    seq = tmp_path / "seq.json"
    env = tmp_path / "env.json"
    for x, envelope, message in [
            ([30.0, 0.0], {"kind": "exp_power", "p": 2}, "r = 120.0 is inf"),
            ([30.0, 0.0], {"kind": "power", "p": 200}, "r = 120.0 is inf"),
            ([[30.0, 0.0], [0.0, 0.0]], {"kind": "power", "p": 2},
             "entry 0: x must be a vector")]:
        seq.write_text(json.dumps([{"x": x, "r": 1.0, "eps": 0.5}]))
        env.write_text(json.dumps(envelope))
        rc = main(["uniqueness", "--sequence", str(seq),
                   "--envelope", str(env)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
        assert "trend:" not in captured.out


def test_uniqueness_nested_table_envelope_exits_2(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([{"x": [2.0, 0.0], "r": 1.0, "eps": 0.5}]))
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"kind": "table", "r": [[0, 1], [2, 3]],
                               "phi": [[1, 2], [3, 4]]}))
    rc = main(["uniqueness", "--sequence", str(seq), "--envelope", str(env)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "one-dimensional" in captured.err
    assert "Traceback" not in captured.err


def test_wrong_json_shapes_exit_2(tmp_path, capsys):
    good_seq = tmp_path / "seq.json"
    good_seq.write_text(json.dumps([{"x": [2.0, 0.0], "r": 1.0, "eps": 0.5}]))
    good_env = tmp_path / "env.json"
    good_env.write_text(json.dumps({"kind": "power", "p": 2}))
    cases = [
        ("sequence", [1], "entry 0"),
        ("sequence", [{"x": [2.0, 0.0], "r": "two", "eps": 0.5}],
         "must be numbers"),
        ("sequence", [{"x": [2.0, 0.0], "r": 1.0, "eps": None}],
         "must be numbers"),
        ("sequence", [{"x": [2.0, 0.0], "r": 1.0, "eps": 0.0}],
         "eps must be positive"),
        ("envelope", {"kind": "power"}, "needs key 'p'"),
        ("envelope", [{"kind": "power", "p": 2}], "JSON object"),
        ("envelope", {"kind": "power", "p": "two"}, "must be numbers"),
    ]
    for which, data, message in cases:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        seq, env = (bad, good_env) if which == "sequence" else (good_seq, bad)
        rc = main(["uniqueness", "--sequence", str(seq),
                   "--envelope", str(env)])
        err = capsys.readouterr().err
        assert rc == 2, (which, data)
        assert err.startswith("error: ") and message in err, err
    bad.write_text(json.dumps([1, 2]))
    rc = main(["report", "--json", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "report objects" in err
    bad.write_text(json.dumps([{"name": None, "pass": True}]))
    assert main(["report", "--json", str(bad)]) == 0
    assert "None" in capsys.readouterr().out
    # a pass flag that is not a JSON boolean, or a boolean ratio, is refused
    # with its row index rather than counted
    good = {"name": "x", "pass": True, "ratio": 2.0}
    for row in ({"name": "x", "pass": "false", "ratio": 2.0},
                {"name": "x", "pass": 0, "ratio": 2.0},
                {"name": "x", "ratio": 2.0},
                {"name": "x", "pass": False, "ratio": True}):
        bad.write_text(json.dumps([good, row]))
        rc = main(["report", "--json", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2, row
        assert captured.err.startswith("error: ") and "row 1" in captured.err
        assert "passed" not in captured.out


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
