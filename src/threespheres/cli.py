"""Command-line front end: correlate, verify, uniqueness, report.

Exit codes: 0 success, 1 at least one failed check, 2 bad input
(preconditions, config, or file errors).  All file paths come from flags or
the config file; nothing is written implicitly.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import ConfigError, ThreeSpheresError
from .geometry import CorrelatedFamily
from .sweep import SweepConfig, read_json, run_sweep, write_csv, write_json
from .uniqueness import (DEFAULT_THRESHOLD, DEFAULT_WINDOW, VERDICT_DIVERGES,
                         GrowthEnvelope, SmallnessSequence, criterion_trace)
from .verify import flat

_F = ".10g"


def _parse_t_grid(spec: str, x_norm: float):
    if spec is None:
        return np.linspace(0.0, x_norm, 11)
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ConfigError(f"--t-grid must be start:stop:count, got {spec!r}")
    if count < 2 or not 0 <= start < stop <= x_norm * (1 + 1e-12):
        raise ConfigError("--t-grid must satisfy 0 <= start < stop <= |x|")
    return np.linspace(start, stop, count)


def cmd_correlate(args) -> int:
    fam = CorrelatedFamily.create([args.x_norm] + [0.0], args.r, R=args.R)
    grid = _parse_t_grid(args.t_grid, fam.x_norm)
    inv = fam.inversion
    print(f"|a| = {inv.a_norm:{_F}}  rho = {inv.rho:{_F}}  R = {fam.R:{_F}}")
    print(f"{'t':>14} {'r_t':>14} {'r_t*':>14} {'alpha_t':>14} {'omega_t':>14}")
    for t in grid:
        rt = float(fam.radius(t))
        rts = float(fam.image_radius(t))
        if t > 0:
            rec = fam.exponents(t)
            alpha, omega = rec.alpha, rec.omega
        else:
            alpha = omega = 0.0
        print(f"{t:14.6g} {rt:14.8g} {rts:14.8g} {alpha:14.8g} {omega:14.8g}")
    return 0


def cmd_verify(args) -> int:
    cfg = SweepConfig.from_file(args.config)
    out_csv = args.out_csv or cfg.out_csv
    out_json = args.out_json or cfg.out_json
    for path in (out_csv, out_json):
        if path:  # an unwritable path fails here, not after the sweep
            with open(path, "a", encoding="utf-8"):
                pass
    groups, skipped = run_sweep(cfg)
    if out_csv:
        write_csv(groups, out_csv)
    if out_json:
        write_json(groups, out_json)
    by_name: dict = {}
    for group in groups:
        for head, passed in zip(group.heads, group.passed.T.tolist()):
            ok, bad = by_name.get(head.name, (0, 0))
            by_name[head.name] = (ok + sum(passed), bad + passed.count(False))
    failures = [rep for rep in flat(g for g in groups if not g.passed.all())
                if not rep.passed]
    for name in sorted(by_name):
        ok, bad = by_name[name]
        print(f"{name}: {ok} passed, {bad} failed")
    for msg in skipped:
        print(f"skipped: {msg}")
    if failures:
        print(f"FAILED rows ({len(failures)}):")
        for rep in failures:
            print(f"  {rep.name} n={rep.n} |x|={rep.x_norm} r={rep.r} "
                  f"t={rep.t} lhs={rep.lhs!r} rhs={rep.rhs!r}")
        return 1
    print("all checks passed")
    return 0


def cmd_uniqueness(args) -> int:
    seq = read_json(args.sequence, SmallnessSequence.from_json)
    phi = GrowthEnvelope.from_spec(read_json(args.envelope))
    trace = criterion_trace(seq, phi, window=args.window,
                            threshold=args.threshold)
    lines = ["m,x_norm,r,rho,term_a,term_b,running_verdict_a,running_verdict_b"]
    for i in range(len(trace)):
        lines.append(",".join([
            str(i), format(trace.x_norms[i], ".17g"),
            format(trace.radii[i], ".17g"), format(trace.rhos[i], ".17g"),
            format(trace.terms_a[i], ".17g"), format(trace.terms_b[i], ".17g"),
            trace.running_a[i], trace.running_b[i],
        ]))
    text = "\n".join(lines) + "\n"
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    va, vb = ("diverges" if v == VERDICT_DIVERGES else v
              for v in (trace.verdict_a, trace.verdict_b))
    if va == vb == "diverges":
        print("trend: diverges (variant A and B)")
    elif "diverges" in (va, vb):
        which = "A" if va == "diverges" else "B"
        print(f"trend: diverges (variant {which} only; other: "
              f"{vb if which == 'A' else va})")
    elif va == vb:
        print(f"trend: {va}")
    else:
        print(f"trend: variant A: {va}; variant B: {vb}")
    return 0


def cmd_report(args) -> int:
    rows = read_json(args.json)
    if not (isinstance(rows, list)
            and all(isinstance(row, dict) for row in rows)):
        raise ConfigError(f"{args.json}: expected a JSON array of report "
                          "objects")
    by_name: dict = {}
    worst: dict = {}
    for row in rows:
        name = str(row.get("name", "?"))
        ok, bad = by_name.get(name, (0, 0))
        passed = bool(row.get("pass"))
        by_name[name] = (ok + passed, bad + (not passed))
        ratio = row.get("ratio")
        if isinstance(ratio, (int, float)) and not math.isnan(ratio):
            cur = worst.get(name)
            if cur is None or ratio > cur:
                worst[name] = ratio
    print(f"{'check':<40} {'passed':>8} {'failed':>8} {'max ratio':>14}")
    for name in sorted(by_name):
        ok, bad = by_name[name]
        w = worst.get(name)
        ws = format(w, ".6g") if w is not None else "-"
        print(f"{name:<40} {ok:>8} {bad:>8} {ws:>14}")
    total_bad = sum(bad for _, bad in by_name.values())
    print(f"total: {sum(ok for ok, _ in by_name.values())} passed, "
          f"{total_bad} failed")
    return 1 if total_bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threespheres",
        description="Correlated-sphere geometry and inequality verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="print the correlated family table")
    p.add_argument("--x-norm", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--t-grid", type=str, default=None,
                   help="start:stop:count (default 0:|x|:11)")
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("verify", help="run a verification sweep from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("uniqueness", help="evaluate the uniqueness criterion "
                                          "trace on a sequence file")
    p.add_argument("--sequence", required=True,
                   help='JSON array of {"x": [...], "r": r, "eps": eps}')
    p.add_argument("--envelope", required=True,
                   help='JSON {"kind": "power"|"exp_power"|"table", ...}')
    p.add_argument("--out-csv", default=None)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(fn=cmd_uniqueness)

    p = sub.add_parser("report", help="summarize a JSON report file")
    p.add_argument("--json", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ThreeSpheresError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
