"""Self-test of the output checks: each must pass on real artifacts and
fail on a corrupted copy.

Usage (from the repository root):  python3 perfbench/selftest.py [--seed N]

Runs one round of every workload, then corrupts copies of its artifacts:
one successor of an .abs file (re-hashed so it still parses), one pair
dropped from a relation, one bound shifted in a CSV report, one
ensemble scaled off its moments.  Exits 0 when every check accepts the
real artifact and rejects every corrupted one.  Not part of the test
suite; takes about a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import shutil
import sys
from pathlib import Path

import numpy as np

import checks as ck
import run
import workloads as wls

OUT = run.OUT / "selftest"


def corrupt_successor(src: Path, dst: Path, rng):
    """Copy an .abs file with one successor index moved, and re-hash it."""
    lines = src.read_text(encoding="utf-8").splitlines()
    n_states = int(next(line for line in lines if line.startswith("states ")).split()[1])
    rows = [i for i, line in enumerate(lines) if " -> " in line + " " and len(line.split()) > 4
            and line.split()[-1] != "*"]
    i = rng.choice(rows)
    toks = lines[i].split()
    toks[-1] = str((int(toks[-1]) + n_states // 2) % n_states)
    lines[i] = " ".join(toks)
    body = "\n".join(lines[:-1]) + "\n"
    dst.write_text(body + f"hash {hashlib.sha256(body.encode()).hexdigest()}\n", encoding="utf-8")
    return f"line {i + 1}"


def rejects(fn, *args):
    try:
        fn(*args)
    except ck.CheckFailed:
        return True
    return False


def main(argv=None):
    ap = argparse.ArgumentParser(description="self-test of the benchmark's output checks")
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    bad = OUT / "corrupt"
    bad.mkdir()
    results = []

    def expect(label, ok):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    rounds = {}
    for name, wl in wls.WORKLOADS.items():
        art = OUT / name
        res, _ = run.run_child(wl, OUT, name, art, args.seed)
        ledger = run.Ledger()
        for label, thunk in wl.checks(art, args.seed, res):
            ledger.check(label, thunk)
        expect(f"{name}: all checks accept the real artifacts", ledger.checks_ok and not any(
            st["rc"] for st in res["stages"]))
        rounds[name] = (art, res)

    # grid2d: flow checker and self-relation checks
    art = rounds["grid2d"][0]
    where = corrupt_successor(art / "grid2d.abs", bad / "grid2d.abs", rng)
    expect(f"grid2d flow check rejects a moved successor ({where})", rejects(
        ck.check_flow_abstraction, ck.read_abs(bad / "grid2d.abs"), ck.grid2d_drift,
        wls.GRID2D_DOMAIN, wls.GRID2D_INPUTS, 0.5, (wls.GRID2D_ETA,) * 2, (wls.GRID2D_OMEGA,)))
    g = ck.read_abs(art / "grid2d.abs")
    rel = ck.read_rel(art / "bisim" / "relation.rel")
    pair = rng.choice(sorted(rel.pairs))
    rel.pairs.discard(pair)
    expect(f"grid2d relation checks reject dropping pair {pair}",
           rejects(ck.check_self_relation, rel, len(g.states)) or rejects(ck.check_clauses, rel, g, g))

    # ring3: closed-form node check, wiring oracle, clause and maximality checks
    art = rounds["ring3"][0]
    where = corrupt_successor(art / "ring3" / "b.abs", bad / "b.abs", rng)
    expect(f"ring3 node check rejects a moved successor ({where})", rejects(
        ck.check_linear_node, ck.read_abs(bad / "b.abs"), 1.0, *wls.RING_NODE_BOXES, 0.5,
        wls.RING_ETA, wls.RING_OMEGA))
    parts = {n: ck.read_abs(art / "ring3" / f"{n}.abs") for n in wls.RING_NODES}
    where = corrupt_successor(art / "ring3" / "composed.abs", bad / "composed.abs", rng)
    expect(f"ring3 wiring oracle rejects a moved successor ({where})", rejects(
        ck.check_composition, ck.read_abs(bad / "composed.abs"), parts, wls.RING_IN, 8.0))
    s1 = ck.read_abs(art / "ring3" / "composed.abs")
    s2 = ck.read_abs(art / "ring3_gain" / "composed.abs")
    rel = ck.read_rel(art / "bisim" / "relation.rel")
    pair = rng.choice(sorted(rel.pairs))
    rel.pairs.discard(pair)
    expect(f"ring3 maximality check flags dropped pair {pair}",
           ck.refuted_additions(rel, s1, s2, [pair]) == [pair])
    rel.pairs.add((0, len(s2.states) - 1))
    expect("ring3 clause check rejects a far pair", rejects(ck.check_clauses, rel, s1, s2))

    # mc-scalar: bound transcription and moment recursions
    art, res = rounds["mc-scalar"]
    reports = bad / "reports"
    shutil.copytree(art / "reports", reports)
    csv_path = reports / "moment_closeness.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    toks = lines[2].split(",")
    toks[4] = f"{float(toks[4]) * 1.001:.10g}"
    lines[2] = ",".join(toks)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expect("mc-scalar bound check rejects a shifted bound",
           rejects(ck.check_moment_bound_column, reports, 0.5))
    e = next(e for e in res["ensembles"] if not any(e["u"]) and np.ndim(e["x0"]) == 1)
    values = np.load(art / e["file"])
    values *= 1.03
    expect("mc-scalar moment check rejects a 3% drift", rejects(
        ck.check_em_moments, values, e["x0"][0], e["tau"], e["steps"], e["checkpoints"]))

    print(f"{sum(results)}/{len(results)} self-test cases passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
