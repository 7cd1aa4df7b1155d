"""End-to-end and per-layer benchmark of the stochabs pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid2d --seed 1729 --seconds 20 --trace 0

Each round runs the workload's CLI stages in a fresh child process that
imports stochabs from ./src.  Rounds repeat until --seconds of round
time have passed (at least one round).  The first round's artifacts are
checked against computations made apart from the program (checks.py);
every later round must reproduce them byte for byte.  Extra set-up-only
rounds give setup_s several samples.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def run_child(wl, spec_dir: Path, tag, artifacts: Path, seed, trace=False, setup_only=False):
    """Run one round in a fresh process; returns its result and wall time."""
    artifacts.mkdir(parents=True, exist_ok=True)
    spec = {
        "src": str(ROOT / "src"),
        "inputs": [str(p) for p in wl.inputs],
        "stages": [] if setup_only else wl.stages(artifacts, seed),
        "artifacts": str(artifacts),
        "trace": trace,
        "setup_only": setup_only,
        "result": str(spec_dir / f"{tag}.result.json"),
    }
    spec_path = spec_dir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"round {tag} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8")), wall


def fingerprint(artifacts: Path, result) -> str:
    """Digest of every artifact file and of each stage's exit code and output
    (with the round's own directory name masked)."""
    h = hashlib.sha256()
    for path in sorted(p for p in artifacts.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(artifacts)).encode())
        h.update(path.read_bytes())
    for st in result["stages"]:
        h.update(json.dumps([st["rc"], st["stdout"].replace(str(artifacts), "<round>")]).encode())
    return h.hexdigest()


def replay(artifacts: Path, result, reference):
    checks.require(fingerprint(artifacts, result) == reference,
                   "artifacts or stage output differ from round 0")
    return {}


class Ledger:
    """Operations attempted and failed: one per CLI stage and per output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_ok = True
        self.log = []

    def record(self, name, ok, detail):
        self.attempted += 1
        self.failed += not ok
        self.log.append({"op": name, "ok": ok, "detail": detail})
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def stage(self, st):
        detail = {"rc": st["rc"], "seconds": round(st["seconds"], 4)}
        if st["rc"] != 0:
            detail["stderr"] = st["stderr"][-500:]
        self.record(f"stage {st['argv'][0]}", st["rc"] == 0, detail)

    def check(self, name, thunk):
        try:
            detail, ok = thunk(), True
        except Exception as exc:  # a checker error is a failed check, reported by name
            detail, ok = f"{type(exc).__name__}: {exc}", False
            self.checks_ok = False
        self.record(name, ok, detail)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)

    base = OUT / f"{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    ledger = Ledger()
    try:
        # warm-up: compiles bytecode and fills the file cache; untimed
        run_child(wl, base, "warmup", base / "warmup", args.seed, setup_only=True)
        rounds, setups, reference, spent = [], [], None, 0.0
        while not rounds or spent < args.seconds:
            k = len(rounds)
            artifacts = base / f"round{k}"
            res, wall = run_child(wl, base, f"round{k}", artifacts, args.seed, trace=trace)
            spent += wall
            rounds.append(res)
            setups.append(res["setup_s"])
            for st in res["stages"]:
                ledger.stage(st)
            if k == 0:
                for name, thunk in wl.checks(artifacts, args.seed, res):
                    ledger.check(name, thunk)
                reference = fingerprint(artifacts, res)
            else:
                ledger.check(f"round {k} reproduces round 0",
                             lambda: replay(artifacts, res, reference))
                shutil.rmtree(artifacts)
        while len(setups) < SETUP_SAMPLES:
            tag = f"setup{len(setups)}"
            res, _ = run_child(wl, base, tag, base / tag, args.seed, setup_only=True)
            setups.append(res["setup_s"])
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    med = statistics.median
    if trace:
        metrics = {
            name: {"value": med(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in layers.METRICS.items()
        }
        (base / "trace.json").write_text(json.dumps(
            {"self_times": rounds[0]["self_times"], "spans": rounds[0]["spans"]}, indent=1))
    else:
        metrics = {
            "pipeline_s": {"value": med(r["pipeline_s"] for r in rounds), "unit": "s"},
            "pipeline_cpu_s": {"value": med(r["pipeline_cpu_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": med(setups), "unit": "s"},
            "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    summary = {"correct": ledger.checks_ok, "attempted": ledger.attempted,
               "failed": ledger.failed, "metrics": metrics}
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "summary": summary,
        "rounds": [{"setup_s": r["setup_s"], "pipeline_s": r["pipeline_s"],
                    "pipeline_cpu_s": r["pipeline_cpu_s"],
                    "peak_rss_mb": r["peak_rss_mb"],
                    "stages": [[st["argv"][0], st["rc"], st["seconds"]] for st in r["stages"]]}
                   for r in rounds],
        "setup_samples": setups,
        "operations": ledger.log,
    }
    (base / "result.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for op in ledger.log:
        if not op["op"].startswith("stage"):
            print(f"{'ok  ' if op['ok'] else 'FAIL'} {op['op']}: {op['detail']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
