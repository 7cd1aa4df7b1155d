"""The three workloads: input files, CLI stages and output checks.

Each workload's stages are argument lists for `stochabs.cli.main`, run in
order in one child process with --workers 1.  The checks run afterwards,
outside the timed region, on the artifacts the stages wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck

INPUTS = Path(__file__).resolve().parent / "inputs"


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple  # files loaded during set-up
    stages: Callable  # (artifact dir, seed) -> list of argv lists
    checks: Callable  # (artifact dir, seed, round result) -> list of (name, thunk)


def _argv(*parts):
    return [str(p) for p in parts]


def _stdout(result, index):
    return result["stages"][index]["stdout"]


def _check_bisim_output(result, compute, verify, rel):
    n = len(rel.pairs)
    ck.require(f"largest bisimulation: {n} pairs" in _stdout(result, compute),
               "bisim stage reports another pair count")
    ck.require(_stdout(result, verify).strip() == f"valid: {n} pairs",
               "bisim --check does not report the relation valid")


# -- grid2d -----------------------------------------------------------------

GRID2D = INPUTS / "grid2d.sys"
GRID2D_DOMAIN = ((-1.0, 1.0), (-0.2, 0.2))
GRID2D_INPUTS = ((-0.2, 0.2),)
GRID2D_ETA = 0.025
GRID2D_OMEGA = 0.05
GRID2D_SPACING = 2 * GRID2D_ETA  # bisim eps: one lattice spacing


def grid2d_stages(out: Path, seed):
    s = str(seed)
    return [
        _argv("lint", GRID2D, "--seed", s),
        _argv("certify", GRID2D, "--mode", "sampled", "--tau", 0.5, "--seed", s, "--out", out / "certify"),
        _argv("params", GRID2D, "--tau", 0.5, "--eps", 1.5, "--omega", GRID2D_OMEGA, "--seed", s,
              "--out", out / "params"),
        _argv("abstract", GRID2D, "--tau", 0.5, "--eta", GRID2D_ETA, "--omega", GRID2D_OMEGA,
              "--eps", 1.5, "--workers", 1, "--seed", s, "--out", out),
        _argv("bisim", out / "grid2d.abs", out / "grid2d.abs", "--eps", GRID2D_SPACING,
              "--out", out / "bisim"),
        _argv("bisim", out / "grid2d.abs", out / "grid2d.abs", "--check", out / "bisim" / "relation.rel"),
    ]


def grid2d_checks(out: Path, seed, result):
    loaded = {}

    def flow():
        a = loaded["abs"] = ck.read_abs(out / "grid2d.abs")
        return ck.check_flow_abstraction(
            a, ck.grid2d_drift, GRID2D_DOMAIN, GRID2D_INPUTS, 0.5,
            (GRID2D_ETA,) * 2, (GRID2D_OMEGA,),
        )

    def clauses():
        a = loaded["abs"]
        rel = loaded["rel"] = ck.read_rel(out / "bisim" / "relation.rel")
        ck.check_relation_file(rel, a, a, GRID2D_SPACING)
        _check_bisim_output(result, 4, 5, rel)
        ck.check_self_relation(rel, len(a.states))
        return ck.check_clauses(rel, a, a)

    def maximal():
        return ck.check_maximality(loaded["rel"], loaded["abs"], loaded["abs"], seed)

    return [("grid2d flow", flow), ("grid2d clauses", clauses), ("grid2d maximality", maximal)]


# -- ring3 ------------------------------------------------------------------

RINGS = (("ring3", 1.0), ("ring3_gain", 0.8))  # network file stem, coupling gain
RING_NODES = ("a", "b", "c")
RING_IN = {"a": ["c"], "b": ["a"], "c": ["b"]}  # edges a -> b -> c -> a
RING_EPS = 0.2
RING_NODE_BOXES = (((-1.0, 1.0),), ((-0.1, 0.1),))  # node domain, input box
RING_ETA, RING_OMEGA = (0.1,), (0.1 / 3,)  # per node, after snapping


def ring3_stages(out: Path, seed):
    s = str(seed)
    argvs = []
    for stem, _ in RINGS:
        net, d = INPUTS / f"{stem}.net", out / stem
        argvs += [
            _argv("params", net, "--seed", s, "--out", d / "params"),
            _argv("abstract", net, "--workers", 1, "--seed", s, "--out", d),
            _argv("compose", net, *(d / f"{n}.abs" for n in RING_NODES), "--out", d),
        ]
    left, right = out / "ring3" / "composed.abs", out / "ring3_gain" / "composed.abs"
    argvs += [
        _argv("bisim", left, right, "--eps", RING_EPS, "--out", out / "bisim"),
        _argv("bisim", left, right, "--check", out / "bisim" / "relation.rel"),
    ]
    return argvs


def ring3_checks(out: Path, seed, result):
    loaded = {}

    def nodes(stem, gain):
        def run():
            parts = {}
            for n in RING_NODES:
                a = parts[n] = ck.read_abs(out / stem / f"{n}.abs")
                ck.require(np.array_equal(a.dists, a.states), f"{n}: disturbances are not the ring lattice")
                ck.check_linear_node(a, gain, *RING_NODE_BOXES, 0.5, RING_ETA, RING_OMEGA)
            loaded[stem] = parts
            return {"nodes": len(parts)}
        return run

    def wiring(stem):
        def run():
            comp = loaded[f"{stem}.composed"] = ck.read_abs(out / stem / "composed.abs")
            return ck.check_composition(comp, loaded[stem], RING_IN, 8.0)
        return run

    def clauses():
        s1, s2 = loaded["ring3.composed"], loaded["ring3_gain.composed"]
        rel = loaded["rel"] = ck.read_rel(out / "bisim" / "relation.rel")
        ck.check_relation_file(rel, s1, s2, RING_EPS)
        _check_bisim_output(result, 6, 7, rel)
        return ck.check_clauses(rel, s1, s2)

    def maximal():
        return ck.check_maximality(loaded["rel"], loaded["ring3.composed"],
                                   loaded["ring3_gain.composed"], seed)

    named = []
    for stem, gain in RINGS:
        named += [(f"{stem} nodes", nodes(stem, gain)), (f"{stem} wiring", wiring(stem))]
    return named + [("ring3 clauses", clauses), ("ring3 maximality", maximal)]


# -- mc-scalar ----------------------------------------------------------------

SCALAR = INPUTS / "scalar.sys"
SUITE_ROWS = {"moment_closeness": 3, "increment_bound": 15, "delta_iss": 4, "bisim_step": 100}


def mc_stages(out: Path, seed):
    return [_argv("validate", SCALAR, "--tau", 0.5, "--workers", 1, "--seed", seed,
                  "--out", out / "reports")]


def mc_checks(out: Path, seed, result):
    def suites():
        ck.check_suites(out / "reports", _stdout(result, 0), SUITE_ROWS)
        diverged = sum(e["diverged"] for e in result["ensembles"])
        ck.require(diverged == 0, f"{diverged} diverged paths in the ensembles")
        return {"ensembles": len(result["ensembles"])}

    def moments():
        checked = []
        for e in result["ensembles"]:
            if any(e["u"]) or any(e["w"]) or np.ndim(e["x0"]) != 1:
                continue
            values = np.load(out / e["file"])
            checked.append(ck.check_em_moments(values, e["x0"][0], e["tau"], e["steps"], e["checkpoints"]))
        ck.require(checked, "no ensemble with u = w = 0 was run")
        return {"ensembles": len(checked), "worst_z": max(c["worst_z"] for c in checked)}

    def bound_column():
        ck.check_moment_bound_column(out / "reports", 0.5)
        return {}

    return [("mc-scalar suites", suites), ("mc-scalar moments", moments),
            ("mc-scalar bound column", bound_column)]


WORKLOADS = {
    "grid2d": Workload("grid2d", (GRID2D,), grid2d_stages, grid2d_checks),
    "ring3": Workload("ring3", tuple(INPUTS / f"{stem}.net" for stem, _ in RINGS), ring3_stages,
                      ring3_checks),
    "mc-scalar": Workload("mc-scalar", (SCALAR,), mc_stages, mc_checks),
}
