"""Spans around the public calls of each stochabs layer, from outside the package.

install() replaces module attributes with wrappers that record a span
(name, parent, start, end, counts) per call; nothing under src/ changes.
A module that bound a function by name at import time is patched too.
Counts that need extra work (such as candidate pairs) are taken after
the span has ended, so they do not inflate the layer's own time.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

import numpy as np

SUITES = ("moment_closeness", "increment_bound", "delta_iss", "bisim_step")
STAGES = ("lint", "certify", "params", "abstract", "compose", "bisim", "validate")

#: Every per-layer metric with its unit, in report order.
METRICS = {
    "gridabs.build_s": "s",
    "gridabs.cells": "count",
    "gridabs.us_per_cell": "us",
    "gridabs.transitions": "count",
    "gridabs.write_us_per_transition": "us",
    "gridabs.transitions_read": "count",
    "gridabs.read_us_per_transition": "us",
    "netcomp.synthesize_params_ms": "ms",
    "netcomp.build_node_s": "s",
    "netcomp.compose_s": "s",
    "netcomp.product_transitions": "count",
    "netcomp.us_per_product_transition": "us",
    "bisimcheck.largest_s": "s",
    "bisimcheck.candidate_pairs": "count",
    "bisimcheck.pairs_kept": "count",
    "bisimcheck.us_per_candidate_pair": "us",
    "bisimcheck.check_s": "s",
    "bisimcheck.check_us_per_pair": "us",
    "mcvalidate.ensemble_s": "s",
    "mcvalidate.path_steps": "count",
    "mcvalidate.ns_per_path_step": "ns",
    **{f"mcvalidate.suite_s.{s}": "s" for s in SUITES},
    "sysdsl.load_ms": "ms",
    "sysdsl.check_regularity_ms": "ms",
    "certify.verify_certificate_ms": "ms",
    **{f"cli.stage_s.{s}": "s" for s in STAGES},
}


class Tracer:
    """In-memory span recorder; spans are written out when the round ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, count=None):
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec["counts"].update(count(result, sig.bind(*args, **kwargs).arguments))
            return result

        setattr(owner, attr, wrapper)
        return wrapper

    def self_times(self):
        """Per span name: calls, total seconds and self seconds (total minus children)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for rec, inner in zip(self.spans, child):
            row = out.setdefault(rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = rec["end"] - rec["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - inner
        return out


def _candidate_pairs(_result, a):
    x1 = np.asarray(a["s1"].states, float)
    x2 = np.asarray(a["s2"].states, float)
    gap = np.abs(x1[:, None, :] - x2[None, :, :]).max(axis=2, initial=0.0)
    return {"candidate_pairs": int((gap <= a["eps"] + 1e-12).sum())}


def install(stochabs_modules) -> Tracer:
    """Wrap the public calls of each layer; returns the tracer that records them."""
    m = stochabs_modules
    tr = Tracer()
    tr.wrap(m.sysdsl, "load", "sysdsl.load")
    tr.wrap(m.sysdsl, "check_regularity", "sysdsl.check_regularity")
    verify = tr.wrap(m.certify, "verify_certificate", "certify.verify_certificate")
    m.netcomp.verify_certificate = verify  # bound by name at import
    tr.wrap(m.gridabs, "build_abstraction", "gridabs.build_abstraction",
            lambda r, a: {"cells": len(r.transitions)})
    tr.wrap(m.gridabs.FiniteAbstraction, "write", "gridabs.write",
            lambda r, a: {"transitions": len(a["self"].transitions)})
    tr.wrap(m.gridabs, "read_abstraction", "gridabs.read_abstraction",
            lambda r, a: {"transitions": len(r.transitions)})
    tr.wrap(m.netcomp, "synthesize_params", "netcomp.synthesize_params")
    tr.wrap(m.netcomp, "build_node_abstraction", "netcomp.build_node_abstraction")
    tr.wrap(m.netcomp, "compose_abstractions", "netcomp.compose_abstractions",
            lambda r, a: {"transitions": len(r.transitions)})

    def kept(r, a):
        return {"pairs_kept": len(r.pairs), **_candidate_pairs(r, a)}

    tr.wrap(m.bisimcheck, "largest_bisimulation", "bisimcheck.largest_bisimulation", kept)
    tr.wrap(m.bisimcheck, "check_relation", "bisimcheck.check_relation",
            lambda r, a: {"pairs": len(a["rel"].pairs)})

    def path_steps(r, a):
        configs = 1 if a.get("pair_with") is None else 2
        return {"path_steps": int(a["n_paths"]) * int(a["steps"]) * configs}

    tr.wrap(m.mcvalidate, "simulate_ensemble", "mcvalidate.simulate_ensemble", path_steps)
    for suite in SUITES:
        tr.wrap(m.mcvalidate, f"validate_{suite}", f"mcvalidate.{suite}")
    return tr


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one round; layers the round never called read 0."""
    total = {}
    counts = {}
    for rec in tr.spans:
        total[rec["name"]] = total.get(rec["name"], 0.0) + rec["end"] - rec["start"]
        for key, val in rec["counts"].items():
            ck = f"{rec['name']}:{key}"
            counts[ck] = counts.get(ck, 0) + val

    def t(name):
        return total.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    out = {
        "gridabs.build_s": t("gridabs.build_abstraction"),
        "gridabs.cells": c("gridabs.build_abstraction:cells"),
        "gridabs.transitions": c("gridabs.write:transitions"),
        "gridabs.transitions_read": c("gridabs.read_abstraction:transitions"),
        "netcomp.synthesize_params_ms": 1e3 * t("netcomp.synthesize_params"),
        "netcomp.build_node_s": t("netcomp.build_node_abstraction"),
        "netcomp.compose_s": t("netcomp.compose_abstractions"),
        "netcomp.product_transitions": c("netcomp.compose_abstractions:transitions"),
        "bisimcheck.largest_s": t("bisimcheck.largest_bisimulation"),
        "bisimcheck.candidate_pairs": c("bisimcheck.largest_bisimulation:candidate_pairs"),
        "bisimcheck.pairs_kept": c("bisimcheck.largest_bisimulation:pairs_kept"),
        "bisimcheck.check_s": t("bisimcheck.check_relation"),
        "mcvalidate.ensemble_s": t("mcvalidate.simulate_ensemble"),
        "mcvalidate.path_steps": c("mcvalidate.simulate_ensemble:path_steps"),
        "sysdsl.load_ms": 1e3 * t("sysdsl.load"),
        "sysdsl.check_regularity_ms": 1e3 * t("sysdsl.check_regularity"),
        "certify.verify_certificate_ms": 1e3 * t("certify.verify_certificate"),
    }
    out["gridabs.us_per_cell"] = per(out["gridabs.build_s"], out["gridabs.cells"], 1e6)
    out["gridabs.write_us_per_transition"] = per(t("gridabs.write"), out["gridabs.transitions"], 1e6)
    out["gridabs.read_us_per_transition"] = per(
        t("gridabs.read_abstraction"), out["gridabs.transitions_read"], 1e6)
    out["netcomp.us_per_product_transition"] = per(
        out["netcomp.compose_s"], out["netcomp.product_transitions"], 1e6)
    out["bisimcheck.us_per_candidate_pair"] = per(
        out["bisimcheck.largest_s"], out["bisimcheck.candidate_pairs"], 1e6)
    out["bisimcheck.check_us_per_pair"] = per(
        out["bisimcheck.check_s"], c("bisimcheck.check_relation:pairs"), 1e6)
    out["mcvalidate.ns_per_path_step"] = per(out["mcvalidate.ensemble_s"], out["mcvalidate.path_steps"], 1e9)
    for suite in SUITES:
        out[f"mcvalidate.suite_s.{suite}"] = t(f"mcvalidate.{suite}")
    for stage in STAGES:
        out[f"cli.stage_s.{stage}"] = t(f"cli.{stage}")
    return {name: out[name] for name in METRICS}


class EnsembleCapture:
    """Keeps the arrays returned by single-configuration ensemble runs.

    Installed in every round, traced or not: it stores references only,
    so the checks can test the ensembles the stages actually used.
    """

    def __init__(self, mcvalidate):
        self.calls = []
        fn = mcvalidate.simulate_ensemble
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((sig, args, kwargs, result))
            return result

        mcvalidate.simulate_ensemble = wrapper

    def dump(self, directory):
        """Save each captured single-configuration ensemble; returns its metadata."""
        meta = []
        for k, (sig, args, kwargs, result) in enumerate(self.calls):
            a = sig.bind(*args, **kwargs).arguments
            if a.get("pair_with") is not None:
                continue
            values, diverged = result
            path = directory / f"ensemble{k}.npy"
            np.save(path, values)
            meta.append({
                "file": path.name,
                "x0": np.asarray(a["x0"], float).tolist(),
                "u": np.asarray(a["u"], float).tolist(),
                "w": np.asarray(a["w"], float).tolist(),
                "tau": float(a["tau"]),
                "steps": int(a["steps"]),
                "n_paths": int(a["n_paths"]),
                "checkpoints": [int(v) for v in a["checkpoint_steps"]],
                "diverged": int(np.count_nonzero(diverged)),
            })
        return meta
