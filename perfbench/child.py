"""One round of a workload in a fresh process.

Usage: python3 child.py SPEC.json

SPEC names the source tree, the input files, the CLI stages (argument
lists for stochabs.cli.main), the artifact directory and the result
file.  The round imports stochabs and loads the inputs (set-up), runs
the stages in turn with their output captured (pipeline), and writes
its timings, exit codes, captured output and peak resident memory as
JSON.  With "trace" set, spans around every layer's public calls are
recorded as well; with "setup_only" set, the round stops after set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_stage(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import stochabs
    from stochabs import cli, sysdsl

    import_s = time.perf_counter() - t0
    if not Path(stochabs.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        sys.exit(f"stochabs was imported from {stochabs.__file__}, not from {spec['src']}")
    import layers

    capture = layers.EnsembleCapture(stochabs.mcvalidate)
    tracer = layers.install(stochabs) if spec["trace"] else None
    t0 = time.perf_counter()
    for path in spec["inputs"]:
        sysdsl.load(path)
    result = {"setup_s": import_s + time.perf_counter() - t0}

    if not spec["setup_only"]:
        stages = []
        t1, c1 = time.perf_counter(), time.process_time()
        for argv in spec["stages"]:
            ts = time.perf_counter()
            with tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext():
                rc, out, err = run_stage(cli, argv)
            stages.append({"argv": argv, "rc": rc, "seconds": time.perf_counter() - ts,
                           "stdout": out, "stderr": err})
        result["pipeline_s"] = time.perf_counter() - t1
        result["pipeline_cpu_s"] = time.process_time() - c1
        result["stages"] = stages
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["ensembles"] = capture.dump(Path(spec["artifacts"]))
        if tracer:
            result["layers"] = layers.layer_metrics(tracer)
            result["self_times"] = tracer.self_times()
            result["spans"] = tracer.spans

    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
