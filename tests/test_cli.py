import argparse
import hashlib
import re

import pytest

from stochabs import bisimcheck, gridabs, mcvalidate
from stochabs.cli import build_parser, main
from tests.conftest import DATA

SCALAR = str(DATA / "scalar.sys")
SCALAR_DET = str(DATA / "scalar_det.sys")
PAIR = str(DATA / "pair.net")


def test_help_golden():
    parser = build_parser()
    assert parser.format_help() == (DATA / "help_main.txt").read_text()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices["validate"].format_help() == (DATA / "help_validate.txt").read_text()
    assert sub.choices["abstract"].format_help() == (DATA / "help_abstract.txt").read_text()


def test_help_documents_every_flag():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        text = sp.format_help()
        for action in sp._actions:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    assert opt in text, (name, opt)
            assert action.help, (name, action.dest)


def test_lint_ok_and_refuted(tmp_path, capsys):
    assert main(["lint", SCALAR]) == 0
    bad = tmp_path / "bad.sys"
    bad.write_text((DATA / "scalar.sys").read_text().replace("Lf=1", "Lf=0.5"))
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out and "witness" in out


def test_lint_parse_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("system s\ndims n=1 m=0 p=0 r=1\n")
    assert main(["lint", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_certify_exit_codes(capsys):
    assert main(["certify", SCALAR]) == 0
    assert main(["certify", SCALAR, "--kappa", "0.9", "--P", "1"]) == 1
    out = capsys.readouterr().out
    assert "accepted,linear-exact,0" in out


def test_params_infeasible_names_the_violation(capsys):
    rc = main(["params", SCALAR, "--tau", "0.5", "--eps", "0.5", "--eps-tilde-norm", "0.1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "floor" in err
    rc = main(["params", SCALAR, "--tau", "0.5", "--eps", "3.2",
               "--omega", "0.1", "--eps-tilde-norm", "0.1"])
    assert rc == 0


def test_params_network(capsys):
    assert main(["params", PAIR]) == 0
    out = capsys.readouterr().out
    assert "feasible,a,1" in out and "feasible,b,1" in out


def test_abstract_idempotent(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    args = ["abstract", SCALAR, "--tau", "0.5", "--eta", "0.13", "--omega", "0.1",
            "--eps", "3.2", "--eps-tilde-norm", "0.1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    f1 = (out1 / "scalar1.abs").read_bytes()
    f2 = (out2 / "scalar1.abs").read_bytes()
    assert f1 == f2


def test_abstract_rejects_invalid_pitch(tmp_path, capsys):
    rc = main(["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", "--omega", "0.1",
               "--eps", "3.2", "--eps-tilde-norm", "0.1", "--out", str(tmp_path)])
    assert rc == 2
    assert "admissible" in capsys.readouterr().err


def test_network_abstract_compose_bisim(tmp_path, capsys):
    out = tmp_path / "net"
    assert main(["abstract", PAIR, "--out", str(out)]) == 0
    assert (out / "a.abs").exists() and (out / "b.abs").exists()
    assert main(["compose", PAIR, str(out / "a.abs"), str(out / "b.abs"),
                 "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "eps,8" in captured
    composed = gridabs.read_abstraction(out / "composed.abs")
    assert composed.dists == ((),)

    assert main(["bisim", str(out / "a.abs"), str(out / "a.abs"),
                 "--eps", "0", "--eps-tilde", "0", "--out", str(out)]) == 0
    assert main(["bisim", str(out / "a.abs"), str(out / "a.abs"),
                 "--check", str(out / "relation.rel")]) == 0
    # mismatched hashes rejected as a usage error
    assert main(["bisim", str(out / "b.abs"), str(out / "a.abs"),
                 "--check", str(out / "relation.rel")]) == 2


def test_validate_and_report(tmp_path, capsys):
    out = tmp_path / "val"
    rc = main(["validate", SCALAR_DET, "--tau", "0.5", "--eps", "0.5",
               "--paths", "400", "--pairs", "10", "--steps", "256",
               "--out", str(out)])
    assert rc == 0
    for name in ("moment_closeness", "increment_bound", "delta_iss", "bisim_step"):
        assert (out / f"{name}.csv").exists()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    # a FAIL row flips the report exit code
    (out / "fake.csv").write_text("check,t,empirical,std-error,bound,verdict\nx,0,1,0,0,FAIL\n")
    assert main(["report", "--out", str(out)]) == 1


# sha256 of each report of `validate scalar.sys --tau 0.5 --paths 400
# --steps 256` at the default seed, from the code that ran the two moment
# suites on separate ensembles
VALIDATE_PINS = {
    "moment_closeness": "32a85bf6b1eb8cac22557a5ae4ddd930b9b113420e6d04c8e703cb7381a846c6",
    "increment_bound": "3f514246f81eded16df87f8db5e7c9edee53fedec33d2fdbe919f441532558b5",
    "delta_iss": "a7b6ad52266a4deacab81efabc657ef78715f19730a97b835dd411cc205ba60d",
    "bisim_step": "b986482a0e4208d687ad4f9e42741058d7edd40290cdc6247d3d274218ab7dde",
}


def test_validate_shares_one_ensemble_between_moment_suites(tmp_path, capsys, monkeypatch):
    calls = []
    simulate = mcvalidate.simulate_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(mcvalidate, "simulate_ensemble", counted)
    out = tmp_path / "val"
    assert main(["validate", SCALAR, "--tau", "0.5", "--paths", "400", "--steps", "256",
                 "--out", str(out)]) == 0
    assert len(calls) == 3  # moments (shared), delta_iss, bisim_step
    for name, digest in VALIDATE_PINS.items():
        assert hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest() == digest, name
    # the five s = t increment rows are all zero and stay out of the worst margin
    stdout = capsys.readouterr().out
    margin = re.search(r"^increment_bound: pass \(15 rows, diverged 0, worst margin (\S+)\)$",
                       stdout, flags=re.M)
    assert margin and float(margin.group(1)) > 0


def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    _scalar_abs_body(tmp_path)
    left = str(tmp_path / "abs" / "scalar1.abs")

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(bisimcheck, "largest_bisimulation", exhausted)
    assert main(["bisim", left, left, "--eps", "0.3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory in 'bisim'") and "Traceback" not in err


def test_report_empty_dir(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert "no CSV reports" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pattern,repl",
    [(r"^(tau \S+) eta \S+", r"\1"), (r"^states 5$", "states five")],
    ids=["tau-line-without-eta", "non-integer-count"],
)
def test_bisim_malformed_abs_is_usage_error(pattern, repl, tmp_path, capsys):
    body = _scalar_abs_body(tmp_path)
    bad_body = re.sub(pattern, repl, body, count=1, flags=re.M)
    assert bad_body != body
    bad = _write_rehashed(tmp_path / "bad.abs", bad_body)
    assert main(["bisim", str(bad), str(bad), "--eps", "0.1"]) == 2
    assert "malformed abstraction file" in capsys.readouterr().err


def _scalar_abs_body(tmp_path):
    """Body of a scalar .abs file (5 states, 1 input, 1 disturbance), without its hash line."""
    out = tmp_path / "abs"
    assert main(["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", "--out", str(out)]) == 0
    text = (out / "scalar1.abs").read_text()
    return text[: text.rindex("hash ")]


def _write_rehashed(path, body):
    path.write_text(body + f"hash {hashlib.sha256(body.encode()).hexdigest()}\n")
    return path


def _drop_transition(body):
    body, dropped = re.subn(r"^4 0 0 ->.*\n", "", body, flags=re.M)
    assert dropped == 1
    count = int(re.search(r"^transitions (\d+)$", body, flags=re.M).group(1))
    return body.replace(f"transitions {count}\n", f"transitions {count - 1}\n")


def _edit_line(pattern, repl):
    def edit(body):
        bad, hits = re.subn(pattern, repl, body, count=1, flags=re.M)
        assert hits == 1
        return bad

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (_drop_transition, "incomplete transition table"),
        (_edit_line(r"^(4 0 0 ->(?: \*)?) \d+", r"\1 5000"), "successor index 5000 is outside 0..4"),
        (_edit_line(r"^4 0 0 ->", "4 9 0 ->"), "input index 9 is outside 0..0"),
        (_edit_line(r"^4 0 0 ->", "3 0 0 ->"), "duplicate transitions: 5 lines for 4 triples"),
    ],
    ids=["missing-transition", "successor-out-of-range", "input-out-of-range", "duplicate-key"],
)
def test_bisim_rejects_bad_transition_table(edit, message, tmp_path, capsys):
    bad = _write_rehashed(tmp_path / "bad.abs", edit(_scalar_abs_body(tmp_path)))
    assert main(["bisim", str(bad), str(bad), "--eps", "0.1"]) == 2
    assert message in capsys.readouterr().err


def test_bisim_check_rejects_relation_pair_out_of_range(tmp_path, capsys):
    _scalar_abs_body(tmp_path)
    left = str(tmp_path / "abs" / "scalar1.abs")
    assert main(["bisim", left, left, "--eps", "0.3", "--out", str(tmp_path)]) == 0
    rel = tmp_path / "relation.rel"
    text = rel.read_text()
    count = int(re.search(r"^pairs (\d+)$", text, flags=re.M).group(1))
    rel.write_text(text.replace(f"pairs {count}\n", f"pairs {count + 1}\n") + "99999 0\n")
    assert main(["bisim", left, left, "--check", str(rel)]) == 2
    assert "relation pair (99999, 0) is outside the 5 x 5 states" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["abstract", SCALAR, "--tau", "0.5", "--eta", "0"],
        ["abstract", SCALAR, "--tau", "0.5", "--eta", "-0.1"],
        ["params", SCALAR, "--tau", "0", "--eps", "3.2"],
        ["abstract", SCALAR, "--tau", "-0.5", "--eta", "0.25", "--eps", "1"],
        ["abstract", SCALAR, "--tau", "-0.5", "--eta", "0.25"],
    ],
    ids=["abstract-eta-zero", "abstract-eta-negative", "params-tau-zero",
         "abstract-tau-negative-eps", "abstract-tau-negative"],
)
def test_nonpositive_tau_or_eta_is_usage_error(argv, tmp_path, capsys):
    if argv[0] == "abstract":
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv) == 2
    assert "must be positive" in capsys.readouterr().err
