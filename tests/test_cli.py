import argparse
import csv
import hashlib
import pathlib
import re

import pytest

from stochabs import bisimcheck, certify, gridabs, mcvalidate, netcomp, sysdsl
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
    assert sub.choices["params"].format_help() == (DATA / "help_params.txt").read_text()


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


def test_params_system_ledger_is_the_synthesis(tmp_path, capsys, scalar_model, scalar_cert):
    argv = ["params", SCALAR, "--tau", "0.5", "--eps", "3.2", "--omega", "0.05", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = list(csv.reader((tmp_path / "params.csv").open()))[1:]
    values = {(q, p): v for q, p, v in rows}
    node = netcomp.synthesize_node(scalar_model, scalar_cert, 0.5, 3.2, omega_cap=0.05, seed=1729)
    assert values[("certificate", "scalar1")] == node.mode == "linear-exact"
    assert float(values[("eta", "scalar1[0]")]) == pytest.approx(node.eta[0], rel=1e-9)
    assert float(values[("omega", "scalar1[0]")]) == pytest.approx(node.omega[0], rel=1e-9)
    # a network node's ledger has the same rows, keyed by the node's name
    capsys.readouterr()
    assert main(["params", PAIR]) == 0
    net_rows = [line.split(",", 2) for line in capsys.readouterr().out.splitlines()][1:]
    assert [q for q, _, _ in net_rows[: len(rows)]] == [q for q, _, _ in rows]
    assert {p for _, p, _ in net_rows[: len(rows)]} == {p.replace("scalar1", "a") for _, p, _ in rows}
    with pytest.raises(SystemExit) as excinfo:
        main(["params", SCALAR, "--tau", "0.5", "--samples", "100"])
    assert excinfo.value.code == 2


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


def test_pitch_validation_against_certificate(tmp_path, capsys):
    argv = ["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", "--omega", "0.1",
            "--eps", "3.2", "--eps-tilde-norm", "0.1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "admissible" in capsys.readouterr().err and not list(tmp_path.glob("*.abs"))
    assert main([*argv, "--force"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: pitch 0.25 exceeds the admissible bound ")
    assert err[0].endswith("; building anyway") and (tmp_path / "scalar1.abs").exists()


def test_abstract_checks_the_pitch_against_a_verified_certificate(tmp_path, capsys):
    # kappa 50 makes every pitch admissible, but the certificate is refuted
    argv = ["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", "--omega", "0.1",
            "--eps", "3.2", "--kappa", "50", "--P", "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "infeasible: certificate refuted (linear-exact, margin 98.2)\n"
    assert not list(tmp_path.glob("*.abs"))
    assert main([*argv, "--force"]) == 0
    assert capsys.readouterr().err == (
        "warning: certificate refuted (linear-exact, margin 98.2); building anyway\n"
    )


def test_abstract_reads_a_certificate_only_for_eps(tmp_path, capsys):
    nocert = tmp_path / "nocert.sys"
    nocert.write_text("".join(line for line in (DATA / "scalar.sys").read_text().splitlines(True)
                              if not line.startswith("cert ")))
    argv = ["abstract", str(nocert), "--tau", "0.5", "--eta", "0.25", "--omega", "0.1",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert main([*argv, "--eps", "3.2"]) == 2
    assert "no certificate available" in capsys.readouterr().err


@pytest.mark.parametrize("force", [[], ["--force"]])
@pytest.mark.parametrize("override", [["--kappa", "1", "--P", "1 x"], ["--kappa", "-1", "--P", "1"]])
def test_abstract_reports_a_malformed_certificate(override, force, tmp_path, capsys):
    assert main(["params", SCALAR, "--tau", "0.5", *override]) == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and "certificate" not in message
    argv = ["abstract", SCALAR, "--tau", "0.5", "--eta", "0.13", "--omega", "0.1", "--eps", "3.2",
            *override, *force, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == message
    assert not list(tmp_path.glob("*.abs"))


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


def test_validate_below_the_floor_is_infeasible(tmp_path, capsys):
    assert main(["validate", SCALAR, "--tau", "0.5", "--eps", "0.01", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("infeasible: precision target 0.01 is not above the achievable floor 2.902")


def test_validate_refuted_certificate_is_infeasible(tmp_path, capsys):
    argv = ["validate", SCALAR, "--tau", "0.5", "--kappa", "0.9", "--P", "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("infeasible: certificate refuted (linear-exact, margin")


def test_validate_bound_overflow_fails_before_any_flow(tmp_path, capsys, monkeypatch):
    # exp(alpha tau) in the increment constant overflows at tau = 1e5; at
    # that tau every cell's flow keeps doubling its substeps for seconds
    calls = []

    def spy(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return called

    monkeypatch.setattr(gridabs, "build_abstraction", spy("build_abstraction"))
    monkeypatch.setattr(gridabs, "flow_nominal", spy("flow_nominal"))
    monkeypatch.setattr(mcvalidate, "flow_nominal", spy("flow_nominal"))
    argv = ["validate", SCALAR, "--tau", "1e5", "--paths", "10", "--pairs", "2", "--steps", "8",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: numeric overflow in 'validate'") and err.count("\n") == 1


def test_validate_builds_with_the_synthesized_pitches(tmp_path, monkeypatch):
    built = []
    build = gridabs.build_abstraction

    def spy(model, tau, eta, omega, **kwargs):
        built.append((eta, omega, kwargs["eps"]))
        return build(model, tau, eta, omega, **kwargs)

    monkeypatch.setattr(gridabs, "build_abstraction", spy)
    assert main(["validate", SCALAR, "--tau", "0.5", "--paths", "40", "--pairs", "4",
                 "--steps", "16", "--out", str(tmp_path)]) == 0
    model = sysdsl.load(SCALAR)
    cert = certify.QuadraticCertificate.from_model(model)
    node = netcomp.synthesize_node(model, cert, 0.5, seed=1729)
    # the pitches and default eps validate chose before it called synthesize_node
    assert node.feasible and node.eta == (1 / 3,) and node.omega == (0.1,)
    assert node.eps == 3.6275099988467567
    assert built == [(node.eta, node.omega, node.eps)]


def test_each_abstraction_is_serialized_at_most_once(tmp_path, monkeypatch):
    serialized = []
    serialize = gridabs.FiniteAbstraction.serialize

    def counted(self):
        serialized.append(self.system)
        return serialize(self)

    monkeypatch.setattr(gridabs.FiniteAbstraction, "serialize", counted)
    out = tmp_path / "net"
    assert main(["abstract", PAIR, "--out", str(out)]) == 0
    assert main(["abstract", SCALAR, "--tau", "0.5", "--eta", "0.13", "--omega", "0.1",
                 "--out", str(out)]) == 0
    assert serialized == ["a", "b", "scalar1"]
    serialized.clear()
    left = str(out / "a.abs")
    assert main(["bisim", left, left, "--eps", "0", "--eps-tilde", "0", "--out", str(out)]) == 0
    assert main(["bisim", left, left, "--check", str(out / "relation.rel")]) == 0
    assert serialized == []


DEEP_DRIFTS = {
    "parentheses": "(" * 2000 + "-x1" + ")" * 2000,
    "unary-minus": "-" * 3000 + "x1",
    "flat-sum": " + ".join(["-x1"] * 3000),
}


@pytest.mark.parametrize("drift", list(DEEP_DRIFTS.values()), ids=list(DEEP_DRIFTS))
def test_deep_expression_is_usage_error(drift, tmp_path, capsys):
    path = tmp_path / "deep.sys"
    path.write_text((DATA / "scalar.sys").read_text().replace("-x1 + u1 + w1", drift))
    assert main(["lint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 7, col ") and "nested deeper than 100 levels" in err


# sha256 of each report of `validate scalar.sys --tau 0.5 --paths 400
# --steps 256` at the default seed, from the code that ran the two moment
# suites on separate ensembles
VALIDATE_PINS = {
    "moment_closeness": "32a85bf6b1eb8cac22557a5ae4ddd930b9b113420e6d04c8e703cb7381a846c6",
    "increment_bound": "3f514246f81eded16df87f8db5e7c9edee53fedec33d2fdbe919f441532558b5",
    "delta_iss": "a7b6ad52266a4deacab81efabc657ef78715f19730a97b835dd411cc205ba60d",
    "bisim_step": "b986482a0e4208d687ad4f9e42741058d7edd40290cdc6247d3d274218ab7dde",
}


def _count_ensemble_passes(monkeypatch):
    """Record the simulate_ensemble calls and the group count of every simulate_groups call."""
    ensembles, groups = [], []
    simulate, grouped = mcvalidate.simulate_ensemble, mcvalidate.simulate_groups

    def counted(*args, **kwargs):
        ensembles.append(args)
        return simulate(*args, **kwargs)

    def counted_groups(sys, g, *args, **kwargs):
        groups.append(len(g))
        return grouped(sys, g, *args, **kwargs)

    monkeypatch.setattr(mcvalidate, "simulate_ensemble", counted)
    monkeypatch.setattr(mcvalidate, "simulate_groups", counted_groups)
    return ensembles, groups


def _assert_pins(out, pins):
    for name, digest in pins.items():
        assert hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest() == digest, name


def test_validate_shares_one_ensemble_between_moment_suites(tmp_path, capsys, monkeypatch):
    ensembles, groups = _count_ensemble_passes(monkeypatch)
    out = tmp_path / "val"
    assert main(["validate", SCALAR, "--tau", "0.5", "--paths", "400", "--steps", "256",
                 "--out", str(out)]) == 0
    # the moment suites share one simulate_ensemble call (one group), and
    # delta_iss and bisim_step are the two groups of one grouped pass
    assert len(ensembles) == 1
    assert groups == [1, 2]
    _assert_pins(out, VALIDATE_PINS)
    # the five s = t increment rows are all zero and stay out of the worst margin
    stdout = capsys.readouterr().out
    margin = re.search(r"^increment_bound: pass \(15 rows, diverged 0, worst margin (\S+)\)$",
                       stdout, flags=re.M)
    assert margin and float(margin.group(1)) > 0


# sha256 of the reports of `validate scalar.sys --tau 0.5` with these
# flags at the default seed, from the code that ran delta_iss and
# bisim_step on separate ensembles
VALIDATE_CASE_PINS = {
    # 50 delta_iss paths against 100 pairs x 2 paths
    "paths-50-pairs-100": (["--paths", "50", "--pairs", "100"], [1, 2], {
        "moment_closeness": "a7e74ef7b73053bc6c16541585d2bcd97eec7125066c2fcdfa26b297210b8160",
        "increment_bound": "23777d9ce580993d43655fd481469c2dea31441b2bbb91c4582096b0fbdb16c8",
        "delta_iss": "e18b052917e83c5284c47ca30a5b98776dd2d382fd3491d54a4dcfb6397a0b33",
        "bisim_step": "72f1490569839fc6f5f0536fad44231b09a6f3cced05c7ab177adfa27f2d0ab4",
    }),
    # delta_iss rounds 250 steps up to 252, so each suite makes its own pass
    "steps-250": (["--steps", "250"], [1, 1, 1], {
        "moment_closeness": "0ee117126ff638c511d0ef622b7694f81dd33100729fe08b6d1a2a31d3d4d944",
        "increment_bound": "a174597728529a8349b442dcb60118859446d6aa7eb0a3da35d2de4a0f012d28",
        "delta_iss": "7acd4280b3884751ef57bf1731983f5e35cbf475ce63873ac770e3fbb11b023c",
        "bisim_step": "1754215c5743f57b8087702eb12d19a62fdc5ab699a4b2e0a38c62c97af9dcf1",
    }),
}


@pytest.mark.parametrize("case", list(VALIDATE_CASE_PINS))
def test_validate_reports_are_pinned(case, tmp_path, monkeypatch):
    flags, passes, pins = VALIDATE_CASE_PINS[case]
    _, groups = _count_ensemble_passes(monkeypatch)
    out = tmp_path / "val"
    assert main(["validate", SCALAR, "--tau", "0.5", *flags, "--out", str(out)]) == 0
    assert groups == passes
    _assert_pins(out, pins)


@pytest.mark.parametrize(
    "flags",
    [["--pairs", "0"], ["--pairs", "-1"], ["--steps", "0"], ["--steps", "-4"], ["--paths", "0"]],
    ids=["pairs-zero", "pairs-negative", "steps-zero", "steps-negative", "paths-zero"],
)
def test_validate_nonpositive_count_is_usage_error(flags, tmp_path, capsys):
    assert main(["validate", SCALAR, "--tau", "0.5", *flags, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} must be positive") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["lint", SCALAR, "--samples", "0"],
        ["certify", SCALAR, "--mode", "sampled", "--samples", "-3"],
    ],
    ids=["lint-zero", "certify-sampled-negative"],
)
def test_nonpositive_samples_is_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --samples must be positive") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["lint", SCALAR], ["certify", SCALAR, "--out"], ["validate", SCALAR, "--tau", "0.5", "--out"]],
    ids=["lint", "certify", "validate"],
)
def test_negative_seed_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    if argv[-1] == "--out":
        argv = [*argv, str(out)]
    assert main([*argv, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be non-negative, got -1") and "Traceback" not in err
    assert not out.exists()


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
    [
        (r"^(tau \S+) eta \S+", r"\1"),
        (r"^states 5$", "states five"),
        (r"^(3 0\.5)$", r"\1 0.5"),
        (r"^(inputs 1\n0) 0$", r"\1"),
        (r"^(dists 1\n0 0)$", r"\1 0"),
        (r"^tau 0\.5 ", "tau nan "),
        (r" eta 0\.25 ", " eta inf "),
        (r" omega \S+ ", " omega -inf "),
        (r" eps 0$", " eps inf"),
        (r"^epstilde$", "epstilde nan"),
        (r"^3 0\.5$", "3 nan"),
        (r"^(inputs 1\n0) 0$", r"\1 inf"),
        (r"^(dists 1\n0) 0$", r"\1 -inf"),
    ],
    ids=["tau-line-without-eta", "non-integer-count", "state-extra-coordinate",
         "input-missing-coordinate", "dist-extra-coordinate", "tau-nan", "eta-inf", "omega-inf",
         "eps-inf", "epstilde-nan", "state-nan", "input-inf", "dist-inf"],
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
        (_edit_line(r"^dblocks 1:-$", "dblocks -1:- 2:-"), "disturbance block size -1 is negative"),
    ],
    ids=["missing-transition", "successor-out-of-range", "input-out-of-range", "duplicate-key",
         "negative-dist-block"],
)
def test_bisim_rejects_bad_transition_table(edit, message, tmp_path, capsys):
    bad = _write_rehashed(tmp_path / "bad.abs", edit(_scalar_abs_body(tmp_path)))
    assert main(["bisim", str(bad), str(bad), "--eps", "0.1"]) == 2
    assert message in capsys.readouterr().err


def test_bisim_reads_one_file_once_for_both_sides(tmp_path, monkeypatch):
    _scalar_abs_body(tmp_path)
    left = tmp_path / "abs" / "scalar1.abs"
    reads = []

    def read(path):
        reads.append(path)
        return gridabs.deserialize(pathlib.Path(path).read_text())

    monkeypatch.setattr(gridabs, "read_abstraction", read)
    assert main(["bisim", str(left), str(left), "--eps", "0.3"]) == 0
    same = tmp_path / "abs" / ".." / "abs" / "scalar1.abs"
    assert main(["bisim", str(left), str(same), "--eps", "0.3"]) == 0
    assert len(reads) == 2


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


# sha256 of relation.rel and of the stdout of `bisim --out` (the output
# directory written as OUT) and `bisim --check`, on abstractions of
# scalar.sys at tau 0.5, omega 0.1 and these pitches, from the code that
# held a relation as a frozenset of pairs
BISIM_PINS = {
    # one abstraction on both sides: the array path
    "self": ((0.25, 0.25), ["--eps", "0.5"], {
        "relation.rel": "1835ef8c5ae78f9fdc9717e7f96c4c45d977099746fb7408cd32c28b79ebd29e",
        "bisim": "7e6ca23e4fff379e82f2ffe7f090970e11697a9131e8e7ff73284e5de87a3d31",
        "check": "b3ef2b5e3d46dc9efe415f4905e50189db99eb2f7d22843ab652f8da7e50fa37",
    }),
    # eta 0.25 against eta 0.125: the loops
    "distinct": ((0.25, 0.125), ["--eps", "0.6", "--eps-tilde", "0"], {
        "relation.rel": "8cf160d8043377986f1590bfcfccfb904c7ce62e21a10bca9f6df736706ac235",
        "bisim": "0082a3c62fe6f493dbb38a45dd25c9ef42d149b8bfc1916cef11c662ab511482",
        "check": "e86ebf7f55b69851f86bd13fd990adccfbddc8f3f5e8f03aead68eda2ce610fb",
    }),
}


@pytest.mark.parametrize("case", list(BISIM_PINS))
def test_bisim_outputs_are_pinned(case, tmp_path, capsys):
    etas, flags, pins = BISIM_PINS[case]
    files = []
    for eta in etas:
        out = tmp_path / f"eta{eta}"
        assert main(["abstract", SCALAR, "--tau", "0.5", "--eta", str(eta), "--omega", "0.1",
                     "--out", str(out)]) == 0
        files.append(str(out / "scalar1.abs"))
    capsys.readouterr()
    rel = tmp_path / "bisim" / "relation.rel"
    assert main(["bisim", *files, *flags, "--out", str(rel.parent)]) == 0
    computed = capsys.readouterr().out.replace(str(tmp_path), "OUT")
    assert main(["bisim", *files, "--check", str(rel)]) == 0
    outputs = {"relation.rel": rel.read_bytes(), "bisim": computed.encode(),
               "check": capsys.readouterr().out.encode()}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == pins


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
def test_network_abstract_with_infeasible_node_exits_1(force, tmp_path, capsys):
    (tmp_path / "node.sys").write_text((DATA / "node.sys").read_text())
    net = tmp_path / "pair.net"
    net.write_text((DATA / "pair.net").read_text().replace("node a file=node.sys eps=8",
                                                           "node a file=node.sys eps=0.5"))
    assert main(["abstract", str(net), *force, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "infeasible: a: " in err and "infeasible: b" not in err
    assert not list((tmp_path / "out").glob("*.abs"))


@pytest.mark.parametrize(
    "flags",
    [["--eps", "nan"], ["--eps", "-0.1"], ["--eps", "0.3", "--eps-tilde", "nan"],
     ["--eps", "0.3", "--eps-tilde", "-0.1"]],
    ids=["eps-nan", "eps-negative", "eps-tilde-nan", "eps-tilde-negative"],
)
def test_bisim_rejects_bad_precision(flags, tmp_path, capsys):
    _scalar_abs_body(tmp_path)
    left = str(tmp_path / "abs" / "scalar1.abs")
    assert main(["bisim", left, left, *flags]) == 2
    assert "precisions must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "precision",
    [["eps nan", "epstilde 0"], ["eps -0.1", "epstilde 0"], ["eps inf", "epstilde 0"],
     ["eps 0.3", "epstilde nan"], ["eps 0.3", "epstilde -0.5"]],
    ids=["eps-nan", "eps-negative", "eps-inf", "epstilde-nan", "epstilde-negative"],
)
def test_bisim_check_rejects_bad_relation_precision(precision, tmp_path, capsys):
    # all 25 pairs of the 5 states, some 2 apart: clause (a) refutes them for any valid eps
    _scalar_abs_body(tmp_path)
    left = str(tmp_path / "abs" / "scalar1.abs")
    digest = gridabs.read_abstraction(left).content_hash()
    pairs = [f"{i} {j}" for i in range(5) for j in range(5)]
    rel = tmp_path / "all.rel"
    rel.write_text("\n".join([bisimcheck.REL_HEADER, f"left {digest}", f"right {digest}",
                              *precision, "pairs 25", *pairs]) + "\n")
    assert main(["bisim", left, left, "--check", str(rel)]) == 2
    assert "precisions must be finite and nonnegative" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["params", SCALAR, "--tau", "0.5", "--eps", "nan"],
        ["params", SCALAR, "--tau", "0.5", "--omega", "nan"],
        ["params", SCALAR, "--tau", "0.5", "--eps-tilde-norm", "nan"],
        ["params", SCALAR, "--tau", "inf"],
        ["validate", SCALAR, "--tau", "0.5", "--eps", "nan"],
        ["validate", SCALAR, "--tau", "0.5", "--eps", "inf"],
        ["validate", SCALAR, "--tau", "0.5", "--eps-tilde-norm", "nan"],
        ["validate", SCALAR, "--tau", "nan"],
        ["certify", SCALAR, "--tau", "nan"],
        ["certify", SCALAR, "--kappa", "nan", "--P", "1"],
        ["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", "--omega", "nan"],
        ["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", "--eps", "nan"],
        ["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", "--eps-tilde-norm", "nan"],
        ["abstract", SCALAR, "--tau", "inf", "--eta", "0.25"],
        ["abstract", SCALAR, "--tau", "0.5", "--eta", "inf"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a != SCALAR),
)
def test_non_finite_real_flag_is_usage_error(argv, tmp_path, capsys):
    if argv[0] in ("abstract", "validate"):
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    flag, value = next((a, b) for a, b in zip(argv, argv[1:]) if b in ("nan", "inf"))
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags", [["--omega", "0"], ["--omega", "-1"], ["--eps-tilde-norm", "-1"]],
    ids=["omega-zero", "omega-negative", "eps-tilde-norm-negative"],
)
def test_params_out_of_range_cap_is_usage_error(flags, capsys):
    assert main(["params", SCALAR, "--tau", "0.5", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "flags", [["--eps-tilde-norm", "-1"], ["--eps", "-2"]], ids=["eps-tilde-norm-negative", "eps-negative"]
)
def test_abstract_negative_precision_is_usage_error(flags, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: precisions must be finite and nonnegative, got eps ")
    assert not list(out.glob("*.abs"))


def _with_byte_ff(src, dst):
    """Copy src to dst with a comment line holding byte 0xff (not UTF-8) after its first line."""
    data = pathlib.Path(src).read_bytes()
    cut = data.index(b"\n") + 1
    dst.write_bytes(data[:cut] + b"# \xff\n" + data[cut:])
    return str(dst)


def _non_utf8_sys(tmp_path):
    return ["lint", _with_byte_ff(SCALAR, tmp_path / "bad.sys")]


def _non_utf8_net(tmp_path):
    (tmp_path / "node.sys").write_bytes((DATA / "node.sys").read_bytes())
    return ["params", _with_byte_ff(PAIR, tmp_path / "bad.net")]


def _non_utf8_node(tmp_path):
    _with_byte_ff(DATA / "node.sys", tmp_path / "node.sys")
    (tmp_path / "pair.net").write_bytes((DATA / "pair.net").read_bytes())
    return ["params", str(tmp_path / "pair.net")]


def _non_utf8_abs(tmp_path):
    _scalar_abs_body(tmp_path)
    bad = _with_byte_ff(tmp_path / "abs" / "scalar1.abs", tmp_path / "bad.abs")
    return ["bisim", bad, bad, "--eps", "0.1"]


def _non_utf8_rel(tmp_path):
    _scalar_abs_body(tmp_path)
    left = str(tmp_path / "abs" / "scalar1.abs")
    assert main(["bisim", left, left, "--eps", "0.3", "--out", str(tmp_path)]) == 0
    bad = _with_byte_ff(tmp_path / "relation.rel", tmp_path / "bad.rel")
    return ["bisim", left, left, "--check", bad]


def _non_utf8_report(tmp_path):
    (tmp_path / "suite.csv").write_bytes(b"check,verdict\nx \xff,PASS\n")
    return ["report", "--out", str(tmp_path)]


@pytest.mark.parametrize(
    "make_argv",
    [_non_utf8_sys, _non_utf8_net, _non_utf8_node, _non_utf8_abs, _non_utf8_rel, _non_utf8_report],
    ids=["sys", "net", "net-node-file", "abs", "rel", "report-csv"],
)
def test_non_utf8_input_is_usage_error(make_argv, tmp_path, capsys):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "can't decode byte 0xff" in err and "Traceback" not in err


def test_non_numeric_eps_tilde_is_usage_error(tmp_path, capsys):
    _scalar_abs_body(tmp_path)
    left = str(tmp_path / "abs" / "scalar1.abs")
    assert main(["bisim", left, left, "--eps", "0.3", "--eps-tilde", "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eps-tilde expects space-separated reals") and "Traceback" not in err


def test_non_numeric_certificate_matrix_is_usage_error(capsys):
    assert main(["certify", SCALAR, "--kappa", "0.5", "--P", "1 x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --P expects space-separated reals") and "Traceback" not in err


@pytest.mark.parametrize("lone, missing", [(["--kappa", "50"], "--P"), (["--P", "1"], "--kappa")],
                         ids=["kappa", "P"])
@pytest.mark.parametrize(
    "command",
    [
        ["certify", SCALAR, "--tau", "0.5"],
        ["params", SCALAR, "--tau", "0.5"],
        ["abstract", SCALAR, "--tau", "0.5", "--eta", "0.13", "--omega", "0.1", "--eps", "3.2"],
        ["validate", SCALAR, "--tau", "0.5", "--paths", "10", "--pairs", "2", "--steps", "8"],
    ],
    ids=lambda argv: argv[0],
)
def test_lone_certificate_flag_is_usage_error(command, lone, missing, tmp_path, capsys):
    # the override takes both flags; one alone was dropped for the file's cert line
    assert main([*command, *lone, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {lone[0]} needs {missing}: the certificate override takes both\n" and not out
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


@pytest.mark.parametrize(
    "command, flag",
    [
        (["params", PAIR, "--kappa", "50"], "--kappa"),
        (["abstract", PAIR, "--P", "1"], "--P"),
        (["abstract", SCALAR, "--tau", "0.5", "--eta", "0.25", "--kappa", "50"], "--kappa"),
    ],
    ids=["params-network", "abstract-network", "abstract-without-eps"],
)
def test_certificate_flag_where_no_certificate_is_checked_is_usage_error(command, flag, tmp_path, capsys):
    # a network's nodes, and a build with no --eps, check no override: it was dropped
    assert main([*command, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {flag} applies to a single system") and err.count("\n") == 1 and not out
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


def _overflow_tau_net(tmp_path):
    (tmp_path / "node.sys").write_bytes((DATA / "node.sys").read_bytes())
    net = tmp_path / "pair_tau1000.net"
    net.write_text((DATA / "pair.net").read_text().replace("tau=0.5", "tau=1000"))
    return ["params", str(net)]


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda tmp_path: ["params", SCALAR, "--tau", "0.5", "--eps", "1e200"],
        _overflow_tau_net,
        lambda tmp_path: ["validate", SCALAR, "--tau", "100", "--paths", "10", "--pairs", "2",
                          "--steps", "8", "--out", str(tmp_path / "rep")],
    ],
    ids=["params-eps-squared", "params-neighbor-drift", "validate-increment-constant"],
)
def test_overflow_is_usage_error(make_argv, tmp_path, capsys):
    argv = make_argv(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: numeric overflow in '{argv[0]}'") and err.count("\n") == 1


def _crlf(path):
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


@pytest.mark.parametrize(
    "crlf, message",
    [(("scalar1.abs", "relation.rel"), "lines do not each end in a single newline"),
     (("relation.rel",), "line breaks differ from the canonical form")],
    ids=["abs-and-rel", "rel"],
)
def test_crlf_artifacts_are_usage_errors(crlf, message, tmp_path, capsys):
    _scalar_abs_body(tmp_path)
    left = tmp_path / "abs" / "scalar1.abs"
    assert main(["bisim", str(left), str(left), "--eps", "0.3", "--out", str(left.parent)]) == 0
    for name in crlf:
        _crlf(left.parent / name)
    capsys.readouterr()
    assert main(["bisim", str(left), str(left), "--check", str(left.parent / "relation.rel")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_crlf_system_and_network_files_load(tmp_path, capsys):
    for name in ("scalar.sys", "node.sys", "pair.net"):
        (tmp_path / name).write_bytes((DATA / name).read_bytes().replace(b"\n", b"\r\n"))
    assert main(["lint", str(tmp_path / "scalar.sys")]) == 0
    capsys.readouterr()
    assert main(["params", str(tmp_path / "pair.net")]) == main(["params", PAIR]) == 0
    crlf_out, plain_out = capsys.readouterr().out.split("quantity,parameter,value\n")[1:]
    assert crlf_out == plain_out


def test_report_counts_the_rows_csv_writer_ends_in_crlf(tmp_path, capsys):
    with open(tmp_path / "suite.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["check", "verdict"], ["a", "pass"], ["b", "FAIL"]])
    assert b"\r\n" in (tmp_path / "suite.csv").read_bytes()
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "file,rows,failures\nsuite.csv,2,1\n"
