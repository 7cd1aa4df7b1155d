"""Command-line front end.

Subcommands cover the whole pipeline: lint, certify, params, abstract,
compose, bisim, validate, report.  Exit codes: 0 all checks passed,
1 analysis negative (infeasible parameters, refuted certificate, invalid
or empty relation, violated bound), 2 usage or input errors.

All randomness flows from one --seed flag (default 1729) so every run is
reproducible; reports are CSV so they diff cleanly.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import bisimcheck, certify, gridabs, mcvalidate, netcomp, sysdsl
from .errors import FormatError, ParameterError, StochabsError

DEFAULT_SEED = 1729


def _fmt(v):
    if v is None:  # as csv.writer writes it
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _emit_rows(rows, out_dir, name):
    """Print the rows, and write them to out_dir/name when out_dir is set."""
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        with open(Path(out_dir) / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)


def _infeasible(nodes, named=True):
    """Print each infeasible node's reason (after its name when named); returns exit code 1."""
    for node in nodes:
        if node.reason:
            print(f"infeasible: {node.name + ': ' if named else ''}{node.reason}", file=_sys.stderr)
    return 1


def _write_abstraction(abstraction, path):
    abstraction.write(path)
    print(f"{path}: {len(abstraction.states)} states, {len(abstraction.transitions)} transitions, "
          f"hash {abstraction.content_hash()[:12]}")


def _load(path, kind):
    """Load a file that must hold a kind: sysdsl.SysModel or sysdsl.NetworkSpec."""
    obj = sysdsl.load(path)
    if not isinstance(obj, kind):
        want, found = ("system", "network") if kind is sysdsl.SysModel else ("network", "system")
        raise StochabsError(f"{path}: expected a {want} file, found a {found}")
    return obj


def _require_positive(args, *flags):
    for flag in flags:
        if getattr(args, flag) < 1:
            raise ParameterError(f"--{flag} must be positive, got {getattr(args, flag)}")


def _require_finite(args, *flags):
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"--{flag.replace('_', '-')} must be finite, got {value}")


def _reals(text, flag):
    """Parse the space-separated reals given to a string-valued flag."""
    try:
        return [float(v) for v in text.split()]
    except ValueError:
        raise ParameterError(f"{flag} expects space-separated reals, got {text!r}") from None


def _certificate(sys_model, args):
    """The --kappa/--P override, which takes both flags, or else the file's cert line."""
    kappa, p_matrix = getattr(args, "kappa", None), getattr(args, "p_matrix", None)
    if (kappa is None) != (p_matrix is None):
        given, missing = ("--kappa", "--P") if p_matrix is None else ("--P", "--kappa")
        raise ParameterError(f"{given} needs {missing}: the certificate override takes both")
    if kappa is not None:
        p = [_reals(row, "--P") for row in p_matrix.split(";")]
        return certify.QuadraticCertificate.create(
            p, kappa, lu=sys_model.input_lipschitz, lw=sys_model.dist_lipschitz
        )
    return certify.QuadraticCertificate.from_model(sys_model)


_NOT_NONE = {"--eps-tilde-norm": 0.0}  # parser defaults other than None


def _single_system_only(args, where, *flags):
    """Refuse each of the flags that differs from its parser default: it
    applies to a single system, and here it would be dropped."""
    for flag in flags:
        dest = "p_matrix" if flag == "--P" else flag[2:].replace("-", "_")
        if getattr(args, dest) != _NOT_NONE.get(flag):
            raise ParameterError(f"{flag} applies to a single system{where}")


def cmd_lint(args):
    _require_positive(args, "samples")
    obj = sysdsl.load(args.file)
    models = obj.nodes if isinstance(obj, sysdsl.NetworkSpec) else [obj]
    names = obj.node_names if isinstance(obj, sysdsl.NetworkSpec) else [obj.name]
    bad = False
    for name, model in zip(names, models):
        rep = sysdsl.check_regularity(model, samples=args.samples, seed=args.seed)
        status = "ok" if rep.passed else "refuted"
        print(f"{name}: constants {status} (worst ratios: f {rep.worst_f_ratio:.4g}, "
              f"sigma {rep.worst_sigma_ratio:.4g}, growth {rep.worst_growth_ratio:.4g})")
        if not rep.passed:
            print(f"  witness: {rep.witness}")
            bad = True
    return 1 if bad else 0


def cmd_certify(args):
    _require_positive(args, "samples")
    _require_finite(args, "tau", "kappa")
    model = _load(args.file, sysdsl.SysModel)
    cert = _certificate(model, args)
    report = certify.verify_certificate(
        model, cert, mode=args.mode, samples=args.samples, seed=args.seed
    )
    rows = [
        ("quantity", "parameter", "value"),
        ("accepted", args.mode, int(report.accepted)),
        ("margin", args.mode, report.margin),
        ("kappa", "", cert.kappa),
        ("lambda_min", "", cert.lambda_min),
        ("lambda_max", "", cert.lambda_max),
        ("sqrt_p_norm", "", cert.sqrt_p_norm),
    ]
    if report.accepted:
        kit = certify.derive_bounds(model, cert)
        for label, fn in (
            ("alpha_low", kit.alpha_low),
            ("alpha_high", kit.alpha_high),
            ("sigma_u", kit.sigma_u),
            ("sigma_d", kit.sigma_d),
            ("v_modulus", kit.v_modulus),
            ("rho_u", kit.rho_u),
            ("rho_d", kit.rho_d),
        ):
            rows.append((label, "r=1", fn(1.0)))
        if args.tau is not None:
            for frac in (0.25, 0.5, 1.0):
                t = args.tau * frac
                rows.append(("noise_gap", t, certify.noise_gap_bound(kit, model, t)))
    _emit_rows(rows, args.out, "certify.csv")
    return 0 if report.accepted else 1


def _node_rows(node):
    """The params ledger rows of one synthesized node, keyed by its name."""
    rows = [("feasible", node.name, int(node.feasible)), ("certificate", node.name, node.mode),
            ("eps", node.name, node.eps), ("eps_floor", node.name, node.eps_floor),
            ("psi_tau", node.name, node.psi_tau), ("eps_tilde_norm", node.name, node.eps_tilde_norm)]
    rows += [("eta", f"{node.name}[{i}]", v) for i, v in enumerate(node.eta)]
    rows += [("omega", f"{node.name}[{i}]", v) for i, v in enumerate(node.omega)]
    rows += [(key, node.name, val) for key, val in node.terms.items()]
    if node.reason:
        rows.append(("reason", node.name, node.reason))
    return rows


def cmd_params(args):
    _require_finite(args, "tau", "eps", "omega", "eps_tilde_norm", "kappa")
    obj = sysdsl.load(args.file)
    network = isinstance(obj, sysdsl.NetworkSpec)
    if network:
        _single_system_only(args, "; a network's nodes take theirs from their files",
                            "--tau", "--eps", "--omega", "--eps-tilde-norm", "--kappa", "--P")
        nodes = netcomp.synthesize_params(obj, seed=args.seed).nodes
    elif args.tau is None:
        raise StochabsError("single-system params needs --tau")
    else:
        nodes = [netcomp.synthesize_node(
            obj, _certificate(obj, args), args.tau, args.eps, args.eps_tilde_norm,
            omega_cap=args.omega, seed=args.seed,
        )]
    rows = [("quantity", "parameter", "value")]
    for node in nodes:
        rows += _node_rows(node)
    _emit_rows(rows, args.out, "params.csv")
    return 0 if all(node.feasible for node in nodes) else _infeasible(nodes, named=network)


def _unchecked(msg, force):
    """A failed pitch check: a usage error, or with --force a warning on stderr."""
    if not force:
        raise StochabsError(f"{msg}; pass --force to build anyway")
    print(f"warning: {msg}; building anyway", file=_sys.stderr)


def cmd_abstract(args):
    _require_finite(args, "tau", "eta", "omega", "eps", "eps_tilde_norm", "kappa")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    obj = sysdsl.load(args.file)
    if isinstance(obj, sysdsl.NetworkSpec):
        _single_system_only(args, "; a network's nodes take theirs from their files",
                            "--tau", "--eta", "--eps", "--omega", "--eps-tilde-norm", "--kappa", "--P")
        result = netcomp.synthesize_params(obj, seed=args.seed)
        if not result.feasible:
            return _infeasible(result.nodes)
        etas = result.etas()
        omegas = {i: node.omega for i, node in enumerate(result.nodes)}
        for i, name in enumerate(obj.node_names):
            abs_i = netcomp.build_node_abstraction(
                obj, i, etas, omegas, max_cells=args.max_cells, workers=args.workers
            )
            _write_abstraction(abs_i, out_dir / f"{name}.abs")
        return 0

    model = obj
    if args.tau is None or args.eta is None:
        raise StochabsError("single-system abstract needs --tau and --eta")
    omega = args.omega
    if omega is None:
        widths = [hi - lo for lo, hi in model.input_box]
        omega = gridabs.snap_input_pitch(model.input_box, min(widths)) if widths else 0.0
    eps, kit = args.eps or 0.0, None
    if eps > 0.0:  # the pitch is checked against the bound of a verified certificate
        if args.kappa is None and args.p_matrix is None and model.cert_p is None:
            _unchecked("no certificate available to validate the pitch", args.force)
        else:  # a malformed override or cert line fails with its own message
            _, kit, reason = netcomp.verified_kit(model, _certificate(model, args), args.seed)
            if reason and not args.force:
                print(f"infeasible: {reason}", file=_sys.stderr)
                return 1
            if reason:
                _unchecked(reason, args.force)
    else:
        _single_system_only(args, " with --eps, which the pitch is checked against", "--kappa", "--P")
    abstraction = gridabs.build_abstraction(
        model, args.tau, gridabs.snap_state_pitch(model.domain, args.eta), omega, eps=eps,
        eps_tilde=(args.eps_tilde_norm,) * model.p if args.eps_tilde_norm else (),
        max_cells=args.max_cells, workers=args.workers,
    )
    if kit is not None:  # on the snapped pitches; one too coarse for eps makes a small build
        bound = certify.pitch_upper_bound(
            kit, model, abstraction.tau, eps, max(abstraction.omega, default=0.0),
            eps_tilde_norm=max(abstraction.eps_tilde, default=0.0),
        )
        if max(abstraction.eta) > bound + 1e-12:
            _unchecked(f"pitch {max(abstraction.eta)} exceeds the admissible bound {bound}", args.force)
    _write_abstraction(abstraction, out_dir / f"{model.name}.abs")
    return 0


def cmd_compose(args):
    spec = _load(args.network, sysdsl.NetworkSpec)
    parts = [gridabs.read_abstraction(p) for p in args.abstractions]
    composed = netcomp.compose_abstractions(spec, parts)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "composed.abs"
    composed.write(path)
    print(f"{path}: {len(composed.states)} states, {len(composed.transitions)} transitions")
    print(f"eps,{_fmt(composed.eps)}")
    print("epstilde," + " ".join(_fmt(v) for v in composed.eps_tilde))
    return 0


def cmd_bisim(args):
    s1 = gridabs.read_abstraction(args.left)
    same = Path(args.left).resolve() == Path(args.right).resolve()
    s2 = s1 if same else gridabs.read_abstraction(args.right)
    if args.check:
        rel, lh, rh = bisimcheck.load_relation(args.check)
        if lh != s1.content_hash() or rh != s2.content_hash():
            raise StochabsError("relation file does not match these abstractions (hashes differ)")
        result = bisimcheck.check_relation(s1, s2, rel)
        if result.valid:
            print(f"valid: {len(rel)} pairs")
            return 0
        print(f"invalid: pair {result.pair} violates condition ({result.clause})")
        return 1
    eps_tilde = tuple(_reals(args.eps_tilde, "--eps-tilde")) if args.eps_tilde else ()
    rel = bisimcheck.largest_bisimulation(s1, s2, args.eps, eps_tilde)
    print(f"largest bisimulation: {len(rel)} pairs")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        bisimcheck.save_relation(rel, s1, s2, out_dir / "relation.rel")
        print(f"wrote {out_dir / 'relation.rel'}")
    return 0 if len(rel) else 1


def cmd_validate(args):
    _require_positive(args, "paths", "pairs", "steps")
    _require_finite(args, "tau", "eps", "eps_tilde_norm", "kappa")
    model = _load(args.file, sysdsl.SysModel)
    cert = _certificate(model, args)
    tau = args.tau
    node = netcomp.synthesize_node(model, cert, tau, args.eps, args.eps_tilde_norm, seed=args.seed)
    if not node.feasible:
        return _infeasible([node], named=False)
    kit, eps, eta = node.kit, node.eps, node.eta
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dom = model.domain_array()
    x0 = tuple(gridabs.quantize(0.5 * dom[:, 1], eta))
    # first: a bound that overflows (the increment constant's exp(alpha tau)) fails before any flow
    moments = mcvalidate.validate_moments(
        model, kit, x0, tau, n_paths=args.paths, seed=args.seed, steps=args.steps
    )
    abstraction = gridabs.build_abstraction(
        model, tau, eta, node.omega, eps=eps,
        eps_tilde=(args.eps_tilde_norm,) * model.p if args.eps_tilde_norm else (),
        max_cells=args.max_cells, workers=args.workers,
    )
    ubox = model.input_array()
    wbox = model.dist_array()
    reports = [
        *moments,
        *mcvalidate.validate_coupled(
            model, cert, kit, abstraction, eps,
            a=0.5 * dom[:, 1], a2=0.5 * dom[:, 0],
            u=ubox[:, 1] if model.m else np.zeros(0),
            u2=ubox[:, 0] if model.m else np.zeros(0),
            w=0.3 * wbox[:, 1] if model.p else np.zeros(0),
            w2=0.3 * wbox[:, 0] if model.p else np.zeros(0),
            eps_tilde_norm=args.eps_tilde_norm,
            n_paths=args.paths,
            n_pairs=args.pairs,
            paths_per_pair=max(args.paths // args.pairs, 2),
            seed=args.seed, steps=args.steps,
        ),
    ]
    ok = True
    for rep in reports:
        rep.write_csv(out_dir / f"{rep.check}.csv")
        status = "pass" if rep.passed else "FAIL"
        # a row whose empirical value, std-error and bound are all 0 (an
        # increment over s = t) has margin 0 whatever the run, so it is left out
        worst = min(
            (r.bound + 3 * r.std_error - r.empirical for r in rep.rows
             if (r.empirical, r.std_error, r.bound) != (0, 0, 0)),
            default=math.nan,
        )
        print(f"{rep.check}: {status} ({len(rep.rows)} rows, diverged {rep.diverged}, "
              f"worst margin {worst:.4g})")
        ok = ok and rep.passed
    return 0 if ok else 1


def cmd_report(args):
    out_dir = Path(args.out)
    files = sorted(p for p in out_dir.glob("*.csv") if p.name != "summary.csv")
    if not files:
        raise StochabsError(f"no CSV reports under {out_dir}")
    summary = [("file", "rows", "failures")]
    ok = True
    for path in files:
        rows = list(csv.reader(io.StringIO(sysdsl.read_text(path, FormatError))))
        body = rows[1:] if rows and rows[0] and rows[0][0] in ("check", "quantity") else rows
        fails = sum(1 for r in body if r and r[-1] == "FAIL")
        summary.append((path.name, len(body), fails))
        ok = ok and fails == 0
    _emit_rows(summary, out_dir, "summary.csv")
    return 0 if ok else 1


def _add_common(p, seed=True, out=False, cert=None):
    if cert is not None:  # cert: where the override applies, appended to its help
        p.add_argument("--kappa", type=float, help=f"override: decay rate of the certificate{cert}")
        p.add_argument("--P", dest="p_matrix", help=f"override: certificate matrix{cert}")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="master random seed (default %(default)s)")
    if out:
        p.add_argument("--out", help="output directory for reports/artifacts")


def build_parser():
    width = lambda prog: argparse.HelpFormatter(prog, width=80)
    parser = argparse.ArgumentParser(
        prog="stochabs",
        formatter_class=width,
        description="Finite abstractions of contractive stochastic control systems: "
        "parameter synthesis, composition, bisimulation checking, Monte-Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lint", formatter_class=width,
                       help="parse a system/network file and sample-check its declared constants")
    p.add_argument("file", help="system or network description file")
    p.add_argument("--samples", type=int, default=2000, help="sample count (default %(default)s)")
    _add_common(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("certify", formatter_class=width,
                       help="verify a quadratic certificate and derive its gain functions")
    p.add_argument("file", help="system description file")
    p.add_argument("--mode", choices=("linear-exact", "sampled"), default="linear-exact",
                   help="verification mode (default %(default)s)")
    p.add_argument("--samples", type=int, default=4000, help="sample count (default %(default)s)")
    p.add_argument("--kappa", type=float, help="override: decay rate of the certificate")
    p.add_argument("--P", dest="p_matrix",
                   help="override: certificate matrix, rows ';'-separated, e.g. '2 0; 0 1'")
    p.add_argument("--tau", type=float, help="also report the noise-gap bound at fractions of tau")
    _add_common(p, out=True)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("params", formatter_class=width,
                       help="compute quantization parameters (term ledger / network synthesis)")
    p.add_argument("file", help="system or network description file")
    p.add_argument("--tau", type=float, help="sampling period (single system only, and required there)")
    p.add_argument("--eps", type=float,
                   help="precision (single system only; default: above the computed floor)")
    p.add_argument("--omega", type=float,
                   help="input pitch cap (single system only; default: input-box width)")
    p.add_argument("--eps-tilde-norm", type=float, default=0.0,
                   help="disturbance mismatch norm (single system only; default %(default)s)")
    _add_common(p, out=True, cert=" (single system only)")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("abstract", formatter_class=width,
                       help="build and serialize finite abstractions")
    p.add_argument("file", help="system or network description file")
    p.add_argument("--tau", type=float, help="sampling period (single-system mode)")
    p.add_argument("--eta", type=float, help="state pitch target (single-system mode)")
    p.add_argument("--omega", type=float, help="input pitch target (single-system mode)")
    p.add_argument("--eps", type=float,
                   help="precision the pitch is validated against (single-system mode)")
    p.add_argument("--eps-tilde-norm", type=float, default=0.0,
                   help="disturbance mismatch norm recorded in the file "
                   "(default %(default)s; single-system mode)")
    p.add_argument("--force", action="store_true",
                   help="build even when parameters fail validation (warning emitted)")
    p.add_argument("--max-cells", type=int, default=250_000,
                   help="cap on state*input*disturbance cells (default %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; output is identical for any count (default %(default)s)")
    _add_common(p, cert=" (single system with --eps only)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_abstract)

    p = sub.add_parser("compose", formatter_class=width,
                       help="compose node abstractions over a network")
    p.add_argument("network", help="network description file")
    p.add_argument("abstractions", nargs="+", help="abstraction files to compose")
    _add_common(p, seed=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("bisim", formatter_class=width,
                       help="check a relation or compute the largest disturbance bisimulation")
    p.add_argument("left", help="first abstraction file")
    p.add_argument("right", help="second abstraction file")
    p.add_argument("--check", help="relation file to verify (instead of computing)")
    p.add_argument("--eps", type=float, default=0.0, help="precision (default %(default)s)")
    p.add_argument("--eps-tilde", help="disturbance precisions, space separated")
    _add_common(p, seed=False, out=True)
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("validate", formatter_class=width,
                       help="run the four Monte-Carlo bound suites on a system")
    p.add_argument("file", help="system description file")
    p.add_argument("--tau", type=float, required=True, help="sampling period")
    p.add_argument("--eps", type=float, help="precision (default: above the computed floor)")
    p.add_argument("--eps-tilde-norm", type=float, default=0.0,
                   help="disturbance mismatch norm (default %(default)s)")
    p.add_argument("--paths", type=int, default=10_000,
                   help="Monte-Carlo path count (default %(default)s)")
    p.add_argument("--pairs", type=int, default=100,
                   help="sampled relation pairs for the step check (default %(default)s)")
    p.add_argument("--steps", type=int, default=2048,
                   help="Euler-Maruyama steps per sampling period (default %(default)s)")
    p.add_argument("--max-cells", type=int, default=250_000,
                   help="abstraction cell cap (default %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; output is identical for any count (default %(default)s)")
    _add_common(p, cert="")
    p.add_argument("--out", required=True, help="output directory for CSV reports")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("report", formatter_class=width,
                       help="merge CSV reports in a directory into summary.csv")
    _add_common(p, seed=False)
    p.add_argument("--out", required=True, help="directory holding the CSV reports")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ParameterError(f"--seed must be non-negative, got {args.seed}")
        return args.fn(args)
    except (StochabsError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in '{args.command}'; try a smaller problem "
              "(coarser pitches, fewer paths or steps)", file=_sys.stderr)
        return 2
    except OverflowError:
        print(f"error: numeric overflow in '{args.command}': a bound exceeds the float range; "
              "try a smaller tau or eps", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
