"""Data model and file parser for system and network descriptions.

System files are line oriented::

    system <name>
    dims n=<int> m=<int> p=<int> r=<int>
    domain x<i> in [a, b]
    input u<i> in [a, b]
    dist w<i> in [a, b]
    drift x<i>' = <expr>
    diff sigma[<i>][<k>] = <expr>     # omitted entries are zero
    const Lf=<real> Lsigma=<real> K=<real> [Lu=<real>] [Lw=<real>]
    cert kappa=<real> P=[p11 p12; p21 p22]   # optional certificate

Network files::

    network <name>
    tau=<real>
    node <name> file=<path> eps=<real> [eta=<real>] [omega=<real>]
    edge <j> -> <i>

Blank lines and '#' comments are ignored.  Drift may reference x/u/w;
diffusion entries may reference state variables only.  Node references in
edges are 1-based positions or node names.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ExprEvalError, ModelError, ParseError
from .expr import Bin, Lit, Pow, Var, compile_array, free_vars, parse_expr, to_source


@dataclass(frozen=True)
class SysModel:
    """A controlled diffusion restricted to a compact working box."""

    name: str
    n: int  # state dimension
    m: int  # input dimension
    p: int  # disturbance dimension
    r: int  # Brownian dimension
    drift: tuple  # n expressions f_i(x, u, w)
    diffusion: tuple  # n x r expressions sigma_ik(x), None meaning zero
    domain: tuple  # n (lo, hi) pairs
    input_box: tuple  # m pairs
    dist_box: tuple  # p pairs
    lf: float
    lsigma: float
    growth_k: float
    lu: float | None = None
    lw: float | None = None
    cert_kappa: float | None = None
    cert_p: tuple | None = None  # n x n rows

    @property
    def input_lipschitz(self):
        return self.lf if self.lu is None else self.lu

    @property
    def dist_lipschitz(self):
        return self.lf if self.lw is None else self.lw

    @cached_property
    def drift_eval(self):
        """f(x, u, w) as an (n, ...) array, one function compiled on first use;
        trailing axes of x broadcast (ensemble mode)."""
        return compile_array({(i,): e for i, e in enumerate(self.drift)}, (self.n,), "x, u, w")

    @cached_property
    def diffusion_eval(self):
        """sigma(x) as an (n, r, ...) array, compiled as drift_eval is."""
        entries = {(i, k): e for i, row in enumerate(self.diffusion) for k, e in enumerate(row) if e is not None}
        return compile_array(entries, (self.n, self.r), "x")

    def __getstate__(self):
        # the compiled functions cannot be pickled; a copy compiles its own
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    # each box as a (dim, 2) array of [lo, hi] rows, also when dim is 0
    def domain_array(self):
        return np.array(self.domain, float).reshape(-1, 2)

    def input_array(self):
        return np.array(self.input_box, float).reshape(-1, 2)

    def dist_array(self):
        return np.array(self.dist_box, float).reshape(-1, 2)


@dataclass(frozen=True)
class NetworkSpec:
    """Indexed systems over an irreflexive connectivity relation.

    Node i receives the stacked states of its in-neighbours as its
    disturbance, so each node's dist_box is derived from the neighbours'
    domains (declared dist boxes in node files are replaced).
    """

    name: str
    node_names: tuple
    nodes: tuple  # SysModel per node, dist boxes already derived
    eps: tuple  # per-node precision targets
    eta: tuple  # per-node pitch targets or None
    omega: tuple  # per-node input pitch targets or None
    edges: frozenset  # (src, dst) 0-based pairs, src -> dst
    tau: float

    def neighbors(self, i: int) -> tuple:
        """In-neighbours of node i, ascending."""
        if not 0 <= i < len(self.nodes):
            raise ModelError(f"unknown node index {i}")
        return tuple(sorted(j for (j, k) in self.edges if k == i))


def check_equilibrium(sys: SysModel):
    """Require f(0,0,0) = 0 and sigma(0) = 0 (needed before abstraction)."""
    z = np.zeros(sys.n)
    f0 = sys.drift_eval(z, np.zeros(sys.m), np.zeros(sys.p))
    if np.any(f0 != 0.0):
        raise ModelError(f"{sys.name}: drift at the origin is {f0.tolist()}, expected zero")
    s0 = sys.diffusion_eval(z)
    if np.any(s0 != 0.0):
        raise ModelError(f"{sys.name}: diffusion at the origin is nonzero")


# ---------------------------------------------------------------------------
# file parsing

_DIMS_RE = re.compile(r"n=(\d+)\s+m=(\d+)\s+p=(\d+)\s+r=(\d+)\s*$")
_BOX_RE = re.compile(r"([xuw])(\d+)\s+in\s+\[([^,\]]+),([^,\]]+)\]\s*$")
_DRIFT_RE = re.compile(r"x(\d+)'\s*=\s*(.*)$")
_DIFF_RE = re.compile(r"sigma\[(\d+)\]\[(\d+)\]\s*=\s*(.*)$")
_KV_RE = re.compile(r"([A-Za-z]+)=([^\s\[]+|\[[^\]]*\])")
_EDGE_RE = re.compile(r"(\S+)\s*->\s*(\S+)\s*$")


def _key_values(text, line):
    """The key=value pairs of text as a dict; a key given twice is an error."""
    kv = {}
    for key, value in _KV_RE.findall(text):
        if key in kv:
            raise ParseError(f"{key}= is given twice", line)
        kv[key] = value
    return kv


def _parse_real(text, line, what, positive=False):
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}", line) from None
    if not math.isfinite(v):
        raise ParseError(f"{what} must be finite, got {text}", line)
    if positive and v <= 0:
        raise ParseError(f"{what} must be positive", line)
    return v


def _parse_matrix(text, line):
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected matrix literal [..], got {text!r}", line)
    rows = []
    for row in text[1:-1].split(";"):
        entries = row.split()
        if not entries:
            raise ParseError("empty matrix row", line)
        rows.append(tuple(_parse_real(v, line, "matrix entry") for v in entries))
    if len({len(r) for r in rows}) != 1:
        raise ParseError("ragged matrix literal", line)
    return tuple(rows)


def _meaningful_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _constant_subtrees(e, found) -> bool:
    """Whether e holds no variable; appends to found each subtree of e that
    holds none and is not a literal, inner ones first."""
    if isinstance(e, (Var, Lit)):
        return isinstance(e, Lit)
    kids = (e.lhs, e.rhs) if isinstance(e, Bin) else (e.base,) if isinstance(e, Pow) else (e.arg,)
    constant = all([_constant_subtrees(k, found) for k in kids])
    if constant:
        found.append(e)
    return constant


def _check_constants(e, lineno):
    """Refuse a subtree of e with no variable whose value is not finite,
    evaluated as the compiled model evaluates it."""
    found = []
    _constant_subtrees(e, found)
    for sub in found:
        try:
            with np.errstate(all="ignore"):
                value = compile_array({(0,): sub}, (1,), "x")(np.zeros(1))[0]
        except ExprEvalError as exc:
            raise ParseError(str(exc), lineno) from None
        except OverflowError:  # a Python float power
            value = math.inf
        if not math.isfinite(value):
            raise ParseError(f"constant {to_source(sub)} is not finite", lineno)


def parse_system(text: str) -> SysModel:
    """Parse a system description; all structural invariants are checked here."""
    name = None
    dims = None
    boxes = {"x": {}, "u": {}, "w": {}}
    drift = {}
    diffusion = {}
    consts = None
    cert_kappa = None
    cert_p = None

    for lineno, line in _meaningful_lines(text):
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "system":
            if not rest or len(rest.split()) != 1:
                raise ParseError("expected: system <name>", lineno)
            name = rest
        elif word == "dims":
            m = _DIMS_RE.match(rest)
            if not m:
                raise ParseError("expected: dims n=<int> m=<int> p=<int> r=<int>", lineno)
            dims = tuple(int(g) for g in m.groups())
            if dims[0] < 1 or dims[3] < 1:
                raise ParseError("need n >= 1 and r >= 1", lineno)
        elif word in ("domain", "input", "dist"):
            m = _BOX_RE.match(rest)
            if not m:
                raise ParseError(f"expected: {word} <var> in [a,b]", lineno)
            kind, idx = m.group(1), int(m.group(2))
            expected = {"domain": "x", "input": "u", "dist": "w"}[word]
            if kind != expected:
                raise ParseError(f"{word} lines declare {expected}-variables", lineno)
            lo = _parse_real(m.group(3), lineno, "bound")
            hi = _parse_real(m.group(4), lineno, "bound")
            if lo > hi:
                raise ParseError(f"empty interval [{lo}, {hi}]", lineno)
            if idx in boxes[kind]:
                raise ParseError(f"duplicate box for {kind}{idx}", lineno)
            boxes[kind][idx] = (lo, hi)
        elif word == "drift":
            if dims is None:
                raise ParseError("dims must precede drift lines", lineno)
            m = _DRIFT_RE.match(rest)
            if not m:
                raise ParseError("expected: drift x<i>' = <expr>", lineno)
            idx = int(m.group(1))
            if not 1 <= idx <= dims[0]:
                raise ParseError(f"variable index out of range: x{idx}", lineno)
            if idx in drift:
                raise ParseError(f"duplicate drift for x{idx}", lineno)
            drift[idx] = parse_expr(m.group(2), dims[:3], lineno, col_offset=len(line) - len(m.group(2)))
            _check_constants(drift[idx], lineno)
        elif word == "diff":
            if dims is None:
                raise ParseError("dims must precede diff lines", lineno)
            m = _DIFF_RE.match(rest)
            if not m:
                raise ParseError("expected: diff sigma[<i>][<k>] = <expr>", lineno)
            i, k = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= dims[0] and 1 <= k <= dims[3]):
                raise ParseError(f"diffusion entry [{i}][{k}] out of range", lineno)
            if (i, k) in diffusion:
                raise ParseError(f"duplicate diffusion entry [{i}][{k}]", lineno)
            e = parse_expr(m.group(3), dims[:3], lineno, col_offset=len(line) - len(m.group(3)))
            for v in free_vars(e):
                if v.kind != "x":
                    raise ParseError(
                        f"diffusion may depend on state only, found {v.kind}{v.index}", lineno
                    )
            _check_constants(e, lineno)
            diffusion[(i, k)] = e
        elif word == "const":
            consts = _key_values(rest, lineno)
            for key in ("Lf", "Lsigma", "K"):
                if key not in consts:
                    raise ParseError(f"const line missing {key}", lineno)
            consts = {k: _parse_real(v, lineno, k) for k, v in consts.items()}
            if consts["K"] <= 0:
                raise ParseError("K must be positive", lineno)
            if consts["Lf"] < 0 or consts["Lsigma"] < 0:
                raise ParseError("Lipschitz constants must be nonnegative", lineno)
        elif word == "cert":
            kv = _key_values(rest, lineno)
            if "kappa" not in kv or "P" not in kv:
                raise ParseError("cert line needs kappa=<real> and P=[..]", lineno)
            cert_kappa = _parse_real(kv["kappa"], lineno, "kappa")
            if cert_kappa <= 0:
                raise ParseError("kappa must be positive", lineno)
            cert_p = _parse_matrix(kv["P"], lineno)
        else:
            raise ParseError(f"unknown directive {word!r}", lineno)

    if name is None:
        raise ParseError("missing 'system <name>' line")
    if dims is None:
        raise ParseError("missing 'dims' line")
    if consts is None:
        raise ParseError("missing 'const' line")
    n, m_, p, r = dims

    def collect(kind, count, what):
        got = boxes[kind]
        missing = [i for i in range(1, count + 1) if i not in got]
        if missing:
            raise ParseError(f"missing {what} box for index {missing[0]}")
        extra = [i for i in got if not 1 <= i <= count]
        if extra:
            raise ParseError(f"{what} box index {extra[0]} out of range (dimension {count})")
        return tuple(got[i] for i in range(1, count + 1))

    domain = collect("x", n, "domain")
    input_box = collect("u", m_, "input")
    dist_box = collect("w", p, "dist")
    missing_drift = [i for i in range(1, n + 1) if i not in drift]
    if missing_drift:
        raise ParseError(f"missing drift for x{missing_drift[0]}")
    drift_tuple = tuple(drift[i] for i in range(1, n + 1))
    diff_tuple = tuple(
        tuple(diffusion.get((i, k)) for k in range(1, r + 1)) for i in range(1, n + 1)
    )
    if cert_p is not None and (len(cert_p) != n or len(cert_p[0]) != n):
        raise ParseError(f"certificate P must be {n}x{n}")

    return SysModel(
        name=name,
        n=n,
        m=m_,
        p=p,
        r=r,
        drift=drift_tuple,
        diffusion=diff_tuple,
        domain=domain,
        input_box=input_box,
        dist_box=dist_box,
        lf=consts["Lf"],
        lsigma=consts["Lsigma"],
        growth_k=consts["K"],
        lu=consts.get("Lu"),
        lw=consts.get("Lw"),
        cert_kappa=cert_kappa,
        cert_p=cert_p,
    )


def parse_network(text: str, base_dir=".") -> NetworkSpec:
    """Parse a network description, loading node files relative to base_dir."""
    base = Path(base_dir)
    name = None
    tau = None
    node_names = []
    nodes = []
    eps = []
    eta = []
    omega = []
    edge_lines = []

    for lineno, line in _meaningful_lines(text):
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "network":
            name = rest or "network"
        elif word.startswith("tau"):
            kv = _key_values(line, lineno)
            if "tau" not in kv:
                raise ParseError("expected: tau=<real>", lineno)
            tau = _parse_real(kv["tau"], lineno, "tau", positive=True)
        elif word == "node":
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise ParseError("expected: node <name> file=<path> eps=<real> ...", lineno)
            node_name, tail = parts
            kv = _key_values(tail, lineno)
            if "file" not in kv or "eps" not in kv:
                raise ParseError("node line needs file=<path> and eps=<real>", lineno)
            if node_name in node_names:
                raise ParseError(f"duplicate node name {node_name!r}", lineno)
            path = base / kv["file"]
            try:
                node_text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ParseError(f"cannot read node file {path}: {exc}", lineno) from None
            model = parse_system(node_text)
            node_names.append(node_name)
            nodes.append(model)
            eps.append(_parse_real(kv["eps"], lineno, "eps", positive=True))
            eta.append(_parse_real(kv["eta"], lineno, "eta", positive=True) if "eta" in kv else None)
            omega.append(_parse_real(kv["omega"], lineno, "omega", positive=True) if "omega" in kv else None)
        elif word == "edge":
            m = _EDGE_RE.match(rest)
            if not m:
                raise ParseError("expected: edge <j> -> <i>", lineno)
            edge_lines.append((lineno, m.group(1), m.group(2)))
        else:
            raise ParseError(f"unknown directive {word!r}", lineno)

    if name is None:
        raise ParseError("missing 'network' line")
    if tau is None:
        raise ParseError("missing 'tau=' line")
    if not nodes:
        raise ParseError("network has no nodes")

    def resolve(token, lineno):
        if token in node_names:
            return node_names.index(token)
        if re.fullmatch(r"\d+", token):
            idx = int(token) - 1
            if 0 <= idx < len(nodes):
                return idx
        raise ParseError(f"unknown node {token!r}", lineno)

    edges = set()
    for lineno, src, dst in edge_lines:
        j, i = resolve(src, lineno), resolve(dst, lineno)
        if j == i:
            raise ParseError(f"self-loop on node {node_names[i]!r} (connectivity is irreflexive)", lineno)
        edges.add((j, i))

    spec = NetworkSpec(
        name=name,
        node_names=tuple(node_names),
        nodes=tuple(nodes),
        eps=tuple(eps),
        eta=tuple(eta),
        omega=tuple(omega),
        edges=frozenset(edges),
        tau=tau,
    )
    return _derive_dist_boxes(spec)


def _derive_dist_boxes(spec: NetworkSpec) -> NetworkSpec:
    """Replace each node's dist box by its neighbours' stacked domains.

    Also enforces compatibility: p_i must equal the total state dimension
    of node i's in-neighbours.
    """
    new_nodes = []
    for i, model in enumerate(spec.nodes):
        nbrs = spec.neighbors(i)
        derived = tuple(box for j in nbrs for box in spec.nodes[j].domain)
        if model.p != len(derived):
            raise ModelError(
                f"node {spec.node_names[i]!r} declares p={model.p} but its "
                f"neighbours supply {len(derived)} state dimensions"
            )
        new_nodes.append(dataclasses.replace(model, dist_box=derived))
    return dataclasses.replace(spec, nodes=tuple(new_nodes))


def read_text(path, error) -> str:
    """Read a UTF-8 text file with its line ends as written; bytes that do not decode raise `error`."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def load(path) -> SysModel | NetworkSpec:
    """Load a system or network file, dispatching on its first directive."""
    path = Path(path)
    text = read_text(path, ParseError)
    for _, line in _meaningful_lines(text):
        first = line.split()[0]
        if first == "network":
            return parse_network(text, base_dir=path.parent)
        return parse_system(text)
    raise ParseError("empty input file")


# ---------------------------------------------------------------------------
# declared-constant validation by sampling

@dataclass(frozen=True)
class RegularityReport:
    """Outcome of sampling-based checks of Lf, Lsigma and K.

    Failure refutes a declared constant; success is evidence only.
    """

    lipschitz_f_ok: bool
    lipschitz_sigma_ok: bool
    growth_ok: bool
    worst_f_ratio: float
    worst_sigma_ratio: float
    worst_growth_ratio: float
    witness: tuple | None  # (kind, point data) for the first failed check

    @property
    def passed(self):
        return self.lipschitz_f_ok and self.lipschitz_sigma_ok and self.growth_ok


def sample_box(rng, box, count=None):
    """Uniform draws from the box [(lo, hi), ...]: one (dim,) point, or (dim, count) columns."""
    box = np.asarray(box, float).reshape(-1, 2)
    lo, hi = box[:, 0], box[:, 1]
    if count is None:
        return lo + (hi - lo) * rng.random(box.shape[0])
    return lo[:, None] + (hi - lo)[:, None] * rng.random((box.shape[0], count))


def inf_norm(a):
    """Infinity norm along the leading axis; a zero-length axis gives 0.

    The matrix norm (max absolute row sum) of m is inf_norm(np.abs(m).sum(axis=1)).
    """
    return np.abs(a).max(axis=0, initial=0.0)


def check_regularity(sys: SysModel, samples: int = 2000, seed: int = 0) -> RegularityReport:
    """Sample D x U x W pairs and test the declared Lf, Lsigma and K.

    All norms are infinity norms (matrix norm: max absolute row sum).
    """
    rng = np.random.default_rng(seed)
    x = sample_box(rng, sys.domain, samples)
    x2 = sample_box(rng, sys.domain, samples)
    u = sample_box(rng, sys.input_box, samples)
    u2 = sample_box(rng, sys.input_box, samples)
    w = sample_box(rng, sys.dist_box, samples)
    w2 = sample_box(rng, sys.dist_box, samples)

    f1 = sys.drift_eval(x, u, w)
    f2 = sys.drift_eval(x2, u2, w2)
    num = inf_norm(f1 - f2)
    den = sys.lf * (inf_norm(x - x2) + inf_norm(u - u2) + inf_norm(w - w2))
    with np.errstate(divide="ignore", invalid="ignore"):
        f_ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.where(num > 0, np.inf, 0.0))
    worst_f = int(np.argmax(f_ratio))

    s1 = sys.diffusion_eval(x)
    s2 = sys.diffusion_eval(x2)
    snum = inf_norm(np.abs(s1 - s2).sum(axis=1))
    sden = sys.lsigma * inf_norm(x - x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_ratio = np.where(sden > 0, snum / np.where(sden > 0, sden, 1.0), np.where(snum > 0, np.inf, 0.0))
    worst_s = int(np.argmax(s_ratio))

    growth_lhs = np.maximum(inf_norm(f1) ** 2, inf_norm(np.abs(s1).sum(axis=1)) ** 2)
    growth_rhs = sys.growth_k * (1.0 + inf_norm(x) ** 2)
    g_ratio = growth_lhs / growth_rhs
    worst_g = int(np.argmax(g_ratio))

    tol = 1.0 + 1e-12
    f_ok = bool(np.all(f_ratio <= tol))
    s_ok = bool(np.all(s_ratio <= tol))
    g_ok = bool(np.all(g_ratio <= tol))
    witness = None
    if not f_ok:
        witness = ("lipschitz_f", x[:, worst_f].tolist(), x2[:, worst_f].tolist(),
                   u[:, worst_f].tolist(), u2[:, worst_f].tolist(),
                   w[:, worst_f].tolist(), w2[:, worst_f].tolist())
    elif not s_ok:
        witness = ("lipschitz_sigma", x[:, worst_s].tolist(), x2[:, worst_s].tolist())
    elif not g_ok:
        witness = ("growth", x[:, worst_g].tolist(), u[:, worst_g].tolist(), w[:, worst_g].tolist())

    return RegularityReport(
        lipschitz_f_ok=f_ok,
        lipschitz_sigma_ok=s_ok,
        growth_ok=g_ok,
        worst_f_ratio=float(f_ratio[worst_f]),
        worst_sigma_ratio=float(s_ratio[worst_s]),
        worst_growth_ratio=float(g_ratio[worst_g]),
        witness=witness,
    )
