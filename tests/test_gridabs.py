import copy
import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from stochabs import gridabs, netcomp, sysdsl
from stochabs.errors import AbstractionError, FormatError, ModelError
from stochabs.expr import Bin, Call, Lit, Neg, Var
from stochabs.gridabs import (
    FiniteAbstraction,
    Lattice,
    build_abstraction,
    deserialize,
    flow_nominal,
    quantize,
    snap_input_pitch,
    snap_state_pitch,
)
from stochabs.sysdsl import SysModel
from tests.conftest import DATA, table


def test_quantize_examples():
    assert quantize([0.35], 0.25) == (0.5,)
    assert quantize([0.0], 0.25) == (0.0,)
    # exact midpoints round toward +infinity
    assert quantize([0.25], 0.25) == (0.5,)
    assert quantize([-0.25], 0.25) == (0.0,)
    assert quantize([0.3, -0.8], (0.25, 0.5)) == (0.5, -1.0)


def test_cover_property():
    rng = np.random.default_rng(12)
    eta = (0.25, 0.4)
    for _ in range(10_000):
        p = rng.uniform(-3, 3, 2)
        q = quantize(p, eta)
        assert all(abs(a - b) <= h for a, b, h in zip(p, q, eta))


def test_lattice_count_matches_points(scalar_model):
    lat = Lattice.create(scalar_model.domain, 0.25)
    assert lat.count == len(lat.points()) == 5
    lat2 = Lattice.create([(-1, 1), (-0.5, 0.5)], (0.25, 0.25))
    assert lat2.count == len(lat2.points()) == 5 * 3


def test_snap_state_pitch():
    eta = snap_state_pitch([(-1.0, 1.0)], 0.3)
    assert eta == (0.25,)
    assert Lattice.create([(-1.0, 1.0)], eta).covers()
    eta2 = snap_state_pitch([(-2.0, 2.0), (-1.0, 1.0)], 0.7)
    for h, t in zip(eta2, (0.7, 0.7)):
        assert h <= t
    assert Lattice.create([(-2.0, 2.0), (-1.0, 1.0)], eta2).covers()


def test_snap_input_pitch():
    om = snap_input_pitch([(-0.1, 0.1)], 0.05)
    assert om == (0.1 / 3,)
    assert om[0] <= 0.05
    assert snap_input_pitch([(-0.1, 0.1)], 0.5) == (0.1,)
    assert snap_input_pitch([(0.2, 0.2)], 0.5) == (0.0,)


def _autonomous(drift_exprs, n=1, box=1.0, k=4.0):
    return SysModel(
        name="aut",
        n=n,
        m=0,
        p=0,
        r=1,
        drift=tuple(drift_exprs),
        diffusion=tuple((None,) for _ in range(n)),
        domain=tuple((-box, box) for _ in range(n)),
        input_box=(),
        dist_box=(),
        lf=1.0,
        lsigma=0.0,
        growth_k=k,
    )


def test_flow_linear_closed_form(scalar_model):
    res = flow_nominal(scalar_model, [1.0], [0.0], [0.0], 1.0)
    assert res.endpoint[0] == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert not res.escaped
    res2 = flow_nominal(scalar_model, [0.0], [1.0], [0.0], 1.0)
    assert res2.endpoint[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)


def test_flow_zero_drift_fixed_point():
    sys_model = _autonomous([Lit(0.0)])
    res = flow_nominal(sys_model, [0.3], None, None, 2.0)
    assert res.endpoint[0] == 0.3


def test_flow_substep_cap():
    sys_model = _autonomous([Neg(Var("x", 1))])
    with pytest.raises(AbstractionError, match="tolerance"):
        flow_nominal(sys_model, [1.0], None, None, 1.0, substeps=1, tol=0.0, max_substeps=64)


def test_equilibrium_required(scalar_model):
    shifted = dataclasses.replace(
        scalar_model, drift=(Bin("+", Neg(Var("x", 1)), Lit(1.0)),)
    )
    with pytest.raises(ModelError, match="origin"):
        build_abstraction(shifted, 0.5, 0.25, 0.1)


def test_equilibrium_self_loop(scalar_model):
    a = build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    zero_state = a.states.index((0.0,))
    succ, ood = a.transitions[(zero_state, 0, 0)]
    assert succ == (zero_state,) and not ood


def test_boundary_tie_includes_both():
    # f = -x over tau = ln 2 halves the state: from 0.5 the endpoint 0.25
    # is exactly eta away from both 0 and 0.5
    sys_model = _autonomous([Neg(Var("x", 1))])
    a = build_abstraction(sys_model, math.log(2.0), 0.25, 0.0)
    si = a.states.index((0.5,))
    succ, _ = a.transitions[(si, 0, 0)]
    assert succ == (a.states.index((0.0,)), a.states.index((0.5,)))
    # in 2-D a tie on both axes gives four successors, in index order
    plane = _autonomous([Neg(Var("x", 1)), Neg(Var("x", 2))], n=2)
    b = build_abstraction(plane, math.log(2.0), 0.25, 0.0)
    succ, _ = b.transitions[(b.states.index((0.5, 0.5)), 0, 0)]
    assert succ == tuple(b.states.index(p) for p in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)))
    succ, _ = b.transitions[(b.states.index((-1.0, 0.5)), 0, 0)]
    assert succ == tuple(b.states.index(p) for p in ((-0.5, 0.0), (-0.5, 0.5)))


def test_successor_counts_in_range(scalar_model):
    a = build_abstraction(scalar_model, 0.5, 0.125, 0.05)
    for (si, ui, di), (succ, ood) in a.transitions.items():
        if not ood:
            assert 1 <= len(succ) <= 2**scalar_model.n


def test_out_of_domain_flagged():
    # unstable f = x pushes boundary states out of D; transitions kept, marked
    sys_model = _autonomous([Var("x", 1)], k=1.0)
    a = build_abstraction(sys_model, 0.5, 0.25, 0.0)
    si = a.states.index((1.0,))
    succ, ood = a.transitions[(si, 0, 0)]
    assert ood and succ == ()
    zero, ood0 = a.transitions[(a.states.index((0.0,)), 0, 0)]
    assert not ood0 and zero == (a.states.index((0.0,)),)


def test_abstraction_vs_fine_integration_oracle(scalar_model):
    # independent route: plain RK4 at 10x the accepted substep count and a
    # brute-force scan over all grid states
    a = build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    states = [s[0] for s in a.states]
    for (si, ui, di), (succ, ood) in a.transitions.items():
        x = states[si]
        u = a.inputs[ui][0]
        w = a.dists[di][0]
        steps = 320
        h = 0.5 / steps
        for _ in range(steps):
            k1 = -x + u + w
            k2 = -(x + 0.5 * h * k1) + u + w
            k3 = -(x + 0.5 * h * k2) + u + w
            k4 = -(x + h * k3) + u + w
            x = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        expected = tuple(
            sorted(i for i, s in enumerate(states) if abs(s - x) <= 0.25 + 1e-9)
        )
        assert succ == expected


def test_max_cells_cap(scalar_model):
    with pytest.raises(AbstractionError, match="cap"):
        build_abstraction(scalar_model, 0.5, 0.001, 0.001, max_cells=100)


def test_serialize_roundtrip(scalar_model):
    a = build_abstraction(scalar_model, 0.5, 0.25, 0.1, eps=3.2, eps_tilde=(0.1,))
    text = a.serialize()
    b = deserialize(text)
    assert a == b
    assert b.serialize() == text


def test_hash_detects_corruption(scalar_model):
    a = build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    text = a.serialize()
    corrupted = text.replace("states 5", "states 5 ", 1)
    with pytest.raises(FormatError, match="hash"):
        deserialize(corrupted)
    with pytest.raises(FormatError, match="header"):
        deserialize("BOGUS v9\n" + text)


def test_empty_abstraction_roundtrip():
    empty = FiniteAbstraction(
        tau=0.5, eta=(0.25,), omega=(), eps=0.0, eps_tilde=(),
        states=(), inputs=(), dists=(), dist_blocks=(), dist_block_nodes=(),
        node_names=("none",), node_dims=(1,), **table({}, (0, 0, 0)),
    )
    text = empty.serialize()
    assert deserialize(text) == empty


def test_abstraction_equality(scalar_model):
    a = build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    b = copy.deepcopy(a)
    assert a == b and a.succ is not b.succ
    b.succ[2, 0, 0, 0] += 1
    assert a != b
    c = copy.deepcopy(a)
    c.ood[4, 0, 0] = not c.ood[4, 0, 0]
    assert a != c
    assert a != dataclasses.replace(a, node_names=("other",))
    assert a != "scalar1"


def test_abstraction_is_immutable_and_hashed_once(scalar_model):
    a = build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    digest = a.content_hash()
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.system = "other"
    for array in (a.succ, a.ood):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 0
    # a copy's arrays are writeable, so it computes its own digest
    b = copy.deepcopy(a)
    b.succ[2, 0, 0, 0] += 1
    assert b.content_hash() != digest == a.content_hash() == deserialize(a.serialize()).content_hash()


def test_transitions_view(scalar_model):
    a = build_abstraction(scalar_model, 0.5, 0.25, 0.1, dists=((-1.0,), (0.0,), (1.0,)))
    view = a.transitions
    assert len(view) == 15
    assert list(view) == list(itertools.product(range(5), range(1), range(3)))
    assert view[(2, 0, 1)] == ((2,), False)
    for key in [(5, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 3), (0, 0), (0.5, 0, 0)]:
        assert key not in view
        with pytest.raises(KeyError):
            view[key]
    assert dataclasses.replace(a, **table(dict(view.items()), a.ood.shape)) == a


def test_worker_determinism(scalar_model, monkeypatch):
    # small chunks, so that the pool has several chunks to map
    monkeypatch.setattr(gridabs, "FLOW_CHUNK", 10)
    texts = []
    for workers in (1, 2, 8):
        a = build_abstraction(scalar_model, 0.5, 0.125, 0.05, workers=workers)
        texts.append(a.serialize())
    assert texts[0] == texts[1] == texts[2]
    again = build_abstraction(scalar_model, 0.5, 0.125, 0.05)
    assert again.serialize() == texts[0]
    monkeypatch.undo()
    assert build_abstraction(scalar_model, 0.5, 0.125, 0.05).serialize() == texts[0]


def test_model_pickles_for_spawned_workers(scalar_model, monkeypatch):
    # spawn (and forkserver, Linux's default from Python 3.14) pickles the
    # model for the workers; its compiled evaluators stay behind
    one = build_abstraction(scalar_model, 0.5, 0.125, 0.05).serialize()
    assert "drift_eval" in vars(scalar_model)
    copied = pickle.loads(pickle.dumps(scalar_model))
    assert copied == scalar_model and "drift_eval" not in vars(copied)
    x = np.linspace(-1.0, 1.0, 7)[None]
    assert np.array_equal(copied.drift_eval(x, [0.1], [0.2]), scalar_model.drift_eval(x, [0.1], [0.2]))
    monkeypatch.setattr(gridabs, "FLOW_CHUNK", 10)
    monkeypatch.setattr(gridabs, "Pool", multiprocessing.get_context("spawn").Pool)
    assert build_abstraction(scalar_model, 0.5, 0.125, 0.05, workers=2).serialize() == one


# content_hash() of build_abstraction output, computed with the per-cell
# flow that the batched kernel replaced: the kernel must reproduce every
# endpoint, escaped flag and successor set bit for bit
PINNED_HASHES = {
    ("scalar", 0.25, 0.1): "791f0a6d322ee3053f9a90f848ecb2878aae60b6055ad7134853e773c2a0d6e1",
    ("scalar", 0.0625, 0.05): "b163e50eeaaa1d436b56fa800d63f76687e5421557df624a5aba0a32a5a04128",
    ("node", 0.25, 0.1): "6dc1649569760fa82b5baefddc423cfae68de34927d7cb6c1fa34f9acad5211d",
    ("node", 0.0625, 0.05): "4d9ba218a6a1c0fa9dd61f4fb0e6c5ad529434ba0aad10c084bf039dc46dfb8e",
    ("head", 0.25, 0.1): "e8c169d3a9835c0ee91e423f16ec04f51f6e77617d15a6246768b74ea423402a",
    ("head", 0.0625, 0.05): "73ea9ef6cb31d71d52ff931ad4c8eb1e8382b6118b8dd53541fb26f11c7859b0",
    ("sink2", 0.25, 0.1): "6e35b47fc23cebaf9c457c6b6c8ff1a9562059ab8c10a04c4c2ea0bf66b2fd8a",
    ("sink2", 0.0625, 0.05): "75f84a6e20732d8875b3184e24ecab28676585543f92aec8137796910f1b2417",
    ("scalar_det", 0.25, 0.1): "8eba264f93fb6c7a21db38e916b3881e1f8e6a9ba84136c9781488bf6c5246f2",
    ("scalar_det", 0.0625, 0.05): "fddc80c2f9f5f8fc01df3f8723baec84f569cbdc973798c77db12e81145d99c6",
}
PAIR_NET_HASH = "51dadd4c4c29c1392824e677b207ab343c3d0223d9d975187f9a852e1c0ea2ba"


def _corner_dists(model):
    """Every combination of (lo, 0, hi) over the disturbance axes."""
    if model.p == 0:
        return None
    return list(itertools.product(*[(lo, 0.0, hi) for lo, hi in model.dist_box]))


@pytest.mark.parametrize("name,eta,omega", list(PINNED_HASHES))
def test_pinned_abstraction_hashes(name, eta, omega):
    model = sysdsl.load(DATA / f"{name}.sys")
    a = build_abstraction(model, 0.5, eta, omega, dists=_corner_dists(model))
    assert a.content_hash() == PINNED_HASHES[(name, eta, omega)]


def test_pinned_nonlinear_2d_hash():
    a = build_abstraction(_quadratic_2d(), 0.5, 0.125, 0.0)
    assert a.content_hash() == "0ced2cac92d3fbb6ef7f56a72479ebd07fe057f6b9132aeeedcb9161c536362f"


def _composed_pair(pair_net):
    res = netcomp.synthesize_params(pair_net)
    etas = {i: node.eta for i, node in enumerate(res.nodes)}
    omegas = {i: node.omega for i, node in enumerate(res.nodes)}
    parts = [netcomp.build_node_abstraction(pair_net, i, etas, omegas) for i in range(2)]
    return netcomp.compose_abstractions(pair_net, parts)


def test_pinned_composed_pair_hash(pair_net):
    assert _composed_pair(pair_net).content_hash() == PAIR_NET_HASH


def _mixed_table(k):
    """The scalar abstraction over three disturbances, its table replaced
    by rows of 0 to k successors, with and without the out-of-domain mark."""
    a = build_abstraction(sysdsl.load(DATA / "scalar.sys"), 0.5, 0.25, 0.1, dists=((-1.0,), (0.0,), (1.0,)))
    rows = {(s, 0, d): (tuple(range(s, min(s + (s + d) % (k + 1), 5))), s % 2 == 0)
            for s, d in itertools.product(range(5), range(3))}
    return dataclasses.replace(a, **table(rows, (5, 1, 3)))


# content_hash() of _mixed_table(k), from the per-line writer that the
# block renderer replaced
MIXED_TABLE_HASHES = {
    0: "d333f7d9bf6a7b2b50c45c20968f5cef541fdce053ec5322c7fd19880261147d",
    1: "d8ae34caaa80c83463def199a7aad91327c7fc434a0ae4a999422131d281ec04",
    2: "6db2f5fd78dee8a2aee93dfbbfe62aaa1a7a57942d28da64e018d74bf46c236c",
}


@pytest.mark.parametrize("block", [7, gridabs.LINE_BLOCK], ids=["block-7", "default-block"])
def test_tables_render_and_load_across_block_seams(block, monkeypatch):
    # 7-line blocks put seams inside every table below; each still renders
    # to its pinned hash and loads back from its text
    monkeypatch.setattr(gridabs, "LINE_BLOCK", block)
    tables = {digest: _mixed_table(k) for k, digest in MIXED_TABLE_HASHES.items()}
    scalar = sysdsl.load(DATA / "scalar.sys")
    fine = build_abstraction(scalar, 0.5, 0.0625, 0.05, dists=_corner_dists(scalar))
    tables[PINNED_HASHES[("scalar", 0.0625, 0.05)]] = fine  # 153 rows, 2 marked
    tables["0ced2cac92d3fbb6ef7f56a72479ebd07fe057f6b9132aeeedcb9161c536362f"] = build_abstraction(
        _quadratic_2d(), 0.5, 0.125, 0.0)  # 81 rows of 0 or 1 successors, 16 marked
    for digest, a in tables.items():
        assert a.content_hash() == digest
        text = a.serialize()
        assert deserialize(text) == a and deserialize(text).serialize() == text


def test_reading_a_table_peaks_below_a_multiple_of_its_text():
    # 18,000 rows of 0 to 2 successors; the per-line reader with its regex
    # peaked at 17.3 times the text here, the block compare at 11.5
    rng = np.random.default_rng(0)
    succ = np.sort(rng.integers(0, 2000, (2000, 9, 1, 2)), axis=-1)
    succ[..., 1][succ[..., 1] == succ[..., 0]] = -1
    succ[rng.random((2000, 9, 1)) < 0.2] = -1
    text = FiniteAbstraction(
        tau=0.5, eta=(0.25,), omega=(0.1,), eps=0.0, eps_tilde=(),
        states=tuple((0.5 * i,) for i in range(2000)), inputs=tuple((0.1 * j,) for j in range(9)),
        dists=((),), dist_blocks=(), dist_block_nodes=(), node_names=("gen",), node_dims=(1,),
        succ=succ, ood=rng.random((2000, 9, 1)) < 0.1,
    ).serialize()
    deserialize(text)  # first-call allocations are not the reader's
    tracemalloc.start()
    try:
        deserialize(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15 * len(text)


def test_composed_system_line_must_join_the_node_names(pair_net):
    # system is derived from the node names, so a file that says otherwise is refused
    body = _composed_pair(pair_net).serialize().rsplit("hash ", 1)[0]
    assert "\nsystem a+b\ncomposed a:1 b:1 external\n" in body
    bad = body.replace("\nsystem a+b\n", "\nsystem pair\n", 1)
    with pytest.raises(FormatError, match="line 2 reads 'system pair', expected 'system a\\+b'"):
        deserialize(bad + f"hash {hashlib.sha256(bad.encode()).hexdigest()}\n")


def _quadratic_2d():
    # x1' = x1^2 - x2, x2' = tanh(x1) - x2: cells near the origin converge
    # at few substeps, cells near x1 = 1 need many or leave the box
    x1, x2 = Var("x", 1), Var("x", 2)
    return _autonomous([Bin("-", Bin("*", x1, x1), x2), Bin("-", Call("tanh", x1), x2)], n=2)


class _CountingModel:
    """Forwards to a model and counts the points its drift is evaluated at."""

    def __init__(self, model):
        self.model = model
        self.points = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def drift_eval(self, x, u, w):
        self.points += x[0].size
        return self.model.drift_eval(x, u, w)


def test_flow_batch_matches_single():
    g = np.linspace(-1.0, 1.0, 9)
    x0 = np.array(np.meshgrid(g, g, indexing="ij"))
    batch_model = _CountingModel(_quadratic_2d())
    batch = flow_nominal(batch_model, x0, None, None, 0.5, substeps=2, max_substeps=1 << 12)
    assert batch.endpoint.shape == (2, 9, 9)
    assert len(np.unique(batch.substeps)) >= 2
    assert batch.escaped.any() and not batch.escaped.all()
    single_model = _CountingModel(_quadratic_2d())
    for i, j in np.ndindex(9, 9):
        one = flow_nominal(single_model, x0[:, i, j], None, None, 0.5, substeps=2, max_substeps=1 << 12)
        assert np.array_equal(one.endpoint, batch.endpoint[:, i, j])
        assert one.escaped == batch.escaped[i, j]
        assert one.substeps == batch.substeps[i, j]
    # converged cells are not stepped further
    assert batch_model.points == single_model.points


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_blowup_raises():
    # from (1, -1) the x1^2 term blows up well before tau = 3, while the
    # other two cells converge
    x0 = np.array([[0.0, 1.0, 0.2], [0.0, -1.0, 0.1]])
    with pytest.raises(AbstractionError, match="tolerance"):
        flow_nominal(_quadratic_2d(), x0, None, None, 3.0, max_substeps=256)
    with pytest.raises(AbstractionError, match="tolerance"):
        flow_nominal(_quadratic_2d(), x0[:, 1], None, None, 3.0, max_substeps=256)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_blowup_fails_fast():
    # the cells near (1, -1) blow up before tau = 1 at every step count;
    # doubling them to the default cap of 2^20 substeps took minutes
    g = np.linspace(-1.0, 1.0, 9)
    x0 = np.array(np.meshgrid(g, g, indexing="ij"))
    start = time.perf_counter()
    with pytest.raises(AbstractionError, match="non-finite at 16 substeps"):
        flow_nominal(_quadratic_2d(), x0, None, None, 1.0, substeps=2)
    assert time.perf_counter() - start < 5.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stiff_flow_keeps_doubling():
    # x1' = -300 x1^3 contracts, but RK4 from x1 = +-1 overflows at 16, 32
    # and 64 steps (h * Lf > 1 with Lf = 900) and is finite from 128 on
    x1 = Var("x", 1)
    stiff = dataclasses.replace(
        _autonomous([Bin("*", Bin("*", Bin("*", Neg(Lit(300.0)), x1), x1), x1)]), lf=900.0
    )
    res = flow_nominal(stiff, np.array([[-1.0, 1.0, 0.5]]), None, None, 1.0, tol=1e-6)
    assert [v.hex() for v in res.endpoint[0].tolist()] == [
        "-0x1.4e289d2ed3126p-5", "0x1.4e289d2ed3126p-5", "0x1.4d53e7350eb83p-5"
    ]
    assert res.substeps.tolist() == [2048, 2048, 512] and not res.escaped.any()
