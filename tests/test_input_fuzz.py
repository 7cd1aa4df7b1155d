"""Fuzzing of the .rel, .sys and .net inputs: a mangled file is refused with
a StochabsError or loads (a .rel file then re-saves to itself), and never
raises anything else; `params` on a mangled network exits 0, 1 or 2."""

from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stochabs import gridabs, sysdsl  # noqa: E402
from stochabs.bisimcheck import largest_bisimulation, load_relation, save_relation  # noqa: E402
from stochabs.cli import main  # noqa: E402
from stochabs.errors import StochabsError  # noqa: E402
from tests.conftest import DATA  # noqa: E402

EDITS = ["drop line", "copy line", "replace line", "drop token", "copy token", "replace token"]
# junk, non-canonical numbers, and pieces of expressions and boxes
JUNK = ["", "x", "-", "1e9", "nan", "inf", "-1", "00", "+1", "0x1", "(", ")", "((((", "-----",
        "pow(", "x9", "u1", "w1", "=", "[", "]", "[1]", "in", "x1'", "sigma[1][1]", "*", "/"]


def _mangled(draw, text, tokens):
    """text with up to three lines or tokens dropped, copied or replaced."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(EDITS))
        if edit == "drop line":
            del lines[i]
        elif edit == "copy line":
            lines.insert(i, lines[i])
        elif edit == "replace line":
            lines[i] = draw(st.sampled_from(lines))
        else:
            toks = lines[i].split(" ")
            j = draw(st.integers(0, len(toks) - 1))
            if edit == "drop token":
                del toks[j]
            elif edit == "copy token":
                toks.insert(j, toks[j])
            else:
                toks[j] = draw(st.sampled_from(tokens))
            lines[i] = " ".join(toks)
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def rel_text(tmp_path_factory):
    """The relation file of a scalar abstraction with itself, 13 pairs."""
    model = sysdsl.load(DATA / "scalar.sys")
    a = gridabs.build_abstraction(model, 0.5, 0.25, 0.1)
    path = tmp_path_factory.mktemp("rel") / "r.rel"
    save_relation(largest_bisimulation(a, a, 0.5, (0.0,)), a, a, path)
    return path.read_text()


SYS_TEXT = (DATA / "scalar.sys").read_text()


def test_fuzz_bases_load(rel_text, tmp_path):
    path = tmp_path / "r.rel"
    path.write_text(rel_text)
    rel, left, right = load_relation(path)
    assert len(rel) == 13 and left == right
    assert sysdsl.parse_system(SYS_TEXT).name == "scalar1"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mangled_rel_is_refused_or_loads(rel_text, tmp_path, data):
    text = _mangled(data.draw, rel_text, sorted(set(rel_text.split())) + JUNK)
    path = tmp_path / "mangled.rel"
    path.write_text(text)
    try:
        rel, left, right = load_relation(path)
    except StochabsError:
        return
    # a file that loads is one save_relation writes
    save_relation(rel, SimpleNamespace(content_hash=lambda: left),
                  SimpleNamespace(content_hash=lambda: right), path)
    assert path.read_text() == text


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mangled_sys_is_refused_or_loads(data):
    text = _mangled(data.draw, SYS_TEXT, sorted(set(SYS_TEXT.split())) + JUNK)
    try:
        sysdsl.parse_system(text)
    except StochabsError:
        pass


NETS = {name: (DATA / name).read_text() for name in ("pair.net", "tri.net")}
# node attributes at and past the edges of their ranges, and node files that are no system
NET_JUNK = ["eps=0", "eps=-1", "eps=1e-9", "eta=0", "eta=-0.5", "omega=0", "omega=-1", "omega=1e-9",
            "tau=0", "tau=-0.5", "file=pair.net", "file=missing.sys", "a", "b", "c", "1", "3", "->"]


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    """A directory holding the node files that pair.net and tri.net name."""
    path = tmp_path_factory.mktemp("net")
    for name in ("node.sys", "head.sys", "sink2.sys", "pair.net"):
        (path / name).write_text((DATA / name).read_text())
    return path


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mangled_net_exits_cleanly(net_dir, data):
    text = NETS[data.draw(st.sampled_from(sorted(NETS)))]
    path = net_dir / "mangled.net"
    path.write_text(_mangled(data.draw, text, sorted(set(text.split())) + JUNK + NET_JUNK))
    assert main(["params", str(path)]) in (0, 1, 2)
