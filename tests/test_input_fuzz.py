"""Fuzzing of the .rel and .sys loaders: a mangled file is refused with a
StochabsError or loads (a .rel file then re-saves to itself), and never
raises anything else."""

from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stochabs import gridabs, sysdsl  # noqa: E402
from stochabs.bisimcheck import largest_bisimulation, load_relation, save_relation  # noqa: E402
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
