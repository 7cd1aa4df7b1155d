"""Fuzzing of the .abs loader: a mangled file is refused or reproduced exactly."""

import dataclasses
import hashlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stochabs import sysdsl  # noqa: E402
from stochabs.errors import FormatError  # noqa: E402
from stochabs.gridabs import build_abstraction, deserialize  # noqa: E402
from tests.conftest import DATA, table  # noqa: E402


def _fuzz_body():
    """A scalar body, hash line left out, with rows of 0, 1 and 2
    successors and out-of-domain marks."""
    model = sysdsl.load(DATA / "scalar.sys")
    a = build_abstraction(model, 0.5, 0.25, 0.1, dists=((-1.0,), (0.0,), (1.0,)))
    rows = {
        (s, u, d): (tuple(range(s, min(s + d, 5))), (s + d) % 4 == 0) for s, u, d in np.ndindex(5, 1, 3)
    }
    return dataclasses.replace(a, **table(rows, (5, 1, 3))).serialize().rsplit("hash ", 1)[0]


FUZZ_BODY = _fuzz_body()
# the body's own tokens, plus junk and non-canonical spellings of numbers:
# numpy's integer parse clamps the first of these to the int64 maximum,
# reads the second as the parser's line-end marker, takes tab and vertical
# tab for separators and reads 01 and -0, so it is the structure checks
# or the compare with the rendered text that refuse them
FUZZ_TOKENS = sorted(set(FUZZ_BODY.split())) + [
    "", "x", "*", "->", "1e9", "nan", "00", "+1", "-0", "01",
    "99999999999999999999", "-1000000000000000000", "1\t2", "1\x0b2",
]
EDITS = ["drop line", "copy line", "replace line", "drop token", "copy token", "replace token"]
# edits of the re-hashed text: the footer line and the line breaks
FOOTER_EDITS = {
    "none": lambda text: text,
    "token after the digest": lambda text: text[:-1] + " junk\n",
    "no final newline": lambda text: text[:-1],
    "blank last line": lambda text: text + "\n",
    "CRLF line breaks": lambda text: text.replace("\n", "\r\n"),
    "form feed line break": lambda text: text.replace("\n", "\f", 1),
}


def _hashed(body):
    return body + f"hash {hashlib.sha256(body.encode()).hexdigest()}\n"


@st.composite
def mangled_abs(draw):
    """FUZZ_BODY with up to three lines or tokens dropped, copied or
    replaced, re-hashed, then maybe with its footer or line breaks mangled."""
    lines = FUZZ_BODY.splitlines()
    for _ in range(draw(st.integers(1, 3))):
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
                toks[j] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(toks)
        if not lines:
            break
    footer_edit = FOOTER_EDITS[draw(st.sampled_from(sorted(FOOTER_EDITS)))]
    return footer_edit(_hashed("".join(line + "\n" for line in lines)))


def test_fuzz_body_is_valid():
    a = deserialize(_hashed(FUZZ_BODY))
    assert {len(succ) for succ, _ in a.transitions.values()} == {0, 1, 2} and a.ood.any()


@pytest.mark.parametrize("edit", sorted(set(FOOTER_EDITS) - {"none"}))
def test_mangled_footer_or_line_breaks_are_rejected(edit):
    with pytest.raises(FormatError):
        deserialize(FOOTER_EDITS[edit](_hashed(FUZZ_BODY)))


@settings(max_examples=400, deadline=None)
@given(mangled_abs())
def test_mangled_abs_is_rejected_or_roundtrips(text):
    try:
        a = deserialize(text)
    except FormatError:
        return
    assert a.serialize() == text
