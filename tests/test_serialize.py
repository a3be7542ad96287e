"""Text and JSON round-trips."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfchain import (
    BoundarySquareNonzeroError,
    ChainComplex,
    ChainMap,
    DimensionMismatchError,
    LimitError,
    ParseError,
    PerfchainError,
    PiModule,
    Tower,
    build_group,
    chains_of_cover,
    lens_complex,
)
from perfchain import serialize
from perfchain.groups import MAX_PRIME, GroupRingMatrix
from perfchain.modules import regular_module
from perfchain.serialize import (
    complex_from_json,
    complex_to_json,
    digest_text,
    field_to_json,
    json_field_array,
    json_int_matrix,
    module_to_json,
    read_complex,
    read_int_matrix,
    read_tower,
    write_complex,
    write_int_matrix,
    write_tower,
)

from conftest import SMALL_GROUPS, format_matrix_lines_reference, module_from_json, \
    parse_block, parse_matrix_reference, random_minimal_complex, random_stabilizing_tower, \
    pad_with_identity_cones, read_complex_reference, read_tower_reference, two_group_zoo, \
    write_complex_reference, write_tower_reference


def test_complex_roundtrip_bytes(rng):
    for name in ["C2", "C3", "C4", "C2xC2", "D4", "Q8"]:
        G = SMALL_GROUPS[name]
        for _ in range(4):
            C = pad_with_identity_cones(random_minimal_complex(G, rng), rng, 1)
            text = write_complex(C)
            C2 = read_complex(text)
            assert C2 == C
            assert write_complex(C2) == text


def test_lens_file_roundtrip():
    C = chains_of_cover(lens_complex(3, 2, 4))
    text = write_complex(C)
    assert read_complex(text) == C


def test_explicit_table_group_roundtrip():
    G = SMALL_GROUPS["D4"]
    C = random_minimal_complex(G, __import__("random").Random(2))
    text = write_complex(C)
    C2 = read_complex(text)
    assert C2.group == G and C2 == C


def test_tower_roundtrip_bytes(rng):
    for name in ["C2", "C3"]:
        G = SMALL_GROUPS[name]
        T, _ = random_stabilizing_tower(G, rng)
        text = write_tower(T)
        T2 = read_tower(text)
        assert write_tower(T2) == text
        assert len(T2.levels) == len(T.levels)
        for a, b in zip(T.levels, T2.levels):
            assert a == b


def test_int_matrix_roundtrip():
    M = [[2, 4], [6, 8], [0, -3]]
    text = write_int_matrix(M)
    assert read_int_matrix(text) == M
    assert write_int_matrix(read_int_matrix(text)) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        read_complex("group cyclic:2\nprime 2\nbottom 0\nranks 1 1\nboundary 1\n[1]\n")
    assert "line 6" in str(e.value)
    with pytest.raises(ParseError):
        read_complex("group cyclic:2\nprime 2\nbottom zero\nranks 1\n")
    with pytest.raises(ParseError):
        read_int_matrix("1 2\n3 x\n")


TOWER_HEAD = "group cyclic:2\nprime 2\nlevels 2\nlevel 0\nbottom 0\nranks 1\n"
LEVEL_1 = "level 1\nbottom 0\nranks 1\n"


@pytest.mark.parametrize("reader, text, line", [
    (read_complex, "group cyclic:2\nprime two\nbottom 0\nranks 1\n", 2),
    (read_complex, "group cyclic:2\nprime 2\nbottom zero\nranks 1\n", 3),
    (read_complex, "group cyclic:2\n# comment\n\nprime 2\nbottom zero\nranks 1\n", 5),
    (read_complex, "group cyclic:2\nprime 2\nbottom 0\nranks 1 x\n", 4),
    (read_tower, "group cyclic:2\nprime 2\nlevels two\n", 3),
    (read_tower, TOWER_HEAD + "level one\nbottom 0\nranks 1\n", 7),
    (read_tower, TOWER_HEAD + "level 2\nbottom 0\nranks 1\n", 7),
    (read_tower, TOWER_HEAD + LEVEL_1 + "bond zero\n", 10),
    (read_tower, TOWER_HEAD + LEVEL_1 + "bond 1\n", 10),
], ids=["prime", "bottom", "bottom-after-comments", "ranks", "levels", "level", "level-index",
        "bond", "bond-index"])
def test_header_errors_name_the_header_line(reader, text, line):
    """A bad prime, bottom, ranks, levels, level or bond header is reported
    at its own line, past any blank or comment lines before it."""
    with pytest.raises(ParseError) as e:
        reader(text)
    assert e.value.line == line, str(e.value)


M = 10 ** 18 - 1


@pytest.mark.parametrize("bottom, ranks, ok", [
    (M - 1, [1, 1], True), (M, [1, 1], False), (M, [1], True), (M + 1, [], False),
    (-M, [1, 1], True), (-M - 1, [1], False), (-M - 1, [], False),
])
def test_degrees_past_eighteen_digits_are_refused_at_read(bottom, ranks, ok):
    """Every degree from bottom to top has at most 18 digits, as a chain
    map's key in JSON does: a complex file, a tower level and a complex in
    JSON that reach one degree further are E_PARSE, in a file at the
    ranks line; those that reach 10^18 - 1 or -(10^18 - 1) are read."""
    level = f"bottom {bottom}\nranks {' '.join(map(str, ranks))}\n"
    obj = {"group": "cyclic:2", "prime": 2, "bottom": bottom, "ranks": ranks,
           "boundaries": ["00"] * (len(ranks) - 1)}
    for read, value, line in ((read_complex, "group cyclic:2\nprime 2\n" + level, 4),
                              (read_tower, "group cyclic:2\nprime 2\nlevels 1\nlevel 0\n"
                               + level, 6),
                              (complex_from_json, obj, None)):
        if ok:
            assert read(value) is not None
        else:
            with pytest.raises(ParseError, match="degrees from bottom to top") as e:
                read(value)
            assert e.value.line == line


def test_json_roundtrips(rng):
    C = pad_with_identity_cones(random_minimal_complex(SMALL_GROUPS["C4"], rng), rng, 1)
    assert complex_from_json(complex_to_json(C)) == C
    for M in C.expanded().modules:
        assert module_from_json(module_to_json(M), M.group) == M
    # F_2[C2] as a permutation of its group basis, and in the basis (1, 1 + t)
    C2 = SMALL_GROUPS["C2"]
    for M, written in ((regular_module(C2, 1), {"dim": 2, "gens": [{"perm": "10"}]}),
                       (PiModule(C2, 2, [np.array([[1, 1], [0, 1]])]),
                        {"dim": 2, "gens": [{"matrix": "1101"}]})):
        assert module_to_json(M) == written
        assert module_from_json(written, C2) == M


def test_module_reader_refuses_a_broken_group_relation():
    """The validating module reader, kept as a test oracle: the trivial
    line over C4, whose generator is the identity permutation, is read
    back, with its generator the matrix 0 it breaks s^4 = 1 and the group
    table check refuses it, and over the trivial group, where no generator
    matrix bounds the dim, a dim past the free dimension bound is E_LIMIT
    before any matrix is built."""
    G = build_group("cyclic:4", 2)
    line = {"dim": 1, "gens": [{"perm": "0"}]}
    assert module_to_json(module_from_json(line, G)) == line
    with pytest.raises(DimensionMismatchError, match="homomorphism"):
        module_from_json({"dim": 1, "gens": [{"matrix": "0"}]}, G)
    with pytest.raises(LimitError):
        module_from_json({"dim": 10**9, "gens": []}, SMALL_GROUPS["C1"])


def test_digest_stability():
    C = chains_of_cover(lens_complex(2, 1, 2))
    assert digest_text(write_complex(C)) == digest_text(write_complex(read_complex(write_complex(C))))


@pytest.mark.parametrize("group, l", [("cyclic:4", 2), ("product:cyclic:3,cyclic:3", 3),
                                      ("cyclic:11", 11), ("cyclic:101", 101)])
def test_text_writer_matches_the_per_entry_join(group, l):
    """The one-grid text writer gives the bytes of a `str` and a join per
    coefficient, on random matrices with every coefficient in [0, l) and
    on a shape with no rows, alone and all rendered together."""
    G = build_group(group, l)
    rng = np.random.default_rng(l)
    mats = [GroupRingMatrix(G, rng.integers(0, l, size=(rows, cols, G.order)))
            for rows, cols in ((1, 1), (3, 4), (5, 2), (0, 3))]
    for m in mats:
        assert serialize._format_rows([m.data], l) == format_matrix_lines_reference(m)
    assert (serialize._format_rows([m.data for m in mats], l)
            == [line for m in mats for line in format_matrix_lines_reference(m)])


TEXT_GROUPS = [("cyclic:4", 2), ("cyclic:3", 3), ("cyclic:101", 101), ("cyclic:1", 1009)]


def _read_block(reader, text: str, desc: str, l: int, rows: int, cols: int):
    """("ok", data) or ("error", message, line) of a text block read by
    `reader` (the block reader or its reference) from a cursor."""
    try:
        m = reader(serialize._Cursor(text), build_group(desc, l), rows, cols)
    except ParseError as e:
        return ("error", str(e), e.line)
    return ("ok", m.data.tolist())


def _random_block(rng: random.Random, order: int, l: int, rows: int, cols: int) -> str:
    """Rows of bracketed entries with coefficients below 0 and past l,
    some near the ends of int64, entries apart by runs of spaces and tabs,
    and blank or comment lines between rows."""
    def coefficient():
        return rng.choice([rng.randrange(-3 * l, 3 * l), rng.randrange(-3 * l, 3 * l),
                           rng.randrange(-2**63, 2**63), 2**63 - 1, -2**63,
                           rng.randrange(10**17, 2**63)])
    lines = []
    for _ in range(rows):
        entries = ["[" + ",".join(str(coefficient()) for _ in range(order)) + "]"
                   for _ in range(cols)]
        lines.append("".join(e + rng.choice([" ", "  ", "\t", " \t  "]) for e in entries))
        lines.append(rng.choice(["", "", "# a comment", "   ", "\t# [1,2]"]))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), which=st.sampled_from(TEXT_GROUPS),
       rows=st.integers(1, 3), cols=st.integers(1, 3))
def test_block_reader_matches_the_per_entry_reader(seed, which, rows, cols):
    """A text block read in whole-array passes gives the data of the
    per-entry reader, at l = 2, 3, 101 and 1009."""
    desc, l = which
    rng = random.Random(seed)
    text = _random_block(rng, build_group(desc, l).order, l, rows, cols)
    got = _read_block(parse_block, text, desc, l, rows, cols)
    assert got[0] == "ok"
    assert got == _read_block(parse_matrix_reference, text, desc, l, rows, cols)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), which=st.sampled_from(TEXT_GROUPS[:3]),
       edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
           ["", "[", "]", ",", "-", " ", "\n", "7", "x", "0.5", "--1", "[]",
            "9223372036854775808", "-9223372036854775809", "00000000000000000000001"])),
           min_size=1, max_size=3))
def test_block_reader_errors_match_the_per_entry_reader(seed, which, edits):
    """Random edits of a valid block (a character deleted, or a bracket,
    comma, sign, space, line break, letter or long number inserted) give
    the per-entry reader's answer: the same data, or the same ParseError
    message at the same line."""
    desc, l = which
    rng = random.Random(seed)
    text = _random_block(rng, build_group(desc, l).order, l, 2, 2)
    for at, insert in edits:
        at %= len(text)
        text = text[:at] + insert + text[at + (not insert):]
    assert (_read_block(parse_block, text, desc, l, 2, 2)
            == _read_block(parse_matrix_reference, text, desc, l, 2, 2))


@pytest.mark.parametrize("row, message", [
    ("[1,0] 1,0]", "entry '1,0]' is not bracketed"),
    ("[1,0] [1]", "entry has 1 coefficients, group order is 2"),
    ("[1,0] [1,0,1]", "entry has 3 coefficients, group order is 2"),
    ("[1,0] [1,x]", "non-integer coefficient in '[1,x]'"),
    ("[1,0] [1,2.0]", "non-integer coefficient in '[1,2.0]'"),
    ("[1,0] [9223372036854775808,0]",
     "coefficient in '[9223372036854775808,0]' does not fit in 64 bits"),
    ("[1,0] [0,-9223372036854775809]",
     "coefficient in '[0,-9223372036854775809]' does not fit in 64 bits"),
    ("[1,0] [0,1" + "0" * 5000 + "]", None),
    ("[1,0]", "matrix row has 1 entries, expected 2"),
], ids=["unbracketed", "short", "long", "letter", "decimal", "past-int64", "below-int64",
        "past-int-digit-limit", "short-row"])
def test_block_errors_keep_their_kind_and_line(row, message):
    """An unbracketed, short or long entry, a non-integer or past-int64
    coefficient and a short row each fail at their own line with the
    per-entry reader's message, after a good row, blank lines and a
    comment; a 5001-digit coefficient is past int64 and E_PARSE too."""
    text = "[1,0] [0,1]\n\n# two blank lines before\n\n" + row + "\n"
    with pytest.raises(ParseError) as e:
        parse_block(serialize._Cursor(text), build_group("cyclic:2", 2), 2, 2)
    assert e.value.line == 5 and e.value.code == "E_PARSE"
    if message is not None:
        assert str(e.value) == f"line 5: {message}"
    else:
        assert "does not fit in 64 bits" in str(e.value)


@pytest.mark.parametrize("row", ["[1] [0]", "[1,1,1,1,1,1,1] [2,1,1]"])
def test_entries_of_the_wrong_length_are_refused_where_the_counts_add_up(row):
    """Over C3 two one-coefficient entries have as many brackets and
    commas as one entry of three, and a seven-coefficient entry as many
    as two of three: each short or long entry is still refused, at its
    line, with the per-entry reader's message."""
    G = build_group("cyclic:3", 3)
    cols = len(row.split())
    text = " ".join(["[0,1,2]"] * cols) + "\n" + row + "\n"
    want = _read_block(parse_matrix_reference, text, "cyclic:3", 3, 2, cols)
    assert want[0] == "error" and want[2] == 2
    assert _read_block(parse_block, text, "cyclic:3", 3, 2, cols) == want


def test_an_earlier_entry_error_comes_before_a_later_row_error():
    """Rows are counted as they are read, but an error in an earlier row's
    entries is reported first, as when each row was read in full before
    the next: before a later short row, and before the end of the input."""
    G = build_group("cyclic:2", 2)
    for later in ("[1,0]\n", ""):
        with pytest.raises(ParseError) as e:
            parse_block(serialize._Cursor("[1,0] [1,y]\n" + later), G, 2, 2)
        assert (e.value.line, str(e.value)) == (1, "line 1: non-integer coefficient in '[1,y]'")


EDITS = ["", "[", "]", ",", "-", " ", "\n", "7", "x", "0.5", "--1", "[]",
         "9223372036854775808", "-9223372036854775809", "00000000000000000000001"]


@functools.lru_cache(maxsize=None)
def _valid_files() -> list:
    """(kind, text) of random complexes and towers over C2, C3 and C4, and
    over the trivial group at l = 101, as their writers give them."""
    rng = random.Random(61)
    files = []
    for desc, l in [("cyclic:2", 2), ("cyclic:3", 3), ("cyclic:4", 2), ("cyclic:1", 101)]:
        G = build_group(desc, l)
        for _ in range(2):
            C = pad_with_identity_cones(random_minimal_complex(G, rng), rng, 1)
            files.append(("complex", write_complex(C)))
            files.append(("tower", write_tower(random_stabilizing_tower(G, rng)[0])))
    return files


def _complex_data(C) -> tuple:
    return C.group.descriptor, C.bottom, C.ranks, [b.data.tolist() for b in C.boundaries]


def _read_file(reader, text: str):
    """("ok", data) or ("error", kind, message, line) of a file read by
    `reader`."""
    try:
        got = reader(text)
    except PerfchainError as e:
        return ("error", type(e).__name__, str(e), getattr(e, "line", None))
    if isinstance(got, Tower):
        return ("ok", [_complex_data(L) for L in got.levels],
                [sorted((q, m.data.tolist()) for q, m in f.components.items())
                 for f in got.bonds])
    return ("ok", _complex_data(got))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 15), edits=st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(EDITS)), min_size=1, max_size=3))
def test_file_readers_match_the_block_by_block_reader(which, edits):
    """Random edits of a valid complex or tower file, from the edit
    alphabet of the block tests, read as the block-by-block reader that
    checks each level as it is read does: the same data, or the same
    error, kind, message and line.  The one exception is the order of
    text and mathematics: a file's text is checked first, so where the
    block-by-block reader would stop at d o d != 0 or a map that does not
    commute before an error in the text, the error in the text is
    reported, as the block-by-block reader reports it with its checks
    off."""
    kind, text = _valid_files()[which]
    for at, insert in edits:
        at %= len(text)
        text = text[:at] + insert + text[at + (not insert):]
    reader, reference = ((read_complex, read_complex_reference) if kind == "complex"
                         else (read_tower, read_tower_reference))
    text_only = _read_file(functools.partial(reference, check=False), text)
    want = text_only if text_only[0] == "error" else _read_file(reference, text)
    assert _read_file(reader, text) == want


def test_unedited_files_read_back_as_written():
    for kind, text in _valid_files():
        reader, reference = ((read_complex, read_complex_reference) if kind == "complex"
                             else (read_tower, read_tower_reference))
        assert _read_file(reader, text) == _read_file(reference, text)
        assert _read_file(reader, text)[0] == "ok"


C2_SQUARE_NONZERO = "bottom 0\nranks 1 1 1\nboundary 1\n[1,0]\nboundary 2\n[1,0]\n"


@pytest.mark.parametrize("reader, reference, text, line", [
    (read_tower, read_tower_reference,
     "levels 2\nlevel 0\n" + C2_SQUARE_NONZERO
     + "level 1\nbottom 0\nranks 1 1\nboundary 1\n[1,x]\nbond 0\n", 15),
    (read_tower, read_tower_reference,
     "levels 2\nlevel 0\n" + C2_SQUARE_NONZERO + "level 1\nbottom 0\nranks 1 x\nbond 0\n", 13),
    (read_tower, read_tower_reference,
     "levels 3\nlevel 0\nbottom 0\nranks 1 1\nboundary 1\n[1,1]\n"
     "level 1\nbottom 0\nranks 1 1\nboundary 1\n[1,1]\n"
     "level 2\nbottom 0\nranks 1 1\nboundary 1\n[1,1]\n"
     "bond 0\ndegree 0\n[1,0]\nbond 1\ndegree 0\n[1,0] [1,0]\n", 24),
    (read_complex, read_complex_reference, C2_SQUARE_NONZERO + "trailing\n", 9),
], ids=["entry-after-level", "ranks-after-level", "entry-after-bond", "trailing-content"])
def test_text_is_checked_before_mathematics(reader, reference, text, line):
    """The one order change of the whole-file readers: an error in the
    text after a level with d o d != 0, or after a bond that does not
    commute, is now the error reported, at its line, where the
    block-by-block reader stops at the mathematics first."""
    text = "group cyclic:2\nprime 2\n" + text
    with pytest.raises(ParseError) as e:
        reader(text)
    assert e.value.line == line, str(e.value)
    assert _read_file(functools.partial(reference, check=False), text)[1:] == (
        "ParseError", str(e.value), line)
    with pytest.raises((BoundarySquareNonzeroError, DimensionMismatchError)) as first:
        reference(text)
    assert not isinstance(first.value, ParseError)


def test_mathematics_is_checked_in_reading_order():
    """Once the text is read, d o d = 0 is checked level by level and then
    each bond commutes, as the block-by-block reader checks them: with
    d o d != 0 in levels 1 and 2 and a bond that does not commute, the
    error names level 1's degrees; with the levels mended, bond 0's."""
    levels = ["ranks 1 1\nboundary 1\n[1,1]\n",
              "ranks 1 1 1\nboundary 1\n[1,0]\nboundary 2\n{}\n",
              "ranks 1 1 1 1\nboundary 2\n[1,0]\nboundary 3\n{}\n"]
    for d, want in (("[1,0]", "d_1 o d_2 != 0"),
                    ("[0,0]", "map does not commute with d at degree 1")):
        text = "group cyclic:2\nprime 2\nlevels 3\n" + "".join(
            f"level {n}\nbottom 0\n{body.format(d)}" for n, body in enumerate(levels))
        text += "bond 0\ndegree 0\n[1,0]\nbond 1\n"
        assert _read_file(read_tower, text) == _read_file(read_tower_reference, text)
        assert _read_file(read_tower, text)[2] == want


@pytest.mark.parametrize("desc, l", [("cyclic:4", 2), ("product:cyclic:3,cyclic:3", 3),
                                     ("cyclic:101", 101), ("cyclic:1", 1009)])
def test_writers_match_the_per_block_rendering(desc, l):
    """`write_complex` and `write_tower`, which render every block of a
    file from one digit grid, give the bytes of each block rendered on
    its own and the lines joined: on random data (d o d is not needed to
    write) with rank-0 degrees inside and at the ends, and towers whose
    bonds have zero, absent and empty components."""
    G = build_group(desc, l)
    rng = np.random.default_rng(l)

    def data(rows, cols, zero=False):
        a = rng.integers(0, l, size=(rows, cols, G.order))
        return GroupRingMatrix(G, a * (not zero))

    def complex_():
        ranks = [int(r) for r in rng.choice([0, 0, 1, 2, 3], size=rng.integers(0, 6))]
        return ChainComplex(G, int(rng.integers(-2, 3)), ranks,
                            [data(a, b) for a, b in zip(ranks, ranks[1:])])

    for _ in range(8):
        C = complex_()
        assert write_complex(C) == write_complex_reference(C)
        levels = [complex_() for _ in range(rng.integers(1, 4))]
        bonds = []
        for T, S in zip(levels, levels[1:]):
            degrees = range(min(S.bottom, T.bottom) - 1, max(S.top, T.top) + 2)
            bonds.append(ChainMap(S, T, {
                q: data(T.rank_at(q), S.rank_at(q), zero=rng.random() < 0.3)
                for q in degrees if rng.random() < 0.8}))
        T = Tower(levels, bonds)
        assert write_tower(T) == write_tower_reference(T)


@pytest.mark.parametrize("spelling", ["+1", "1_0", "\u0661", "\uff11", " 1"])
def test_coefficient_spellings_outside_the_grammar_are_parse_errors(spelling):
    """A coefficient is `-?[0-9]+`: a plus sign, an underscore and
    non-ASCII digits, all of which Python's `int` reads, are E_PARSE at
    their line."""
    text = f"[0,0]\n[{spelling},0]\n"
    with pytest.raises(ParseError) as e:
        parse_block(serialize._Cursor(text), build_group("cyclic:2", 2), 2, 1)
    assert e.value.line == 2


@pytest.mark.parametrize("value", [2**63 - 1, -2**63, 10**18, -10**18, 10**18 - 1, 0,
                                   -1, 1000000000000000007])
def test_int64_boundary_coefficients_read_exactly(value):
    """Coefficients at and near the ends of int64, and past 18 digits,
    read exactly, alone and in a block of short ones: reduced mod 1009
    they equal Python's reduction of the integer."""
    G = build_group("cyclic:1", 1009)
    text = f"[3] [{value}] [-5]\n[{value}] [0] [{value}]\n"
    data = parse_block(serialize._Cursor(text), G, 2, 3).data
    want = [[3, value, -5], [value, 0, value]]
    assert data[..., 0].tolist() == [[x % 1009 for x in row] for row in want]


def _largest_prime_below(n: int) -> int:
    return next(p for p in range(n - 1, 1, -1)
                if all(p % d for d in range(2, math.isqrt(p) + 1)))


@pytest.mark.parametrize("l", [2, 3, 7, 11, 97, 101, 997, 1009, _largest_prime_below(MAX_PRIME)])
def test_field_strings_round_trip(l):
    """An array over F_l is one string of len(str(l - 1)) digits per entry,
    read back to the same int64 array, at primes on both sides of each
    width and at the largest prime accepted; shapes with a zero dimension
    are the empty string."""
    rng = np.random.default_rng(l)
    width = len(str(l - 1))
    for shape in ((7,), (3, 4), (2, 3, 5), (0,), (3, 0), (0, 4, 2), (2, 0, 3)):
        a = rng.integers(0, l, size=shape)
        a.flat[:1] = l - 1
        text = field_to_json(a, l)
        assert len(text) == a.size * width and (text.isdigit() or not text)
        back = json_field_array(text, "a", l, *shape)
        assert back.dtype == np.int64 and np.array_equal(back, a)
    assert field_to_json(np.array([0, 10, 3]), 11) == "001003"


@pytest.mark.parametrize("n", [1, 2, 10, 11, 101, 1000])
def test_permutation_index_arrays_round_trip(n):
    """A permutation of n points is written with the bound n, its indices
    of len(str(n - 1)) digits, and read back; a regular module's
    generators, stored as permutations, are written as {"perm": ...}."""
    rows = np.random.default_rng(n).permutation(n)
    text = field_to_json(rows, n)
    assert len(text) == n * len(str(n - 1))
    assert np.array_equal(json_field_array(text, "perm", n, n), rows)
    G = SMALL_GROUPS["C4"]
    M = regular_module(G, 2)
    written = module_to_json(M)
    assert [set(g) for g in written["gens"]] == [{"perm"}] * len(G.generators)
    assert module_from_json(written, G) == M


@pytest.mark.parametrize("value", [
    [[1, 0]], [1, 0], "1", "101", "١0", "٣0", "３0", "+1", "-1", " 1", "1 ", 10, None,
], ids=["v4-nested", "v4-flat", "short", "long", "arabic-one", "arabic-three", "fullwidth",
        "plus", "minus", "space-before", "space-after", "int", "none"])
def test_malformed_field_string_is_refused_before_any_array(value, monkeypatch):
    """A value that is not a string of exactly shape x width ASCII digits
    is ParseError before `np.frombuffer` builds anything, whatever shape is
    declared."""
    def refuse(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "frombuffer", refuse)
    with pytest.raises(ParseError, match="is not a 1 x 2 array"):
        json_field_array(value, "x", 2, 1, 2)
    with pytest.raises(ParseError, match="is not a"):
        json_field_array("11", "x", 2, 10**9, 10**9)


@pytest.mark.parametrize("l, text", [(2, "12"), (3, "03"), (11, "0011"), (101, "000101"),
                                     (1009, "10091008")])
def test_field_entry_equal_to_l_is_refused(l, text):
    """An entry with the right number of digits that equals l is outside
    F_l, and ParseError."""
    with pytest.raises(ParseError, match=rf"outside \[0, {l}\)"):
        json_field_array(text, "x", l, 2)


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "1", None, [1]],
                         ids=["true", "false", "float-integral", "float", "str", "none", "list"])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_int_matrix_entries_must_be_ints(bad, where):
    """An entry of any type but int, bool among them, in the first, a
    middle or the last row is the same ParseError as a ragged row; a
    matrix of ints, of either sign and past 2^64, comes back as given."""
    M = [[1, -2, 3], [2**70, 0, -(2**64)], [4, 5, 6]]
    assert json_int_matrix(M, "U", 3, 3) is M
    M[where] = M[where][:1] + [bad] + M[where][2:]
    with pytest.raises(ParseError, match=r"^U is not an integer matrix with 3 columns$"):
        json_int_matrix(M, "U")


@pytest.mark.parametrize("rows, cols", [([[1, 2], [3]], None), ([[1, 2], [3, 4, 5]], None),
                                        ([[1], []], None), ([[1, 2], [3, 4]], 3)])
def test_int_matrix_rows_must_have_one_length(rows, cols):
    """A row longer or shorter than the first, or rows of another length
    than the columns asked for, is ParseError naming that column count."""
    expected = len(rows[0]) if cols is None else cols
    with pytest.raises(ParseError, match=rf"^M is not an integer matrix with {expected} columns$"):
        json_int_matrix(rows, "M", cols=cols)
