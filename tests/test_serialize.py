"""Text and JSON round-trips."""

import pytest

from perfchain import (
    DimensionMismatchError,
    LimitError,
    ParseError,
    Tower,
    build_group,
    chains_of_cover,
    lens_complex,
)
from perfchain.serialize import (
    complex_from_json,
    complex_to_json,
    digest_text,
    module_to_json,
    read_complex,
    read_int_matrix,
    read_tower,
    write_complex,
    write_int_matrix,
    write_tower,
)

from conftest import SMALL_GROUPS, module_from_json, random_minimal_complex, \
    random_stabilizing_tower, pad_with_identity_cones, two_group_zoo


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


def test_json_roundtrips(rng):
    C = pad_with_identity_cones(random_minimal_complex(SMALL_GROUPS["C4"], rng), rng, 1)
    assert complex_from_json(complex_to_json(C)) == C
    for M in C.expanded().modules:
        assert module_from_json(module_to_json(M), M.group) == M


def test_module_reader_refuses_a_broken_group_relation():
    """The validating module reader, kept as a test oracle: the trivial
    line over C4 is read back, with its generator flipped to 0 it breaks
    s^4 = 1 and the group table check refuses it, and over the trivial
    group, where no generator matrix bounds the dim, a dim past the free
    dimension bound is E_LIMIT before any matrix is built."""
    G = build_group("cyclic:4", 2)
    line = {"dim": 1, "gens": [[[1]]]}
    assert module_to_json(module_from_json(line, G)) == line
    with pytest.raises(DimensionMismatchError, match="homomorphism"):
        module_from_json({"dim": 1, "gens": [[[0]]]}, G)
    with pytest.raises(LimitError):
        module_from_json({"dim": 10**9, "gens": []}, SMALL_GROUPS["C1"])


def test_digest_stability():
    C = chains_of_cover(lens_complex(2, 1, 2))
    assert digest_text(write_complex(C)) == digest_text(write_complex(read_complex(write_complex(C))))
