"""Line-oriented text formats and canonical JSON encodings.

Text files are diff-able and hand-writable: headers (`group`, `prime`,
`bottom`, `ranks`), then one boundary matrix per degree, with group-ring
entries as comma-separated coefficient lists in brackets, one row per
line, the entries of a row apart by whitespace.  Blank lines and lines
that start with `#` are skipped.  A coefficient is `-?[0-9]+` in ASCII
digits (no `+`, `_` or other digits) whose value fits in int64; it is
read modulo l.  A header integer (the prime, bottom, ranks, level count
and block indices) is `-?[0-9]+` too, with whitespace around it, and the
orders and identity of a group descriptor are `[0-9]+`.  A file is the
unit of reading and writing.  A reader first walks the file's structure
(headers, ranks, each row's entry count), then checks and converts every
entry of the file in one whole-array pass, reading entry by entry only
to name the first error, and only then builds levels and bonds and
checks d o d = 0 and that bonds commute: a file's text is checked before
its mathematics.  A writer renders every block of the file from one
digit grid.  The transient arrays are a small multiple of the file's text, which is
already resident.  Writers are canonical: parsing then re-writing any
value reproduces the bytes.

In JSON every array over F_l is one string (`field_to_json`): its
entries in row-major order, each as exactly len(str(l - 1)) decimal
digits, so an F_2 entry is one digit and an F_101 entry three.  The
reader (`json_field_array`) knows the shape from the data around the
array, and checks the string's type, length and alphabet before it
builds anything.  A module is `{"dim": d, "gens": [...]}`, one entry per
element of the group's generating set: a basis permutation as
`{"perm": rows}`, its index array (rho @ V == V[rows]) written with the
bound d in place of l, and any other action as `{"matrix": rho}`, the
d x d matrix.  A module is written as an answer (a tower limit) and
never read back, since checkers recompute modules.  A map out of a free
module F_l[pi]^r is written by its r generator columns (see
`free_map_to_json`), and read back as their orbit, which is equivariant
by construction.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re

import numpy as np

from .chains import ChainComplex, ChainMap, ModuleComplex, ModuleComplexMap, check_ranks
from .errors import ParseError, PerfchainError
from .groups import GroupRingMatrix, GroupTable, build_group
from .modules import PiModule, orbit_columns
from .towers import Tower


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _format_rows(blocks: list[np.ndarray], l: int) -> list[str]:
    """The text rows of group-ring blocks, (rows, cols, order) data with
    cols > 0, in order, from one digit grid as in `field_to_json`: a
    coefficient's cell is an opening bracket, its digits, a comma or
    closing bracket and the separator after an entry, with 0 where
    nothing is written, in the narrowest dtype that holds l - 1.  A row
    ends at the running sum of the row widths."""
    if not blocks:
        return []
    order = blocks[0].shape[2]
    place = _place_values(l).astype(np.min_scalar_type(l - 1))
    a = np.concatenate([b.reshape(-1, 1) for b in blocks], dtype=place.dtype, casting="unsafe")
    width = len(place)
    grid = np.zeros((a.shape[0], width + 3), dtype=np.uint8)   # 0: not written
    grid[::order, 0] = ord("[")
    grid[:, 1:width + 1] = np.where(a >= place, a // place % 10 + 48, 0)
    grid[:, width] = a[:, 0] % 10 + 48                          # "0" for 0
    grid[:, width + 1] = ord(",")
    grid[order - 1::order, width + 1:] = ord("]"), ord(" ")
    row_widths = np.repeat([b.shape[1] for b in blocks], [b.shape[0] for b in blocks])
    grid[np.cumsum(row_widths) * order - 1, width + 2] = ord("\n")
    return grid[grid != 0].tobytes().decode("ascii").split("\n")[:-1]


def _join_lines(parts: list, l: int) -> str:
    """The text of `parts`, header lines and the group-ring data of the
    blocks between them, every block's rows rendered by one `_format_rows`."""
    rows = iter(_format_rows([p for p in parts if not isinstance(p, str)], l))
    lines = []
    for p in parts:
        lines += [p] if isinstance(p, str) else itertools.islice(rows, len(p))
    return "\n".join(lines) + "\n"


def _complex_parts(C: ChainComplex) -> list:
    """The bottom and ranks lines of C and its nonempty boundaries, each
    after its header line, shared by complexes and tower levels."""
    parts = [f"bottom {C.bottom}", ("ranks " + " ".join(str(r) for r in C.ranks)).rstrip()]
    for i, b in enumerate(C.boundaries):
        if b.rows and b.cols:
            parts += [f"boundary {C.bottom + i + 1}", b.data]
    return parts


def write_complex(C: ChainComplex) -> str:
    parts = [f"group {C.group.descriptor}", f"prime {C.group.prime_l}", *_complex_parts(C)]
    return _join_lines(parts, C.group.prime_l)


class _Cursor:
    """Content lines of a text, skipping blanks and comments.  `lineno()` is
    the number of the line at the cursor, `last` that of the line `next`
    returned last."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.last = 0

    def peek(self) -> str | None:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            if line and not line.startswith("#"):
                return line
            self.pos += 1
        return None

    def next(self) -> str:
        line = self.peek()
        if line is None:
            raise ParseError("unexpected end of input", self.lineno())
        self.pos += 1
        self.last = self.pos
        return line

    def lineno(self) -> int:
        return min(self.pos + 1, len(self.lines) + 1)

    def expect(self, keyword: str) -> str:
        line = self.next()
        if not line.startswith(keyword + " ") and line != keyword:
            raise ParseError(f"expected {keyword!r}, got {line!r}", self.last)
        return line[len(keyword):].strip()


# A degree from bottom to top has at most 18 digits, as a chain map's key
# in JSON does (`_json_components`), so what is read can be certified.
MAX_DEGREE = 10 ** 18 - 1


def _check_degrees(bottom: int, ranks: list, lineno: int | None = None) -> None:
    if not -MAX_DEGREE <= bottom <= MAX_DEGREE - max(len(ranks) - 1, 0):
        raise ParseError("degrees from bottom to top have more than 18 digits", lineno)


def _parse_int(text: str, what: str, lineno: int) -> int:
    """A header integer: `-?[0-9]+` in ASCII digits, as a coefficient is,
    with whitespace around it."""
    try:    # int() refuses "" and more digits than Python's limit
        return int(text if _COEFFICIENT.fullmatch(text.strip()) else "")
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}", lineno)


_COEFFICIENT = re.compile(r"-?[0-9]+")
# `\s` and str.split() separate on the same code points
_INT_ROW = re.compile(rf"{_COEFFICIENT.pattern}(?:\s+{_COEFFICIENT.pattern})*")
_DELIMITERS = str.maketrans("[],", "   ")


def _entry_values(rows: list[list[str]], linenos: list[int], order: int) -> np.ndarray:
    """The coefficients of rows of entries, read one entry at a time; the
    first entry off the grammar or past int64 raises ParseError at its
    line.  This names the error of a text that `_block_values` refused."""
    values = []
    for toks, lineno in zip(rows, linenos):
        for tok in toks:
            if not (tok.startswith("[") and tok.endswith("]")):
                raise ParseError(f"entry {tok!r} is not bracketed", lineno)
            body = tok[1:-1]
            parts = body.split(",") if body else []
            if len(parts) != order:
                raise ParseError(
                    f"entry has {len(parts)} coefficients, group order is {order}", lineno)
            if not all(_COEFFICIENT.fullmatch(p) for p in parts):
                raise ParseError(f"non-integer coefficient in {tok!r}", lineno)
            try:
                values.append(np.array([int(p) for p in parts], dtype=np.int64))
            except (ValueError, OverflowError):    # past int's digit limit, or int64
                raise ParseError(f"coefficient in {tok!r} does not fit in 64 bits", lineno)
    return np.array(values, dtype=np.int64).ravel()


# The entry grammar `[` F (`,` F)* `]`, F = -?[0-9]+, with entries joined
# by single spaces, is fixed by which character may follow which: each
# character has a class, its index in _CLASSES ("0" standing for every
# digit, "x" for anything else), and _FOLLOWS holds the pairs allowed.
_CLASSES = "x0- [,]"
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[[ord(ch) for ch in _CLASSES[2:]]] = np.arange(2, len(_CLASSES))
_CLASS[ord("0"):ord("9") + 1] = 1
_FOLLOWS = np.zeros(64, dtype=bool)     # at 8 * class + class of the next
_FOLLOWS[[8 * _CLASSES.index(a) + _CLASSES.index(b)
          for a, b in ("[0", "[-", "-0", "00", "0,", "0]", ",0", ",-", "] ", " [")]] = True
_SPACE, _OPEN, _COMMA, _CLOSE = (_CLASSES.index(ch) for ch in " [,]")


def _block_values(text: str, order: int) -> np.ndarray | None:
    """The coefficients of entries joined by single spaces, checked and
    converted in whole-array passes, or None when an entry is off the
    grammar, has other than `order` coefficients, or has one of more than
    18 characters.  `np.fromstring` saturates past int64, so it only reads
    coefficients below 10^18; longer ones are left to `_entry_values`."""
    if not text.isascii():
        return None
    c = _CLASS[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    if not (c.size and c[0] == _OPEN and c[-1] == _CLOSE
            and _FOLLOWS[c[:-1] * 8 + c[1:]].all()):
        return None
    # the brackets and commas, one row of `order + 1` per entry
    d = c[np.flatnonzero(c >= _OPEN)]
    if d.size % (order + 1):
        return None
    d = d.reshape(-1, order + 1)
    if not ((d[:, 1:-1] == _COMMA).all() and (d[:, -1] == _CLOSE).all()):
        return None
    # run[i]: the 1, 2, 4, 8, 16 and then 19 characters from i are digits or signs
    run = c < _SPACE
    for step in (1, 2, 4, 8, 3):
        run = run[:-step] & run[step:]
    if run.any():
        return None
    return np.fromstring(text.translate(_DELIMITERS), dtype=np.int64, sep=" ")


class _Blocks:
    """The matrix blocks of one text in reading order, read in two steps:
    `read` takes a block's rows from the cursor, each row's entry count
    checked as it is read, and `matrices` checks and converts the entries
    of every block taken in one `_block_values` pass."""

    def __init__(self, cur: _Cursor, order: int):
        self.cur, self.order = cur, order
        self.rows, self.linenos, self.shapes = [], [], []

    def read(self, rows: int, cols: int) -> int:
        """Takes a rows x cols block and returns its index."""
        cur = self.cur
        for _ in range(rows):
            row = cur.next().split()
            if len(row) != cols:
                raise ParseError(f"matrix row has {len(row)} entries, expected {cols}", cur.last)
            self.rows.append(row)
            self.linenos.append(cur.last)
        self.shapes.append((rows, cols))
        return len(self.shapes) - 1

    def values(self) -> np.ndarray:
        """The coefficients of every entry taken; when `_block_values`
        refuses them, read entry by entry, which raises the first error."""
        values = _block_values(" ".join(itertools.chain.from_iterable(self.rows)), self.order)
        return _entry_values(self.rows, self.linenos, self.order) if values is None else values

    def matrices(self, G: GroupTable) -> list[GroupRingMatrix]:
        """Each block as a matrix over G, in arrays of their own."""
        values, order = self.values(), self.order
        at = [0, *itertools.accumulate(rows * cols * order for rows, cols in self.shapes)]
        return [GroupRingMatrix(G, values[start:end].reshape(rows, cols, order))
                for start, end, (rows, cols) in zip(at, at[1:], self.shapes)]


def _read_file(text: str, walk):
    """A text file in three steps: the header; the rest of the structure,
    read by `walk(cur, G, blocks)` to the end of the text; then every entry
    of the file in one pass (`_Blocks.matrices`).  An error in the
    structure comes after any error in an entry before it: the first error
    in reading order is reported.  Returns G, what `walk` returned and the
    blocks' matrices."""
    cur = _Cursor(text)
    G = build_group(cur.expect("group"), _parse_int(cur.expect("prime"), "prime", cur.last))
    blocks = _Blocks(cur, G.order)
    try:
        structure = walk(cur, G, blocks)
        if cur.peek() is not None:
            raise ParseError(f"trailing content: {cur.peek()!r}", cur.lineno())
    except PerfchainError:
        blocks.values()
        raise
    return G, structure, blocks.matrices(G)


def _headed_blocks(cur: _Cursor, keyword: str, what: str):
    """(q, line, its number) for each `keyword q` line at the cursor, the
    next read once the block after the last has been taken."""
    while (line := cur.peek()) is not None and line.startswith(keyword + " "):
        lineno = cur.lineno()
        cur.next()
        yield _parse_int(line[len(keyword) + 1:], what, lineno), line, lineno


def _expect_index(cur: _Cursor, keyword: str, n: int) -> None:
    got = _parse_int(cur.expect(keyword), f"{keyword} index", cur.last)
    if got != n:
        raise ParseError(f"expected {keyword} {n}, got {got}", cur.last)


def _walk_complex(cur: _Cursor, G: GroupTable, blocks: _Blocks):
    """The bottom, the ranks and {boundary index: block index} of the body
    of a complex; the ranks are checked as they are read."""
    bottom = _parse_int(cur.expect("bottom"), "bottom", cur.last)
    rank_line = cur.expect("ranks")
    ranks = [_parse_int(t, "rank", cur.last) for t in rank_line.split()]
    _check_degrees(bottom, ranks, cur.last)
    check_ranks(G, ranks)
    found = {}
    for q, line, lineno in _headed_blocks(cur, "boundary", "boundary degree"):
        i = q - bottom
        if not (1 <= i <= len(ranks) - 1):
            raise ParseError(f"boundary degree {q} outside rank range", lineno)
        if i in found:
            raise ParseError(f"repeated block {line!r}", lineno)
        found[i] = blocks.read(ranks[i - 1], ranks[i])
    return bottom, ranks, found


def _build_complex(G: GroupTable, body, mats: list[GroupRingMatrix]) -> ChainComplex:
    """The complex of a body from `_walk_complex`, checked for d o d = 0."""
    bottom, ranks, found = body
    boundaries = [mats[found[i]] if i in found
                  else GroupRingMatrix.zeros(G, ranks[i - 1], ranks[i])
                  for i in range(1, len(ranks))]
    return ChainComplex(G, bottom, ranks, boundaries).check_d_squared()


def read_complex(text: str) -> ChainComplex:
    """The complex of a text file, its text checked in whole (`_read_file`)
    before d o d = 0 is."""
    G, body, mats = _read_file(text, _walk_complex)
    return _build_complex(G, body, mats)


def write_tower(T: Tower) -> str:
    parts = [f"group {T.group.descriptor}", f"prime {T.group.prime_l}", f"levels {len(T.levels)}"]
    for n, L in enumerate(T.levels):
        parts.append(f"level {n}")
        parts += _complex_parts(L)
    for n, bond in enumerate(T.bonds):
        parts.append(f"bond {n}")
        for q in sorted(bond.components):
            m = bond.components[q]
            if not m.is_zero():
                parts += [f"degree {q}", m.data]
    return _join_lines(parts, T.group.prime_l)


def _rank_at(body, q: int) -> int:
    """The rank in degree q of a body from `_walk_complex`."""
    bottom, ranks, _ = body
    return ranks[q - bottom] if 0 <= q - bottom < len(ranks) else 0


def _walk_tower(cur: _Cursor, G: GroupTable, blocks: _Blocks):
    """The bodies of a tower's levels (`_walk_complex`) and, for each bond,
    {degree: block index}."""
    n_levels = _parse_int(cur.expect("levels"), "level count", cur.last)
    levels = []
    for n in range(n_levels):
        _expect_index(cur, "level", n)
        levels.append(_walk_complex(cur, G, blocks))
    bonds = []
    for n in range(n_levels - 1):
        _expect_index(cur, "bond", n)
        comps = {}
        for q, line, lineno in _headed_blocks(cur, "degree", "degree"):
            if q in comps:
                raise ParseError(f"repeated block {line!r}", lineno)
            comps[q] = blocks.read(_rank_at(levels[n], q), _rank_at(levels[n + 1], q))
        bonds.append(comps)
    return levels, bonds


def read_tower(text: str) -> Tower:
    """The tower of a text file, its text checked in whole (`_read_file`)
    before each level's d o d = 0 and then each bond's commuting."""
    G, (bodies, bonds), mats = _read_file(text, _walk_tower)
    levels = [_build_complex(G, body, mats) for body in bodies]
    maps = [ChainMap(levels[n + 1], levels[n], {q: mats[b] for q, b in comps.items()})
            .check_commutes() for n, comps in enumerate(bonds)]
    return Tower(levels, maps)


def write_int_matrix(M) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in M) + "\n"


def read_int_matrix(text: str) -> list[list[int]]:
    """Rows of integers `-?[0-9]+` in ASCII digits, as a coefficient is."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:    # int() refuses "" and more digits than Python's limit
            rows.append(list(map(int, line.split() if _INT_ROW.fullmatch(line) else [""])))
        except ValueError:
            raise ParseError(f"non-integer matrix entry in {line!r}", lineno)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged integer matrix")
    return rows


# ----------------------------------------------------------------------
# JSON encodings (used by certificates)


def _place_values(bound: int) -> np.ndarray:
    """The place values of the len(str(bound - 1)) decimal digits that
    every entry in [0, bound) is written with."""
    return 10 ** np.arange(len(str(bound - 1)) - 1, -1, -1, dtype=np.int64)


def field_to_json(a, bound: int) -> str:
    """The entries of a, each in [0, bound), in row-major order as one
    string of len(str(bound - 1)) decimal digits per entry."""
    place = _place_values(bound)
    digits = np.asarray(a, dtype=np.int64).reshape(-1, 1) // place % 10 + 48
    return digits.astype(np.uint8).tobytes().decode("ascii")


def complex_to_json(C: ChainComplex) -> dict:
    return {
        "group": C.group.descriptor,
        "prime": C.group.prime_l,
        "bottom": C.bottom,
        "ranks": list(C.ranks),
        "boundaries": [field_to_json(b.data, C.group.prime_l) for b in C.boundaries],
    }


def _json_header(obj) -> tuple[GroupTable, int]:
    """The group and the bottom degree of a complex in JSON."""
    desc, prime, bottom = (json_field(obj, key) for key in ("group", "prime", "bottom"))
    if not isinstance(desc, str) or type(prime) is not int or type(bottom) is not int:
        raise ParseError("complex needs a group descriptor, an integer prime and bottom")
    return build_group(desc, prime), bottom


def complex_from_json(obj: dict) -> ChainComplex:
    """The complex of `complex_to_json`; every field is checked (ParseError)
    before any array is built, and d o d = 0 once it is."""
    G, bottom = _json_header(obj)
    ranks, bnds = json_field(obj, "ranks"), json_field(obj, "boundaries")
    if not isinstance(ranks, list) or any(type(r) is not int or r < 0 for r in ranks):
        raise ParseError("ranks are not integers >= 0")
    _check_degrees(bottom, ranks)
    if not isinstance(bnds, list) or len(bnds) != max(len(ranks) - 1, 0):
        raise ParseError("complex needs one boundary per adjacent pair of ranks")
    boundaries = [GroupRingMatrix(G, json_field_array(b, f"boundary {i}", G.prime_l,
                                                      ranks[i], ranks[i + 1], G.order))
                  for i, b in enumerate(bnds)]
    return ChainComplex(G, bottom, ranks, boundaries).check_d_squared()


def chain_map_to_json(f: ChainMap) -> dict:
    l = f.source.group.prime_l
    return {str(q): field_to_json(m.data, l) for q, m in sorted(f.components.items())}


def _json_components(obj, shape_at) -> dict:
    """{degree: F_l array} from a chain map's JSON, each component checked
    against the shape `shape_at(q)`."""
    if not isinstance(obj, dict):
        raise ParseError("chain map is not an object")
    comps = {}
    for key, m in obj.items():
        if not re.fullmatch(r"(0|-?[1-9][0-9]{0,17})", key):
            raise ParseError(f"chain map key {key!r} is not a degree")
        q = int(key)
        comps[q] = json_field_array(m, f"map component {q}", *shape_at(q))
    return comps


def chain_map_from_json(obj: dict, source: ChainComplex, target: ChainComplex) -> ChainMap:
    """The map source -> target of `chain_map_to_json`, checked to commute
    with the differentials."""
    G = source.group
    comps = _json_components(
        obj, lambda q: (G.prime_l, target.rank_at(q), source.rank_at(q), G.order))
    comps = {q: GroupRingMatrix(G, m) for q, m in comps.items()}
    return ChainMap(source, target, comps).check_commutes()


def json_field(obj, key: str):
    """obj[key] from certificate JSON, else ParseError."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"certificate has no {key!r}")
    return obj[key]


def json_int_matrix(value, name: str, rows: int | None = None,
                    cols: int | None = None) -> list:
    """value as a list of integer rows of one length (rows x cols when
    given), else ParseError; checked before any arithmetic touches it."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ParseError(f"{name} is not a list of rows")
    if rows is not None and len(value) != rows:
        raise ParseError(f"{name} has {len(value)} rows, expected {rows}")
    if cols is None:
        cols = len(value[0]) if value else 0
    for row in value:      # a bool, a subclass of int, is refused with the rest
        if len(row) != cols or not {int}.issuperset(map(type, row)):
            raise ParseError(f"{name} is not an integer matrix with {cols} columns")
    return value


def json_field_array(value, name: str, l: int, *shape: int) -> np.ndarray:
    """The int64 array of the given shape that `field_to_json` wrote as
    value, with entries in [0, l), else ParseError.  The string's type,
    length and alphabet are checked before any array is built, so a
    declared shape cannot drive an allocation."""
    place = _place_values(l)
    if not (isinstance(value, str) and len(value) == math.prod(shape) * len(place)
            and value.isascii() and (value.isdigit() or not value)):
        raise ParseError(f"{name} is not a {' x '.join(map(str, shape))} array "
                         f"of {len(place)}-digit entries")
    digits = np.frombuffer(value.encode("ascii"), dtype=np.uint8).reshape(-1, len(place))
    arr = (digits - 48) @ place
    if (arr >= l).any():
        raise ParseError(f"{name} has an entry outside [0, {l})")
    return arr.reshape(shape)


def module_to_json(M: PiModule) -> dict:
    """M by its stored generators: a permutation by its row indices, with
    the bound dim, and any other action by its matrix."""
    return {"dim": M.dim, "gens": [
        {"perm": field_to_json(rho, M.dim)} if rho.ndim == 1
        else {"matrix": field_to_json(rho, M.group.prime_l)} for rho in M.gens]}


def module_complex_to_json(MC: ModuleComplex) -> dict:
    return {
        "group": MC.group.descriptor,
        "prime": MC.group.prime_l,
        "bottom": MC.bottom,
        "modules": [module_to_json(m) for m in MC.modules],
        "diffs": [field_to_json(d, MC.group.prime_l) for d in MC.diffs],
    }


def free_map_to_json(matrix: np.ndarray, G: GroupTable) -> str:
    """A map F_l[pi]^r -> M, a dim M x r|pi| matrix in the coordinates
    (t, h) -> t*order + h of `regular_module`, as its dim M x r generator
    columns: column t is the image of basis vector (t, identity).  The
    map is equivariant, so the image of (t, g) is rho(g) times column t,
    and `orbit_columns` rebuilds the whole matrix."""
    return field_to_json(matrix[:, G.identity::G.order], G.prime_l)


def module_map_to_json(f: ModuleComplexMap) -> dict:
    """A chain map out of an expanded free complex, each component by its
    generator columns (`free_map_to_json`)."""
    G = f.source.group
    return {str(q): free_map_to_json(m, G) for q, m in sorted(f.components.items())}


def module_map_from_json(obj: dict, source: ChainComplex,
                         target: ModuleComplex) -> ModuleComplexMap:
    """The map `source.expanded()` -> target of `module_map_to_json`.  The
    component in degree q must be target.dim_at(q) x source.rank_at(q),
    checked for every degree before any arithmetic (ParseError); each is
    then the orbit of its columns, equivariant by construction, and the
    map must commute with the differentials."""
    gens = _json_components(
        obj, lambda q: (source.group.prime_l, target.dim_at(q), source.rank_at(q)))
    comps = {q: orbit_columns(target.module_at(q), V) for q, V in gens.items()}
    return ModuleComplexMap(source.expanded(), target, comps).check_commutes()
