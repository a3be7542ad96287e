"""Line-oriented text formats and canonical JSON encodings.

Text files are diff-able and hand-writable: headers (`group`, `prime`,
`bottom`, `ranks`), then one boundary matrix per degree, with group-ring
entries as comma-separated coefficient lists in brackets.  Writers are
canonical: parsing then re-writing any value reproduces the bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .chains import ChainComplex, ChainMap, ModuleComplex, ModuleComplexMap
from .errors import ParseError
from .groups import GroupRingMatrix, GroupTable, build_group
from .modules import PiModule
from .towers import Tower


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _format_entry(coeffs) -> str:
    return "[" + ",".join(str(int(c)) for c in coeffs) + "]"


def _format_matrix_lines(m: GroupRingMatrix) -> list[str]:
    lines = []
    for i in range(m.rows):
        lines.append(" ".join(_format_entry(m.data[i, j]) for j in range(m.cols)))
    return lines


def _complex_lines(C: ChainComplex) -> list[str]:
    """The bottom, ranks and boundary lines of C, shared by complexes and
    tower levels."""
    lines = [f"bottom {C.bottom}", ("ranks " + " ".join(str(r) for r in C.ranks)).rstrip()]
    for i, b in enumerate(C.boundaries):
        if b.rows == 0 or b.cols == 0:
            continue
        lines.append(f"boundary {C.bottom + i + 1}")
        lines.extend(_format_matrix_lines(b))
    return lines


def write_complex(C: ChainComplex) -> str:
    lines = [f"group {C.group.descriptor}", f"prime {C.group.prime_l}", *_complex_lines(C)]
    return "\n".join(lines) + "\n"


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

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
        return line

    def lineno(self) -> int:
        return min(self.pos + 1, len(self.lines) + 1)

    def expect(self, keyword: str) -> str:
        lineno = self.lineno()
        line = self.next()
        if not line.startswith(keyword + " ") and line != keyword:
            raise ParseError(f"expected {keyword!r}, got {line!r}", lineno)
        return line[len(keyword):].strip()


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}", lineno)


def _parse_entry(tok: str, order: int, lineno: int) -> list[int]:
    if not (tok.startswith("[") and tok.endswith("]")):
        raise ParseError(f"entry {tok!r} is not bracketed", lineno)
    body = tok[1:-1]
    parts = body.split(",") if body else []
    if len(parts) != order:
        raise ParseError(
            f"entry has {len(parts)} coefficients, group order is {order}", lineno
        )
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"non-integer coefficient in {tok!r}", lineno)


def _parse_matrix(cur: _Cursor, G: GroupTable, rows: int, cols: int) -> GroupRingMatrix:
    data = np.zeros((rows, cols, G.order), dtype=np.int64)
    for i in range(rows):
        lineno = cur.lineno()
        toks = cur.next().split()
        if len(toks) != cols:
            raise ParseError(f"matrix row has {len(toks)} entries, expected {cols}", lineno)
        for j, tok in enumerate(toks):
            data[i, j] = _parse_entry(tok, G.order, lineno)
    return GroupRingMatrix(G, data)


def _parse_header(cur: _Cursor):
    desc = cur.expect("group")
    prime = _parse_int(cur.expect("prime"), "prime", cur.lineno())
    G = build_group(desc, prime)
    return G


def _parse_complex_body(cur: _Cursor, G: GroupTable) -> ChainComplex:
    bottom = _parse_int(cur.expect("bottom"), "bottom", cur.lineno())
    rank_line = cur.expect("ranks")
    ranks = [_parse_int(t, "rank", cur.lineno()) for t in rank_line.split()]
    boundaries = {}
    while True:
        line = cur.peek()
        if line is None or not line.startswith("boundary "):
            break
        cur.next()
        q = _parse_int(line[len("boundary "):], "boundary degree", cur.lineno())
        i = q - bottom
        if not (1 <= i <= len(ranks) - 1):
            raise ParseError(f"boundary degree {q} outside rank range", cur.lineno())
        boundaries[i] = _parse_matrix(cur, G, ranks[i - 1], ranks[i])
    mats = []
    for i in range(1, len(ranks)):
        if i in boundaries:
            mats.append(boundaries[i])
        else:
            mats.append(GroupRingMatrix.zeros(G, ranks[i - 1], ranks[i]))
    return ChainComplex(G, bottom, ranks, mats)


def read_complex(text: str) -> ChainComplex:
    cur = _Cursor(text)
    G = _parse_header(cur)
    C = _parse_complex_body(cur, G)
    if cur.peek() is not None:
        raise ParseError(f"trailing content: {cur.peek()!r}", cur.lineno())
    return C


def write_tower(T: Tower) -> str:
    lines = [
        f"group {T.group.descriptor}",
        f"prime {T.group.prime_l}",
        f"levels {len(T.levels)}",
    ]
    for n, L in enumerate(T.levels):
        lines.append(f"level {n}")
        lines.extend(_complex_lines(L))
    for n, bond in enumerate(T.bonds):
        lines.append(f"bond {n}")
        for q in sorted(bond.components):
            m = bond.components[q]
            if m.is_zero():
                continue
            lines.append(f"degree {q}")
            lines.extend(_format_matrix_lines(m))
    return "\n".join(lines) + "\n"


def read_tower(text: str) -> Tower:
    cur = _Cursor(text)
    G = _parse_header(cur)
    n_levels = _parse_int(cur.expect("levels"), "level count", cur.lineno())
    levels = []
    for n in range(n_levels):
        got = _parse_int(cur.expect("level"), "level index", cur.lineno())
        if got != n:
            raise ParseError(f"expected level {n}, got {got}", cur.lineno())
        levels.append(_parse_complex_body(cur, G))
    bonds = []
    for n in range(n_levels - 1):
        got = _parse_int(cur.expect("bond"), "bond index", cur.lineno())
        if got != n:
            raise ParseError(f"expected bond {n}, got {got}", cur.lineno())
        src, tgt = levels[n + 1], levels[n]
        comps = {}
        while True:
            line = cur.peek()
            if line is None or not line.startswith("degree "):
                break
            cur.next()
            q = _parse_int(line[len("degree "):], "degree", cur.lineno())
            comps[q] = _parse_matrix(cur, G, tgt.rank_at(q), src.rank_at(q))
        bonds.append(ChainMap(src, tgt, comps))
    if cur.peek() is not None:
        raise ParseError(f"trailing content: {cur.peek()!r}", cur.lineno())
    return Tower(levels, bonds)


def write_int_matrix(M) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in M) + "\n"


def read_int_matrix(text: str) -> list[list[int]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(t) for t in line.split()])
        except ValueError:
            raise ParseError(f"non-integer matrix entry in {line!r}", lineno)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged integer matrix")
    return rows


# ----------------------------------------------------------------------
# JSON encodings (used by certificates)


def grm_to_json(m: GroupRingMatrix) -> list:
    return m.data.tolist()


def complex_to_json(C: ChainComplex) -> dict:
    return {
        "group": C.group.descriptor,
        "prime": C.group.prime_l,
        "bottom": C.bottom,
        "ranks": list(C.ranks),
        "boundaries": [grm_to_json(b) for b in C.boundaries],
    }


def complex_from_json(obj: dict) -> ChainComplex:
    G = build_group(obj["group"], obj["prime"])
    ranks = obj["ranks"]
    boundaries = []
    for i, b in enumerate(obj["boundaries"]):
        # zero-size matrices flatten in JSON; restore the declared shape
        arr = np.asarray(b, dtype=np.int64).reshape(ranks[i], ranks[i + 1], G.order)
        boundaries.append(GroupRingMatrix(G, arr))
    return ChainComplex(G, obj["bottom"], ranks, boundaries)


def chain_map_to_json(f: ChainMap) -> dict:
    return {str(q): grm_to_json(m) for q, m in sorted(f.components.items())}


def chain_map_from_json(obj: dict, source: ChainComplex, target: ChainComplex) -> ChainMap:
    comps = {int(q): GroupRingMatrix(source.group, np.asarray(m, dtype=np.int64))
             for q, m in obj.items()}
    return ChainMap(source, target, comps)


def module_to_json(M: PiModule) -> dict:
    return {"dim": M.dim, "action": [a.tolist() for a in M.action]}


def module_from_json(obj: dict, G: GroupTable) -> PiModule:
    d = obj["dim"]
    action = [np.asarray(a, dtype=np.int64).reshape(d, d) for a in obj["action"]]
    return PiModule(G, d, action)


def module_complex_to_json(MC: ModuleComplex) -> dict:
    return {
        "group": MC.group.descriptor,
        "prime": MC.group.prime_l,
        "bottom": MC.bottom,
        "modules": [module_to_json(m) for m in MC.modules],
        "diffs": [d.tolist() for d in MC.diffs],
    }


def module_complex_from_json(obj: dict) -> ModuleComplex:
    G = build_group(obj["group"], obj["prime"])
    mods = [module_from_json(m, G) for m in obj["modules"]]
    diffs = [np.asarray(d, dtype=np.int64).reshape(mods[i].dim, mods[i + 1].dim)
             for i, d in enumerate(obj["diffs"])]
    return ModuleComplex(G, obj["bottom"], mods, diffs)


def module_map_to_json(f: ModuleComplexMap) -> dict:
    return {str(q): m.tolist() for q, m in sorted(f.components.items())}


def module_map_from_json(obj: dict, source: ModuleComplex,
                         target: ModuleComplex) -> ModuleComplexMap:
    comps = {}
    for q, m in obj.items():
        q = int(q)
        comps[q] = np.asarray(m, dtype=np.int64).reshape(target.dim_at(q),
                                                         source.dim_at(q))
    return ModuleComplexMap(source, target, comps)
