"""Command-line surface.

Exit codes: 0 on success (or a positive predicate verdict), 1 when a
predicate subcommand reaches a mathematically negative verdict, 2 on any
input or usage error, and on running out of memory (E_LIMIT).  Output is
deterministic: two runs on the same input produce byte-identical reports.

Group descriptors: ``cyclic:N``, ``product:cyclic:N,cyclic:M[,...]``, or
``table:{order:N;identity:I;mult:r0|r1|...}`` (rows comma-separated).
In a group descriptor an order, identity or table entry is ``[0-9]+``,
and in a complex or tower file a header integer or coefficient is
``-?[0-9]+``, in ASCII digits: a plus sign, an underscore or another
script's digits is E_PARSE.
Abelian group descriptors for ``complete``: ``Z``, ``Z^2``, ``Z/6``,
joined with ``+``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys

from . import abelian, certificates, serialize
from .cellular import chains_of_cover, lens_complex
from .chains import minimalize
from .errors import LimitError, ParseError, PerfchainError, UsageError
from .finiteness import decide_perfect, wall_class
from .modules import minimal_generators
from .towers import limit_complex, pro_decide_perfect

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e}") from None


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _answer(args, out: str, certificate) -> None:
    """Write the certificate file, then `out` and, with --json, the
    certificate to stdout: a certificate that cannot be written is E_IO
    before anything is printed.  `certificate` builds the certificate and
    is called only when --cert or --json asks for it."""
    cert_path = getattr(args, "cert", None)
    text = None
    if cert_path or getattr(args, "json", False):
        text = certificates.dumps(certificate())
    if cert_path:
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(out)
    if getattr(args, "json", False):
        sys.stdout.write(text)


@contextlib.contextmanager
def _printable():
    """Format integer answers and their certificates inside this block;
    `_answer` has both as text before it prints anything.  str() of an
    integer past Python's digit limit raises ValueError, which becomes an
    E_LIMIT error with nothing printed."""
    try:
        yield
    except ValueError as e:
        raise LimitError(f"answer too long to print: {e}") from None


def _verdict_line(verdict) -> str:
    if verdict.perfect:
        return (f"perfect; euler_class={verdict.euler_class}; "
                f"replacement ranks {verdict.replacement.ranks}")
    return (f"not perfect; obstruction dim={verdict.top_obstruction.dim}; "
            f"minimal generators={minimal_generators(verdict.top_obstruction)}")


def _perfect_one(path: str):
    C = serialize.read_complex(_read(path))
    verdict = decide_perfect(C)
    return C, verdict, _verdict_line(verdict)


def cmd_perfect(args) -> int:
    paths = args.files
    if args.cert and len(paths) > 1:
        raise UsageError("--cert FILE takes one input; each input has its own certificate")
    if args.jobs > 1 and len(paths) > 1:
        import concurrent.futures   # only here: it pulls in logging and threading
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(args.jobs, len(paths))) as pool:
            results = list(pool.map(_perfect_one, paths))
    else:
        results = [_perfect_one(p) for p in paths]
    for path, (C, verdict, line) in zip(paths, results):
        prefix = f"{path}: " if len(paths) > 1 else ""
        _answer(args, prefix + line + "\n",
                functools.partial(certificates.perfectness_certificate, C, verdict))
    return EXIT_OK


def cmd_homology(args) -> int:
    C = serialize.read_complex(_read(args.file))
    degrees = [args.degree] if args.degree is not None else list(
        range(C.bottom, C.top + 1)) or [0]
    for q in degrees:
        print(f"H_{q}: dim={C.homology_dim(q)}")
    return EXIT_OK


def cmd_minimalize(args) -> int:
    C = serialize.read_complex(_read(args.file))
    minimal, witness = minimalize(C)
    out = f"minimal ranks {minimal.ranks}; bottom {minimal.bottom}\n"
    if args.output == "-":
        out += serialize.write_complex(minimal)
    elif args.output:
        _write_output(args.output, serialize.write_complex(minimal))
    _answer(args, out, functools.partial(certificates.quasi_iso_certificate, C, minimal, witness))
    return EXIT_OK


def cmd_wall(args) -> int:
    C = serialize.read_complex(_read(args.file))
    k0, reduced = wall_class(C)
    print(f"k0_class={k0}; reduced_class={reduced}")
    return EXIT_OK


def cmd_tower_limit(args) -> int:
    T = serialize.read_tower(_read(args.file))
    limit = limit_complex(T, args.horizon)
    dims = [m.dim for m in limit.modules]
    out = f"limit dims {dims}; bottom {limit.bottom}\n" + "".join(
        f"H_{q}: dim={limit.homology_dim(q)}\n"
        for q in range(limit.bottom, limit.bottom + len(limit.modules)))
    _answer(args, out, functools.partial(certificates.limit_certificate, T, args.horizon, limit))
    return EXIT_OK


def cmd_tower_perfect(args) -> int:
    T = serialize.read_tower(_read(args.file))
    verdict = pro_decide_perfect(T, args.horizon)
    _answer(args, _verdict_line(verdict) + "\n", functools.partial(
        certificates.tower_perfectness_certificate, T, args.horizon, verdict))
    return EXIT_OK if verdict.perfect else EXIT_NEGATIVE


_ABELIAN_TERM = re.compile(r"^(Z(\^([0-9]+))?|Z/([0-9]+))$")


def parse_abelian_descriptor(text: str) -> abelian.FGAbelian:
    """`Z`, `Z^2`, `Z/6`, combined with `+`."""
    free = 0
    torsion = []
    for term in text.replace(" ", "").split("+"):
        m = _ABELIAN_TERM.match(term)
        if not m:
            raise ParseError(f"bad abelian group term {term!r}")
        if m.group(4):
            torsion.append(int(m.group(4)))
        else:
            free += int(m.group(3)) if m.group(3) else 1
    return abelian.FGAbelian.from_invariants(free, torsion)


def cmd_complete(args) -> int:
    if args.presentation:
        M = serialize.read_int_matrix(_read(args.presentation))
        A = abelian.FGAbelian(len(M), M)
    elif args.group:
        A = parse_abelian_descriptor(args.group)
    else:
        raise ParseError("complete needs --group or --presentation")
    result = abelian.l_complete(A, args.l)
    with _printable():
        _answer(args, f"{result}\n",
                functools.partial(certificates.completion_certificate, A, args.l, result))
    return EXIT_OK


def cmd_snf(args) -> int:
    M = serialize.read_int_matrix(_read(args.file))
    result = abelian.smith_normal_form(M)
    with _printable():
        _answer(args, "invariant factors: " + " ".join(str(d) for d in result.diag) + "\n",
                functools.partial(certificates.snf_certificate, M, result))
    return EXIT_OK


def cmd_lens(args) -> int:
    X = lens_complex(args.l, args.k, args.n)
    C = chains_of_cover(X)
    _write_output(args.output, serialize.write_complex(C))
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = certificates.loads(_read(args.file))
    try:
        certificates.verify(cert)
    except certificates.VerificationFailure as e:
        print(f"certificate INVALID: {e}")
        return EXIT_NEGATIVE
    print(f"certificate valid (kind={cert['kind']})")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every call of `main` shares it."""
    parser = argparse.ArgumentParser(
        prog="perfchain",
        description="Perfectness of chain complexes over F_l[pi], tower limits, "
                    "Smith normal form and l-completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cert_flags(p):
        p.add_argument("--json", action="store_true",
                       help="print the machine-readable certificate to stdout")
        p.add_argument("--cert", metavar="FILE", help="write the certificate to FILE")

    p = sub.add_parser("homology", help="homology dimensions of a complex")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("minimalize", help="cancel unit boundary entries")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the minimal complex to FILE")
    add_cert_flags(p)
    p.set_defaults(func=cmd_minimalize)

    p = sub.add_parser("perfect",
                       help="decide perfectness; a bounded free complex always is (exit 0)")
    p.add_argument("files", nargs="+")
    p.add_argument("--jobs", type=int, default=1,
                   help="evaluate batch inputs concurrently; output stays ordered")
    add_cert_flags(p)
    p.set_defaults(func=cmd_perfect)

    p = sub.add_parser("wall", help="K_0 class and reduced class of a perfect complex")
    p.add_argument("file")
    p.set_defaults(func=cmd_wall)

    p = sub.add_parser("tower-limit", help="stable-image limit of a tower")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, required=True)
    add_cert_flags(p)
    p.set_defaults(func=cmd_tower_limit)

    p = sub.add_parser("tower-perfect", help="perfectness of the stable image at level 0, the image of the limit there")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, required=True)
    add_cert_flags(p)
    p.set_defaults(func=cmd_tower_perfect)

    p = sub.add_parser("complete", help="l-completion of a f.g. abelian group")
    p.add_argument("--group", help="descriptor such as Z^2+Z/12")
    p.add_argument("--presentation", metavar="FILE",
                   help="integer presentation matrix (relations as columns)")
    p.add_argument("--l", type=int, required=True)
    add_cert_flags(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("file")
    add_cert_flags(p)
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("lens", help="write a lens fixture complex")
    p.add_argument("l", type=int)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", metavar="FILE", default=None)
    p.set_defaults(func=cmd_lens)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PerfchainError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"error[E_IO]: {e}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as e:
        # the last resort of a job too large for the memory it was given
        print(f"error[{LimitError.code}]: out of memory" + (f": {e}" if str(e) else ""),
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
