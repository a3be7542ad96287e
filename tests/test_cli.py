"""CLI subcommands: outputs, exit codes, certificates, determinism."""

import concurrent.futures
import contextlib
import copy
import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfchain.cli import main
from perfchain import (
    ChainComplex,
    ChainMap,
    GroupRingMatrix,
    PiModule,
    Tower,
    build_group,
    chains_of_cover,
    identity_chain_map,
    lens_complex,
    norm_element,
)
from perfchain.serialize import write_complex, write_tower

from conftest import (
    SMALL_GROUPS,
    cert_as_v1,
    conjugate_complex,
    heisenberg_27,
    pad_with_identity_cones,
    random_minimal_complex,
    random_stabilizing_tower,
)


@pytest.fixture
def lens_path(tmp_path):
    path = tmp_path / "lens.cplx"
    path.write_text(write_complex(chains_of_cover(lens_complex(2, 1, 2))))
    return str(path)


@pytest.fixture
def norm_tower_path(tmp_path):
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    N = GroupRingMatrix.from_entries(G, [[norm_element(G)]])
    T = Tower([L] * 4, [ChainMap(L, L, {0: N})] + [identity_chain_map(L)] * 2)
    path = tmp_path / "norm.twr"
    path.write_text(write_tower(T))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_perfect_subcommand(capsys, lens_path):
    code, out, err = run(capsys, "perfect", lens_path)
    assert code == 0
    assert out == "perfect; euler_class=1; replacement ranks [1, 1, 1]\n"


def test_homology_subcommand(capsys, lens_path):
    code, out, _ = run(capsys, "homology", lens_path)
    assert code == 0
    assert out == "H_0: dim=1\nH_1: dim=0\nH_2: dim=1\n"
    code, out, _ = run(capsys, "homology", lens_path, "--degree", "2")
    assert out == "H_2: dim=1\n"


def test_minimalize_subcommand(capsys, lens_path, tmp_path):
    out_path = tmp_path / "min.cplx"
    code, out, _ = run(capsys, "minimalize", lens_path, "-o", str(out_path))
    assert code == 0
    assert out.startswith("minimal ranks [1, 1, 1]")
    assert out_path.read_text() == write_complex(
        chains_of_cover(lens_complex(2, 1, 2)))


def test_minimalize_json_bytes_pinned(capsys, tmp_path):
    """The minimal complex and witness of a scrambled Heis27 complex with
    four cancellations, pinned byte for byte through the certificate, in
    both certificate formats."""
    rng = random.Random(0)
    G = heisenberg_27()
    core = random_minimal_complex(G, rng)
    C = conjugate_complex(pad_with_identity_cones(core, rng, 3), rng)
    path = tmp_path / "heis27.cplx"
    path.write_text(write_complex(C))
    code, out, _ = run(capsys, "minimalize", str(path), "--json")
    assert code == 0
    assert (C.ranks, core.ranks) == ([2, 4, 4, 4, 2], [1, 2, 3, 2])
    line, cert = out.split("\n", 1)
    assert line == "minimal ranks [1, 2, 3, 2]; bottom 1"
    v1 = line + "\n" + cert_as_v1(json.loads(cert), G)
    assert hashlib.sha256(v1.encode()).hexdigest() == (
        "59247a7697fbe8d7166fcaaf04b61e8856fc94711666e690544ef04e1a7d1467")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d616eba9dd2abe72e7f032e0f3ab8b7f647fc82f77fb982ca4d5957289eb51b3")


def test_homology_of_a_free_complex_pinned_and_module_free(capsys, tmp_path, monkeypatch):
    """`homology` on a scrambled Heis27 complex prints the bytes pinned
    from the expanded module complex, and builds no PiModule."""
    rng = random.Random(5)
    G = heisenberg_27()
    C = conjugate_complex(pad_with_identity_cones(random_minimal_complex(G, rng), rng, 3),
                          rng)
    path = tmp_path / "heis27.cplx"
    path.write_text(write_complex(C))

    def refuse(*args, **kwargs):
        raise AssertionError("a PiModule was built")

    monkeypatch.setattr(PiModule, "__init__", refuse)
    code, out, _ = run(capsys, "homology", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "511359be52d605bbb6f5fab7fbdef62b8f83bf53a92c95892205c06918f37c7e")


def test_tower_certificate_bytes_pinned(capsys, tmp_path):
    """Tower certificates over C4^3 embed modules (the limit's modules, the
    obstruction) by their generator matrices; pinned byte for byte, and
    through the per-element actions of the v1 format."""
    G = build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)
    stable, core = random_stabilizing_tower(G, random.Random(1), n_levels=3)
    L = ChainComplex(G, 0, [1], [])
    N = GroupRingMatrix.from_entries(G, [[norm_element(G)]])
    norm = Tower([L] * 3, [ChainMap(L, L, {0: N}), identity_chain_map(L)])
    expected = {
        "stable": (0, "495785b6c6d2960b537248613e1ea81e8fd1178bd288d0b7b0f61782eab6b296",
                   "3aa4f828ea2cea0ecc68c0eabe86f6bdcc8c384a79dadf97f567ff147d1c3c3f"),
        "norm": (1, "3074a237b92d45b4488581d477e81e2248134e7c17cfb44a08a42bb56c8ef897",
                 "871cbe46400ac6442fabc33507bd116d5b4429bf2c2b92cac2ebbc73a51690d5"),
    }
    assert (stable.levels[0].ranks, core.ranks) == ([2, 3], [1])
    for name, T in (("stable", stable), ("norm", norm)):
        path = tmp_path / f"{name}.twr"
        path.write_text(write_tower(T))
        cert_path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "tower-perfect", str(path), "--horizon", "2",
                         "--cert", str(cert_path))
        text = cert_path.read_text()
        v1 = cert_as_v1(json.loads(text), G)
        digests = (hashlib.sha256(t.encode()).hexdigest() for t in (v1, text))
        assert (code, *digests) == expected[name], name


def test_wall_subcommand(capsys, lens_path):
    code, out, _ = run(capsys, "wall", lens_path)
    assert code == 0 and out == "k0_class=1; reduced_class=0\n"


def test_snf_subcommand(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 4\n6 8\n")
    code, out, _ = run(capsys, "snf", str(path))
    assert code == 0 and out == "invariant factors: 2 4\n"


def test_complete_subcommand(capsys):
    code, out, _ = run(capsys, "complete", "--group", "Z/6", "--l", "3")
    assert code == 0 and out == "Z/3\n"
    code, out, _ = run(capsys, "complete", "--group", "Z^2+Z/12", "--l", "2")
    assert code == 0 and out == "Z_2^2 + Z/4\n"


def test_complete_from_presentation(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("2 0\n0 6\n")  # Z/2 + Z/6
    code, out, _ = run(capsys, "complete", "--presentation", str(path), "--l", "2")
    assert code == 0 and out == "Z/2 + Z/2\n"


def test_lens_subcommand(capsys, tmp_path):
    out_path = tmp_path / "lens.cplx"
    code, _, _ = run(capsys, "lens", "3", "1", "2", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == write_complex(chains_of_cover(lens_complex(3, 1, 2)))


def test_tower_subcommands(capsys, norm_tower_path):
    code, out, _ = run(capsys, "tower-limit", norm_tower_path, "--horizon", "2")
    assert code == 0
    assert out.splitlines()[0] == "limit dims [1]; bottom 0"
    code, out, _ = run(capsys, "tower-perfect", norm_tower_path, "--horizon", "2")
    assert code == 1  # mathematically negative verdict
    assert out.startswith("not perfect; obstruction dim=1")


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    path = tmp_path / "bad.cplx"
    path.write_text("group cyclic:6\nprime 2\nbottom 0\nranks 1\n")
    code, _, err = run(capsys, "perfect", str(path))
    assert code == 2
    assert "error[E_NOT_L_GROUP]" in err
    code, _, err = run(capsys, "homology", str(tmp_path / "missing.cplx"))
    assert code == 2


def test_certificates_verify(capsys, lens_path, norm_tower_path, tmp_path):
    cert_path = tmp_path / "c.json"
    snf_path = tmp_path / "m.txt"
    snf_path.write_text("2 4\n6 8\n")
    for argv in (
        ["perfect", lens_path, "--cert", str(cert_path)],
        ["minimalize", lens_path, "--cert", str(cert_path)],
        ["tower-limit", norm_tower_path, "--horizon", "2", "--cert", str(cert_path)],
        ["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(cert_path)],
        ["snf", str(snf_path), "--cert", str(cert_path)],
        ["complete", "--group", "Z/6", "--l", "3", "--cert", str(cert_path)],
    ):
        code = main(argv)
        assert code in (0, 1)
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 0, out
        assert out.startswith("certificate valid")


def test_tampered_certificate_rejected(capsys, lens_path, tmp_path):
    cert_path = tmp_path / "c.json"
    main(["perfect", lens_path, "--cert", str(cert_path)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["verdict"]["euler_class"] = 7
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert "INVALID" in out


def test_deterministic_output(capsys, lens_path):
    a = run(capsys, "perfect", lens_path, "--json")
    b = run(capsys, "perfect", lens_path, "--json")
    assert a == b


def test_batch_perfect_ordering(capsys, tmp_path):
    paths = []
    for i, (l, k, n) in enumerate([(2, 1, 2), (3, 1, 1), (2, 2, 4)]):
        p = tmp_path / f"c{i}.cplx"
        p.write_text(write_complex(chains_of_cover(lens_complex(l, k, n))))
        paths.append(str(p))
    code, out, _ = run(capsys, "perfect", *paths)
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(paths[0]) and lines[2].startswith(paths[2])
    code2, out2, _ = run(capsys, "perfect", *paths, "--jobs", "2")
    assert out2 == out and code2 == code


def test_jobs_are_capped_at_the_number_of_inputs(capsys, lens_path, monkeypatch):
    """`--jobs N` asks for at most one worker per input.  The pool here
    records its size and maps serially, so no process is started."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    expected = run(capsys, "perfect", lens_path, lens_path)
    assert run(capsys, "perfect", lens_path, lens_path, "--jobs", "100000") == expected
    assert asked == [2]


def test_tower_certificate_bound_to_its_tower(capsys, norm_tower_path, tmp_path):
    """The perfect limit and witness of another tower, put under the norm
    tower's input and digest, must not verify."""
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    const_path = tmp_path / "const.twr"
    const_path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
    certs = {}
    for name, path in (("const", str(const_path)), ("norm", norm_tower_path)):
        certs[name] = tmp_path / f"{name}.json"
        main(["tower-perfect", path, "--horizon", "2", "--cert", str(certs[name])])
    capsys.readouterr()
    forged = json.loads(certs["const"].read_text())
    norm = json.loads(certs["norm"].read_text())
    assert forged["verdict"]["perfect"] and not norm["verdict"]["perfect"]
    forged["input"], forged["digest"] = norm["input"], norm["digest"]
    certs["const"].write_text(json.dumps(forged))
    code, out, _ = run(capsys, "verify", str(certs["const"]))
    assert code == 1
    assert out.startswith("certificate INVALID")


def test_negative_verdict_on_free_complex_rejected(capsys, norm_tower_path, tmp_path):
    """A bounded complex of free modules is perfect, whatever non-free
    obstruction a certificate attaches to it."""
    free_path = tmp_path / "free.cplx"
    free_path.write_text("group cyclic:2\nprime 2\nbottom 0\nranks 1\n")
    cert_path = tmp_path / "free.json"
    norm_cert = tmp_path / "norm.json"
    main(["perfect", str(free_path), "--cert", str(cert_path)])
    main(["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(norm_cert)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["verdict"] = {"perfect": False}
    cert["witness"] = json.loads(norm_cert.read_text())["witness"]
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert out.startswith("certificate INVALID")


def test_forged_negative_tower_verdict_rejected(capsys, norm_tower_path, tmp_path):
    """The certificate of a constant (perfect) C2 tower, turned negative
    with the norm tower's non-free obstruction pasted in, must not verify:
    the verdict and the obstruction belong to the recomputed limit."""
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    const_path = tmp_path / "const.twr"
    const_path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
    cert_path, norm_cert = tmp_path / "const.json", tmp_path / "norm.json"
    main(["tower-perfect", str(const_path), "--horizon", "2", "--cert", str(cert_path)])
    main(["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(norm_cert)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["verdict"] = {"perfect": False}
    cert["witness"] = json.loads(norm_cert.read_text())["witness"]
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert out.startswith("certificate INVALID")
    code, out, _ = run(capsys, "verify", str(norm_cert))
    assert code == 0


def test_snf_certificate_of_dense_60x60_matrix(capsys, tmp_path):
    """U and V stay small enough to print: the certificate of a dense
    60 x 60 matrix is written and verifies."""
    rng = random.Random(60)
    path = tmp_path / "m60.txt"
    path.write_text("".join(" ".join(str(rng.randint(-9, 9)) for _ in range(60)) + "\n"
                            for _ in range(60)))
    cert_path = tmp_path / "m60.json"
    code, out, err = run(capsys, "snf", str(path), "--cert", str(cert_path))
    assert code == 0 and out.startswith("invariant factors: 1 1 "), err
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and out.startswith("certificate valid")


def test_answer_too_long_to_print_is_a_limit_error(capsys, tmp_path):
    """diag(a, b) with coprime 3000-digit a, b has the 6000-digit factor ab;
    nothing is printed, not even the part of the answer that fits."""
    path = tmp_path / "big.txt"
    path.write_text(f"{10**2999 + 7} 0\n0 {10**2999 + 9}\n")
    for argv in (["snf", str(path)],
                 ["complete", "--presentation", str(path), "--l", "2", "--json"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error[E_LIMIT]")


@pytest.mark.parametrize("command", [["snf"], ["complete", "--l", "2", "--presentation"]])
@pytest.mark.parametrize("key, value", [("U", None), ("U", [[1, 0], [0]]),
                                        ("V", [[1, "0"], [0, 1]]), ("diag", [2])])
def test_malformed_smith_witness_is_a_parse_error(capsys, tmp_path, command, key, value):
    """A witness entry that is missing, ragged, not an integer or of the
    wrong length is rejected before any arithmetic, with a coded error."""
    path = tmp_path / "m.txt"
    path.write_text("2 4\n6 8\n")
    cert_path = tmp_path / "c.json"
    assert main([*command, str(path), "--cert", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    if value is None:
        del cert["witness"][key]
    else:
        cert["witness"][key] = value
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_PARSE]")


def test_completion_certificate_with_prime_one_is_a_parse_error(capsys, tmp_path):
    """Counting factors of 1 in the Smith data never ends; the checker
    refuses a prime below 2 first."""
    path = tmp_path / "m.txt"
    path.write_text("2 4\n6 8\n")
    cert_path = tmp_path / "c.json"
    main(["complete", "--presentation", str(path), "--l", "2", "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["input"]["prime"] = 1
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and err.startswith("error[E_PARSE]")


def test_completion_certificate_bound_to_its_input(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 4\n6 8\n")
    cert_path = tmp_path / "c.json"
    main(["complete", "--presentation", str(path), "--l", "2", "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["digest"] = "0" * 64
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 1 and "INVALID" in out


@pytest.mark.parametrize("command, keys, value", [
    ("tower-perfect", ("limit",), None),
    ("tower-limit", ("limit",), None),
    ("tower-limit", ("input", "tower"), None),
    ("tower-perfect", ("witness", "cover"), None),
    ("tower-perfect", ("witness", "kernel_vector"), [1, "0"]),
    ("tower-perfect", ("witness", "kernel_vector"), [1, 0, 0]),
    ("tower-perfect", ("witness", "cover"), [[1, 10**30]]),
    ("tower-perfect", ("input", "horizon"), "2"),
    ("tower-perfect", ("witness", "obstruction", "dim"), -1),
    ("tower-perfect", ("witness", "obstruction", "gens"), []),
    ("tower-perfect", ("witness", "obstruction", "gens"), [[[1, 0]]]),
    ("tower-perfect", ("witness", "obstruction", "gens"), [[[2]]]),
    ("perfect", ("witness", "map"), None),
    ("minimalize", ("witness", "minimal"), None),
    ("minimalize", ("witness", "map"), None),
    ("perfect", ("input",), 5),
    ("perfect", ("input", "ranks"), [1, "a"]),
    ("perfect", ("witness", "map"), {"x": [[[1, 0]]]}),
    ("perfect", ("verdict",), []),
    ("perfect", ("verdict", "euler_class"), "1"),
    ("perfect", ("input", "group"), 7),
    ("perfect", ("input", "boundaries", 0, 0, 0, 0), 10**30),
    ("perfect", ("witness", "replacement", "ranks"), [10**9, 10**9]),
    ("perfect", ("witness", "replacement", "ranks"), [10**9] * 3),
    ("minimalize", ("witness", "map", "0"), [[[1, 0, 0]]]),
])
def test_malformed_tower_certificate_is_a_parse_error(capsys, norm_tower_path, lens_path,
                                                      tmp_path, command, keys, value):
    """A certificate (of a tower, or of the C2 lens complex) with a key
    missing (value None) or a malformed entry is rejected with a coded
    error, not a traceback."""
    cert_path = tmp_path / "c.json"
    if command.startswith("tower"):
        main([command, norm_tower_path, "--horizon", "2", "--cert", str(cert_path)])
    else:
        main([command, lens_path, "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    obj = cert
    for key in keys[:-1]:
        obj = obj[key]
    if value is None:
        del obj[keys[-1]]
    else:
        obj[keys[-1]] = value
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_PARSE]")


def test_v1_certificate_is_a_parse_error(capsys, norm_tower_path, tmp_path):
    """There is one certificate format; a v1 certificate names its format
    in a coded error."""
    cert_path = tmp_path / "c.json"
    main(["tower-perfect", norm_tower_path, "--horizon", "2", "--cert", str(cert_path)])
    v2 = json.loads(cert_path.read_text())
    assert v2["format"] == "perfchain-cert-v2"
    cert_path.write_text(cert_as_v1(v2, SMALL_GROUPS["C2"]))
    capsys.readouterr()
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_PARSE]") and "perfchain-cert-v1" in err


def test_obstruction_breaking_a_group_relation_is_rejected(capsys, tmp_path):
    """The obstruction of the C4 norm tower is the trivial line; with its
    generator flipped to 0, s^4 != 1, and the group table check refuses
    the module before it is compared with the limit's."""
    G = build_group("cyclic:4", 2)
    L = ChainComplex(G, 0, [1], [])
    N = GroupRingMatrix.from_entries(G, [[norm_element(G)]])
    path, cert_path = tmp_path / "norm4.twr", tmp_path / "norm4.json"
    path.write_text(write_tower(Tower([L] * 3, [ChainMap(L, L, {0: N}), identity_chain_map(L)])))
    main(["tower-perfect", str(path), "--horizon", "2", "--cert", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    assert cert["witness"]["obstruction"] == {"dim": 1, "gens": [[[1]]]}
    cert["witness"]["obstruction"]["gens"][0][0][0] ^= 1
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_DIM_MISMATCH]") and "homomorphism" in err


@pytest.mark.parametrize("group, ranks", [
    pytest.param("cyclic:2", "1000000000", id="rank"),
    pytest.param("cyclic:1073741824", "0", id="cyclic-order"),
    pytest.param("product:cyclic:256,cyclic:256", "0", id="product-order"),
])
def test_rank_past_the_free_dimension_bound_is_a_limit_error(capsys, tmp_path, group, ranks):
    """A rank needs no boundary data when its degree stands alone, so it
    is bounded before a free module of that rank is allocated; a group
    order past the bound is refused before its table is built."""
    path = tmp_path / "big.cplx"
    path.write_text(f"group {group}\nprime 2\nbottom 0\nranks {ranks}\n")
    code, out, err = run(capsys, "perfect", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_LIMIT]") and "Traceback" not in err


def test_module_dim_past_the_free_dimension_bound_is_a_limit_error(capsys, tmp_path):
    """Over the trivial group a module has no generator matrix to bound its
    dim, so a forged obstruction of dim 10^9 is refused before any
    matrix of that size is built."""
    L = ChainComplex(SMALL_GROUPS["C1"], 0, [1], [])
    path, cert_path = tmp_path / "const.twr", tmp_path / "const.json"
    path.write_text(write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)))
    main(["tower-perfect", str(path), "--horizon", "2", "--cert", str(cert_path)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["verdict"] = {"perfect": False}
    cert["witness"] = {"obstruction": {"dim": 10**9, "gens": []}}
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_LIMIT]") and "Traceback" not in err


def test_prime_past_the_int64_bound_is_a_limit_error(capsys, tmp_path):
    """At l = 4294967291, (l - 1)^2 + (l - 1)^2 wraps in int64."""
    path = tmp_path / "big.cplx"
    path.write_text("group cyclic:1\nprime 4294967291\nbottom 0\nranks 1 1\n"
                    "boundary 1\n[4294967290]\n")
    code, out, err = run(capsys, "perfect", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_LIMIT]")


def test_one_certificate_file_for_several_inputs_is_refused(capsys, lens_path, tmp_path):
    """Each input has its own certificate, so one --cert FILE for two
    inputs is a usage error before any work, and no file is written."""
    cert_path = tmp_path / "c.json"
    code, out, err = run(capsys, "perfect", lens_path, lens_path, "--cert", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error[E_USAGE]")
    assert not cert_path.exists()


_DELETE = object()


def _json_paths(obj, prefix=()):
    """The key path of every value inside a certificate."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def certificates_to_mutate(tmp_path_factory):
    """Perfectness, quasi-iso and tower-perfectness certificates, positive
    and negative, over C2."""
    d = tmp_path_factory.mktemp("certs")
    G = SMALL_GROUPS["C2"]
    L = ChainComplex(G, 0, [1], [])
    N = GroupRingMatrix.from_entries(G, [[norm_element(G)]])
    inputs = {
        "lens.cplx": write_complex(chains_of_cover(lens_complex(2, 1, 2))),
        "norm.twr": write_tower(Tower([L] * 4, [ChainMap(L, L, {0: N})]
                                      + [identity_chain_map(L)] * 2)),
        "const.twr": write_tower(Tower([L] * 3, [identity_chain_map(L)] * 2)),
    }
    for name, text in inputs.items():
        (d / name).write_text(text)
    certs = []
    for argv in (["perfect", "lens.cplx"], ["minimalize", "lens.cplx"],
                 ["tower-perfect", "norm.twr", "--horizon", "2"],
                 ["tower-perfect", "const.twr", "--horizon", "2"]):
        cert_path = d / "cert.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main([argv[0], str(d / argv[1]), *argv[2:], "--cert", str(cert_path)])
        certs.append(json.loads(cert_path.read_text()))
    return d, certs


_JUNK = st.one_of(st.just(_DELETE), st.none(), st.booleans(), st.integers(-3, 40),
                  st.sampled_from([10**30, -10**30, 2**63]), st.floats(allow_nan=False),
                  st.text(max_size=3), st.just({}),
                  st.lists(st.integers(-1, 3), max_size=3))


@pytest.mark.parametrize("index", range(4))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_certificate_never_crashes(certificates_to_mutate, index, data):
    """Up to three random edits of a certificate: verify ends with exit
    0, 1 or 2, a coded error on exit 2, and never an uncaught exception."""
    workdir, certs = certificates_to_mutate
    cert = copy.deepcopy(certs[index])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(cert))))
        obj = cert
        for key in path[:-1]:
            obj = obj[key]
        value = data.draw(_JUNK)
        if value is not _DELETE:
            obj[path[-1]] = value
        elif isinstance(obj, dict):
            del obj[path[-1]]
        else:
            obj.pop(path[-1])
    cert_path = workdir / "mutated.json"
    cert_path.write_text(json.dumps(cert))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(cert_path)])
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue().startswith("error[E_")
