"""CLI subcommands: outputs, exit codes, certificates, determinism."""

import hashlib
import json
import random

import pytest

from perfchain.cli import main
from perfchain import (
    ChainComplex,
    ChainMap,
    GroupRingMatrix,
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
    four cancellations, pinned byte for byte through the certificate."""
    rng = random.Random(0)
    core = random_minimal_complex(heisenberg_27(), rng)
    C = conjugate_complex(pad_with_identity_cones(core, rng, 3), rng)
    path = tmp_path / "heis27.cplx"
    path.write_text(write_complex(C))
    code, out, _ = run(capsys, "minimalize", str(path), "--json")
    assert code == 0
    assert (C.ranks, core.ranks) == ([2, 4, 4, 4, 2], [1, 2, 3, 2])
    assert out.startswith("minimal ranks [1, 2, 3, 2]; bottom 1\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "59247a7697fbe8d7166fcaaf04b61e8856fc94711666e690544ef04e1a7d1467")


def test_tower_certificate_bytes_pinned(capsys, tmp_path):
    """Tower certificates over C4^3 embed per-element module actions (the
    limit's modules, the obstruction); pinned byte for byte."""
    G = build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)
    stable, core = random_stabilizing_tower(G, random.Random(1), n_levels=3)
    L = ChainComplex(G, 0, [1], [])
    N = GroupRingMatrix.from_entries(G, [[norm_element(G)]])
    norm = Tower([L] * 3, [ChainMap(L, L, {0: N}), identity_chain_map(L)])
    expected = {
        "stable": (0, "495785b6c6d2960b537248613e1ea81e8fd1178bd288d0b7b0f61782eab6b296"),
        "norm": (1, "3074a237b92d45b4488581d477e81e2248134e7c17cfb44a08a42bb56c8ef897"),
    }
    assert (stable.levels[0].ranks, core.ranks) == ([2, 3], [1])
    for name, T in (("stable", stable), ("norm", norm)):
        path = tmp_path / f"{name}.twr"
        path.write_text(write_tower(T))
        cert_path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "tower-perfect", str(path), "--horizon", "2",
                         "--cert", str(cert_path))
        digest = hashlib.sha256(cert_path.read_bytes()).hexdigest()
        assert (code, digest) == expected[name], name


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
