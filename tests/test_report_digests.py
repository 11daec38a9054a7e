"""Byte identity of every bundled report: sha256 pins of the CLI output.

Each case runs one CLI command on a bundled document and compares the
sha256 of what it writes to stdout, and its exit code, with a pinned value.
A change that alters any report byte fails here.  To re-pin after an
intended change in output, print the new digests with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from faultline.cli import main
from faultline.documents import bundled_names


def _cases():
    cases = {"selftest": ["selftest"]}
    for name in bundled_names():
        src = ["-i", f"bundled:{name}"]
        runs = {"analyze": ["analyze", *src], "cohomology": ["cohomology", *src]}
        for sub in ("sigma1", "sigma2", "rho"):
            runs[f"ap-{sub}"] = ["ap", *src, "--name", sub]
            runs[f"mu-{sub}"] = ["mu", *src, "--name", sub]
        for seed in ("a", "b"):
            runs[f"fault-{seed}"] = ["fault", *src, "--top", "sigma1", "--bottom", "sigma2",
                                     "--seed", seed]
        for key, argv in runs.items():
            for fmt in ("json", "text"):
                cases[f"{name}-{key}-{fmt}"] = [*argv, "--format", fmt]
    return cases


CASES = _cases()

# (exit code, sha256 of stdout), recorded before the change to integer
# coefficient vectors in the fault scan, mod_reduce and tile_lengths
DIGESTS = {
    "doubling_swap-analyze-json": (0, "8e6e67228174ce5c113074b44d7700d8061193ee82b18b79dc92681af5e11b8d"),
    "doubling_swap-analyze-text": (0, "3102e6c77c02a15b98b4eaaf272d7bdffdbfaa73b004ce0b9be55bc204f5dfdf"),
    "doubling_swap-ap-rho-json": (0, "d40cd3d796f7609cc1dd4d97eeb85a7150a1b2b4f3a54e14d50d0c7830385652"),
    "doubling_swap-ap-rho-text": (0, "ef353c9ee58fba9f94b295279c836b66feed8b5e254525fd9ea3eb629fbccbad"),
    "doubling_swap-ap-sigma1-json": (0, "909737e3677b85514b4dbc67c950db30de5e00ae012386e008f5c1c780a884bd"),
    "doubling_swap-ap-sigma1-text": (0, "ccf7f36701dede130ee8d1635fee5626d0e77c5d25c715faacb2af82dea9fdc5"),
    "doubling_swap-ap-sigma2-json": (0, "81a147d04bb4fc8447620d49a7f76fe65767959066bbc8dcb32bf2a63300cf6a"),
    "doubling_swap-ap-sigma2-text": (0, "1a1f1ce439964de4f806778b536467daef936341e205b1668648e348b1bef850"),
    "doubling_swap-cohomology-json": (0, "d8f2de8f49588f05d7f420fbf8f94c1e838d4703288c7fc38bae911c0de4a80e"),
    "doubling_swap-cohomology-text": (0, "f094a25d138ad83daf0bbd4f99afa9b8555830f624bd61e62f93067bcbc531b2"),
    "doubling_swap-fault-a-json": (0, "d5b4ba450a3f06d2eb8e85e692a90e79c472961bd2dd8c901b7085c7044b469d"),
    "doubling_swap-fault-a-text": (0, "cd67675d87cdfe6611334c559419ed876fca8c84ac9ab3a52083733c0e576a85"),
    "doubling_swap-fault-b-json": (0, "60bf71e4489fafa91441dfc250a8e6f391c80f26cde7adba72d1f3138b77edfd"),
    "doubling_swap-fault-b-text": (0, "d4ff4cb7815a6961f3a4abc4232653058b2f054f3b8d81bf3d1e9d4565ee34ff"),
    "doubling_swap-mu-rho-json": (0, "e915a6b2fe4101f9b020dbb3a31b32def76d61fe1b2be723b33d70898c20ee30"),
    "doubling_swap-mu-rho-text": (0, "4091286ea512ed8c93282a4147c832b3956b79c82c7416ef53831a8f0f126c3e"),
    "doubling_swap-mu-sigma1-json": (0, "ceb4ebda898229bddf7ec58ac240a972d5ada40ecd9fe64e3c58474ead0f2c34"),
    "doubling_swap-mu-sigma1-text": (0, "c25ef4e0b99b2e2c96f26bfb5c80cedbf4400ec6b4f578dee91100f420de6168"),
    "doubling_swap-mu-sigma2-json": (0, "59f2d796ffc9a21455358d31e533ca2d10400caa66513bf0b28bcb0c610dfed1"),
    "doubling_swap-mu-sigma2-text": (0, "fc2690d60de12c0a4bbe77b5063a8a4d63f56676662286ef476838369d8c6fe0"),
    "period_doubling-analyze-json": (0, "a0a23038f8a85d2787e6203a02bd17223a7b7f0f6fc09c6afb661e690f66558d"),
    "period_doubling-analyze-text": (0, "ebc89b79bc3d10e78a603300a3a80237bcc8438979f01b1e6cc76a59f5c7a9e9"),
    "period_doubling-ap-rho-json": (0, "b256c6fcef0449ccfbe01beb374ec0fd31abf939e48989ea90144432cf82345c"),
    "period_doubling-ap-rho-text": (0, "7681e3ca5a5c30d221109a6085add17a5af226f03dfa31f27c7e7e162fcf4d10"),
    "period_doubling-ap-sigma1-json": (0, "909737e3677b85514b4dbc67c950db30de5e00ae012386e008f5c1c780a884bd"),
    "period_doubling-ap-sigma1-text": (0, "ccf7f36701dede130ee8d1635fee5626d0e77c5d25c715faacb2af82dea9fdc5"),
    "period_doubling-ap-sigma2-json": (0, "81a147d04bb4fc8447620d49a7f76fe65767959066bbc8dcb32bf2a63300cf6a"),
    "period_doubling-ap-sigma2-text": (0, "1a1f1ce439964de4f806778b536467daef936341e205b1668648e348b1bef850"),
    "period_doubling-cohomology-json": (0, "963a1a92643903763a91f87edeeaffbec3f74e0a525428c70e801dd29e9b964c"),
    "period_doubling-cohomology-text": (0, "a6c74e3fde9f2253dd5919cc0ed6119fca5acc877efdccbc2dd31d711240daa7"),
    "period_doubling-fault-a-json": (0, "d5b4ba450a3f06d2eb8e85e692a90e79c472961bd2dd8c901b7085c7044b469d"),
    "period_doubling-fault-a-text": (0, "cd67675d87cdfe6611334c559419ed876fca8c84ac9ab3a52083733c0e576a85"),
    "period_doubling-fault-b-json": (0, "60bf71e4489fafa91441dfc250a8e6f391c80f26cde7adba72d1f3138b77edfd"),
    "period_doubling-fault-b-text": (0, "d4ff4cb7815a6961f3a4abc4232653058b2f054f3b8d81bf3d1e9d4565ee34ff"),
    "period_doubling-mu-rho-json": (0, "fd276cabc703476fbaf431c7d259a9bd71b5d70597bcb1478803e3268fe342ab"),
    "period_doubling-mu-rho-text": (0, "5a23e6bc51a580af00c56b8580657ddd9d4c6199c12c32fd1b8b88b12f744e46"),
    "period_doubling-mu-sigma1-json": (0, "ceb4ebda898229bddf7ec58ac240a972d5ada40ecd9fe64e3c58474ead0f2c34"),
    "period_doubling-mu-sigma1-text": (0, "c25ef4e0b99b2e2c96f26bfb5c80cedbf4400ec6b4f578dee91100f420de6168"),
    "period_doubling-mu-sigma2-json": (0, "59f2d796ffc9a21455358d31e533ca2d10400caa66513bf0b28bcb0c610dfed1"),
    "period_doubling-mu-sigma2-text": (0, "fc2690d60de12c0a4bbe77b5063a8a4d63f56676662286ef476838369d8c6fe0"),
    "row_thirds-analyze-json": (0, "126f494f38ebf47ab04ef6a01c9cf525ac481f1b9f4cadb6087498fec40b0f42"),
    "row_thirds-analyze-text": (0, "173980aabf1e3d1836daa9981920216cc978eb5427a2402e3dd24f2045874c2a"),
    "row_thirds-ap-rho-json": (0, "fde220d1354e605fe4e51302ec6eb868f7efc4032344a5bab1bca5262b457a4b"),
    "row_thirds-ap-rho-text": (0, "b09e9068859cae4cc38656c114c5c296e5bdc415dc7f922bcb906192950f2edd"),
    "row_thirds-ap-sigma1-json": (0, "909737e3677b85514b4dbc67c950db30de5e00ae012386e008f5c1c780a884bd"),
    "row_thirds-ap-sigma1-text": (0, "ccf7f36701dede130ee8d1635fee5626d0e77c5d25c715faacb2af82dea9fdc5"),
    "row_thirds-ap-sigma2-json": (0, "81a147d04bb4fc8447620d49a7f76fe65767959066bbc8dcb32bf2a63300cf6a"),
    "row_thirds-ap-sigma2-text": (0, "1a1f1ce439964de4f806778b536467daef936341e205b1668648e348b1bef850"),
    "row_thirds-cohomology-json": (0, "1e6ebdc500dab473825ecb280c1f388c6bf9ee08b035cf409331cafbf297241d"),
    "row_thirds-cohomology-text": (0, "656b56fca0b454c99ca113648d450a45017ed6e7ef419743d6ba8d106f724365"),
    "row_thirds-fault-a-json": (0, "d5b4ba450a3f06d2eb8e85e692a90e79c472961bd2dd8c901b7085c7044b469d"),
    "row_thirds-fault-a-text": (0, "cd67675d87cdfe6611334c559419ed876fca8c84ac9ab3a52083733c0e576a85"),
    "row_thirds-fault-b-json": (0, "60bf71e4489fafa91441dfc250a8e6f391c80f26cde7adba72d1f3138b77edfd"),
    "row_thirds-fault-b-text": (0, "d4ff4cb7815a6961f3a4abc4232653058b2f054f3b8d81bf3d1e9d4565ee34ff"),
    "row_thirds-mu-rho-json": (0, "ef5573226d3f5dd8212c8044796a0566a64233af8dcbb5d04e1eabad30f8da81"),
    "row_thirds-mu-rho-text": (0, "20ec062fb072f28036aded549cc3bdab9967f391afeac90410dc75a21f30b07a"),
    "row_thirds-mu-sigma1-json": (0, "ceb4ebda898229bddf7ec58ac240a972d5ada40ecd9fe64e3c58474ead0f2c34"),
    "row_thirds-mu-sigma1-text": (0, "c25ef4e0b99b2e2c96f26bfb5c80cedbf4400ec6b4f578dee91100f420de6168"),
    "row_thirds-mu-sigma2-json": (0, "59f2d796ffc9a21455358d31e533ca2d10400caa66513bf0b28bcb0c610dfed1"),
    "row_thirds-mu-sigma2-text": (0, "fc2690d60de12c0a4bbe77b5063a8a4d63f56676662286ef476838369d8c6fe0"),
    "selftest": (0, "be540011bbcd710bed4f525cae9f6ec821521b49f32573da9292834b7f5f7655"),
}


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    assert run(CASES[case]) == DIGESTS[case]


# Substitutions whose charpolys have an irreducible factor of degree >= 3
# with non-real roots, the path of ``algebra.isolate_complex_roots`` (pure-int
# code in ``faultline.zpoly``, as is real-root isolation).  Digests of the
# first two recorded when all root isolation and factoring still went through
# sympy; the Salem digests again when exact circle counts turned its class
# from Undetermined to Salem, the one line in which the reports differ.  The
# other three print a second_eigenvalue_modulus read off a non-real pair's
# rectangle; recorded while rectangles were still found by bisection alone.
COMPLEX_ROOT_DOCS = {
    # matrix [[1,0,1,0],[0,0,1,0],[1,0,0,1],[0,1,0,0]], charpoly
    # x^4-x^3-x^2-x+1 (Salem; a non-real pair on |z| = 1)
    "salem": {"a": "ac", "b": "d", "c": "ab", "d": "c"},
    # tribonacci, x^3-x^2-x-1: a real root and a non-real pair
    "tribonacci": {"a": "ab", "b": "ac", "c": "a"},
    # x^3-2x^2-1 (Pisot): |second| ~ 0.673 from the non-real pair
    "pisot_cubic": {"a": "ab", "b": "ca", "c": "aca"},
    # x^4-2x^3-x^2-6x-4, irreducible: two real roots and a pair of modulus
    # ~ 1.440 (non-Pisot expanding)
    "quartic": {"a": "cd", "b": "baac", "c": "db", "d": "cdbb"},
    # x^6-3x^5-x^4+x^3+x^2-x-3, irreducible, drawn from ap-random: two real
    # roots and two non-real pairs, the larger of modulus ~ 1.059
    "sextic": {"a": "fbd", "b": "dfdb", "c": "acec", "d": "ce", "e": "cb", "f": "deab"},
}
COMPLEX_ROOT_DIGESTS = {
    "salem-json": (0, "8ff2acc6f71531149d833f39bfaa6acb4abe19501c836b2dbaf223895cf61487"),
    "salem-text": (0, "cbfe18d786d902a8f174bc2d3bffae31ea46e91ba0da8116556ba3d70f08b292"),
    "tribonacci-json": (0, "6a5b2ad87e8c90923676ccb6c6c5223c833d6fc1f7d5f27837db806000a81098"),
    "tribonacci-text": (0, "e41c8bf758cc3705e8e92f75206fd5552e4ce7c018f9d4765a45a5afe730dff2"),
    "pisot_cubic-json": (0, "2284c6f9b92e056e55cac84b84e281084f1832f6252bfcb20b43ed1258a767df"),
    "pisot_cubic-text": (0, "9232769c3fabc8fecfb783305feeb7da11390eba2d88f3d06224cf5dfa7fd23e"),
    "quartic-json": (0, "8be46cefa9e7dfa250230657d773c5a36d24464178129311aee4f2daaeb1ce8b"),
    "quartic-text": (0, "3ca9f4067eae6c2538e0c32ea7ef2f96f228d4234ab898655c883746142c74b8"),
    "sextic-json": (0, "0a5a6c9b6c213ac3cfcbbf2af5a43140d56dbef2b060f29e78c93fc12bd20d75"),
    "sextic-text": (0, "511de2129ee03a639b70a61156bd1af9a35152c2b615455f34ee61d163ebc845"),
}


@pytest.mark.parametrize("case", sorted(COMPLEX_ROOT_DIGESTS))
def test_complex_root_reports_unchanged(case, tmp_path, monkeypatch):
    import faultline.substitution

    name, fmt = case.rsplit("-", 1)
    rules = COMPLEX_ROOT_DOCS[name]
    doc = {"alphabets": {"h": sorted(rules)},
           "substitutions": {name: {"alphabet": "h", "rules": rules}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    isolate = faultline.substitution.isolate_complex_roots
    monkeypatch.setattr(faultline.substitution, "isolate_complex_roots",
                        lambda *a, **k: calls.append(a) or isolate(*a, **k))
    assert run(["analyze", "-i", str(path), "--format", fmt]) == COMPLEX_ROOT_DIGESTS[case]
    assert calls


# Small documents beside the bundled ones, on the two paths that classify
# boundaries: ``fault --seed b``, whose classification walks from every
# seed, and ``cohomology``, which classifies every essential vertex.
# Recorded before boundaries were classified from their discrepancies.  The
# pisot_undetermined and golden_rigid digests were recorded when Rigid
# became overlap-state closure, and are those the tracked-letter residue
# test gave.
INLINE_DOCS = {
    # x^3-x^2-2x-2: its overlap states do not close within the cap, and its
    # discrepancies do not grow, so Undetermined, and n = (0, 1)
    "pisot_undetermined": (
        {"a": "cb", "b": "baa", "c": "b"}, {"a": "cb", "b": "aab", "c": "b"},
        {"v": "vv"}, {"v": ["sigma1", "sigma2"]}),
    # the golden-mean pair: two offsets modulo the b width, but its overlap
    # states close, so Rigid and n = 0
    "golden_rigid": (
        {"a": "ab", "b": "a"}, {"a": "ba", "b": "a"},
        {"v": "vv"}, {"v": ["sigma1", "sigma2"]}),
    # the paper pair under a Fibonacci vertical: two RegularFault boundaries
    "fibonacci_fault": (
        {"a": "ba", "b": "aaa"}, {"a": "ab", "b": "aaa"},
        {"v": "vw", "w": "v"}, {"v": ["sigma1", "sigma2"], "w": ["sigma1"]}),
    # x^2-x-4 (non-Pisot) under a three-letter vertical: two RegularFault
    # boundaries and one Rigid
    "mixed": (
        {"a": "ab", "b": "aaaa"}, {"a": "ba", "b": "aaaa"},
        {"x": "xy", "y": "zx", "z": "yz"},
        {"x": ["sigma1", "sigma1"], "y": ["sigma2", "sigma1"], "z": ["sigma1", "sigma1"]}),
    # tribonacci and its twin: degree-3 widths, one Rigid boundary, n = 0
    "tribonacci_twins": (
        {"a": "ab", "b": "ac", "c": "a"}, {"a": "ba", "b": "ca", "c": "a"},
        {"v": "vv"}, {"v": ["sigma1", "sigma2"]}),
}
INLINE_DIGESTS = {
    "fibonacci_fault-cohomology-json": (0, "98cae9acb5c4d515db61f083b863bd7f5a125cba1472014b2fb565e7f089729a"),
    "fibonacci_fault-cohomology-text": (0, "b759531dc88dc139c8dcd4292452a38707e04c371e5d956bd6ee4257aa81d9e7"),
    "fibonacci_fault-fault-b-json": (0, "60bf71e4489fafa91441dfc250a8e6f391c80f26cde7adba72d1f3138b77edfd"),
    "fibonacci_fault-fault-b-text": (0, "d4ff4cb7815a6961f3a4abc4232653058b2f054f3b8d81bf3d1e9d4565ee34ff"),
    "mixed-cohomology-json": (0, "3b8a5b39dbd78431ef7bcd04897168fa7238ea51d7e6b0274993023b3d50d3ab"),
    "mixed-cohomology-text": (0, "e578f92e41925faf0893fecf288c216b44e0d7c24fdc4027305cb12756947de8"),
    "mixed-fault-b-json": (0, "3da27c5f5ea2ad1baeb7d059aa45d27eddbd79eee358d43bd3395803d54c0504"),
    "mixed-fault-b-text": (0, "217b4bf83adfd68e62d386f081efedfc693518e00cb67812e5c92ef5de104260"),
    "golden_rigid-cohomology-json": (2, "94f0b96789491982d91e89166fee0ed04b366f2495c9a65bd44b1042e4949b9c"),
    "golden_rigid-cohomology-text": (2, "b18309306bfd5660eccf1be3860bf7f2f05c04bb3dd2822e7b24c00380ad56f8"),
    "golden_rigid-fault-b-json": (0, "26df86b323f7a56150266b9799ece75825648eac128d59b647d508dfe496bdec"),
    "golden_rigid-fault-b-text": (0, "a4812b27b255d14e17d859a354e8fc7404613dc8e83aa0783fa34e4ea80c001e"),
    "pisot_undetermined-cohomology-json": (2, "7cdaf34f239f66f69c940681ca96525e2addf94bec9574c022f99bafea581149"),
    "pisot_undetermined-cohomology-text": (2, "342b242e118795018781168e55d4a64b44a11582c197562f4e7797ec1985417d"),
    "pisot_undetermined-fault-b-json": (2, "1ad54d6c0b3ea82485624d2f4e1b5123f80e6f907eb891bd67d5da3080c088fb"),
    "pisot_undetermined-fault-b-text": (2, "2df29adfd78befc7366a467e1939773dfe6ab23f55909a0791339453f1525fdf"),
    "tribonacci_twins-cohomology-json": (2, "f10949e8ff089092c7ce530f083abf454a44cb35e8c9910e2e885ccc99337af8"),
    "tribonacci_twins-cohomology-text": (2, "4dfbe7a4ba381ac93f5f5f9e48b2c4842d4c16e032f54c946f67f81c12d49fb0"),
    "tribonacci_twins-fault-b-json": (0, "396811cb239e7eb3a99d43c43429a4f343dfac8c2ef5c5f421abdf321ac5a95d"),
    "tribonacci_twins-fault-b-text": (0, "b531122425a6b16c126a76fab491d6180c91ca4381fde056962234062765a2d1"),
}


def inline_document(name):
    sigma1, sigma2, rho, row_sigma = INLINE_DOCS[name]
    return {
        "alphabets": {"h": sorted(sigma1), "v": sorted(rho)},
        "substitutions": {"sigma1": {"alphabet": "h", "rules": sigma1},
                          "sigma2": {"alphabet": "h", "rules": sigma2},
                          "rho": {"alphabet": "v", "rules": rho}},
        "dpv": {"vertical": "rho", "horizontal": ["sigma1", "sigma2"], "row_sigma": row_sigma},
    }


@pytest.mark.parametrize("case", sorted(INLINE_DIGESTS))
def test_inline_classification_reports_unchanged(case, tmp_path):
    name, rest = case.split("-", 1)
    command, fmt = rest.rsplit("-", 1)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(inline_document(name)), encoding="utf-8")
    argv = {"fault-b": ["fault", "--top", "sigma1", "--bottom", "sigma2", "--seed", "b"],
            "cohomology": ["cohomology"]}[command]
    assert run([argv[0], "-i", str(path), *argv[1:], "--format", fmt]) == INLINE_DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        code, digest = run(CASES[case])
        print(f'    "{case}": ({code}, "{digest}"),')
