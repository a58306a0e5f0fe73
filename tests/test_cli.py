import hashlib
import json

import pytest

from basiccovers.cli import main
from basiccovers.fixtures import FIXTURE_NAMES
from basiccovers.graph import graph_to_text, path_graph


@pytest.fixture()
def corpus_dir(tmp_path):
    from basiccovers.fixtures import write_corpus

    write_corpus(tmp_path / "fx")
    return tmp_path / "fx"


def run(capsys, argv):
    capsys.readouterr()  # drop anything buffered before this invocation
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixtures_command_writes_all(capsys, tmp_path):
    code, out, _ = run(capsys, ["fixtures", "--fixtures-dir", str(tmp_path / "fx")])
    assert code == 0
    names = {p.stem for p in (tmp_path / "fx").iterdir()}
    assert names == {n.lower() for n in FIXTURE_NAMES}


def test_gdim_command(capsys, corpus_dir):
    code, out, err = run(capsys, ["gdim", str(corpus_dir / "k2.edges")])
    assert code == 0
    assert out.splitlines()[:3] == ["gdim 2", "A: 1", "B: 2"]


def test_covers_command_counts(capsys, corpus_dir):
    code, out, _ = run(capsys, ["covers", str(corpus_dir / "e8.edges"), "--k", "1"])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_structured_output_is_json(capsys, corpus_dir):
    code, out, _ = run(
        capsys,
        ["--format", "structured", "covers", str(corpus_dir / "e7.edges"), "--k", "2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 14


def test_analyze_e7_passes_cross_checks(capsys, corpus_dir):
    code, out, _ = run(capsys, ["analyze", str(corpus_dir / "e7.edges")])
    assert code == 0
    assert "dimension-estimate-vs-search: 4 = 4 OK" in out
    assert "FAIL" not in out


def test_analyze_structured(capsys, corpus_dir):
    code, out, _ = run(
        capsys,
        ["--format", "structured", "analyze", str(corpus_dir / "c5.edges")],
    )
    assert code == 0
    doc = json.loads(out)
    verdicts = {row["claim"]: row["verdict"] for row in doc["cross_checks"]}
    assert verdicts["dimension-estimate-vs-search"] == "ok"
    assert all(v in ("ok", "skipped") for v in verdicts.values())


def test_byte_identical_output(capsys, corpus_dir):
    _, first, _ = run(capsys, ["analyze", str(corpus_dir / "e8.edges")])
    _, second, _ = run(capsys, ["analyze", str(corpus_dir / "e8.edges")])
    assert first == second


def test_analyze_certifies_the_dimension_of_p14(capsys, tmp_path):
    # gdim 8: the dimension estimate must certify a degree above 6.
    path = tmp_path / "p14.edges"
    path.write_text(graph_to_text(path_graph(14)))
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0
    assert "dimension-estimate-vs-search: 8 = 8 OK" in out


# sha256 of "exit <code>\n" + stdout + stderr for each fixture and command,
# recorded before the cover poset was memoised and its kernels moved to
# index and value tuples.  A refactor must leave every one unchanged; a
# change that moves one changes what users see and must say so.  The P6
# poset pair was re-recorded when the command learned to report a non-pure
# poset as not shellable instead of failing with NotPure.
GOLDEN_COMMANDS = {
    "analyze": ["analyze"],
    "analyze-structured": ["--format", "structured", "analyze"],
    "poset": ["poset"],
    "poset-structured": ["--format", "structured", "poset"],
}
GOLDEN_SHA256 = {
    ("K2", "analyze"): "78a26d006bd10321e7f5a159a30cc6047bbddb4b83941fd6afba375f70a8bd18",
    ("K2", "analyze-structured"): "1d13fdb8dbb6418350426f2ffef2d9408a38c88b56e6f1c0852e54b800dedf3e",
    ("K2", "poset"): "0722fffb87d6ae43d2762339473bd383a0fe7946bf3024907af245c25092660e",
    ("K2", "poset-structured"): "a3c81edd8fe0c6651c2352f60e11a3a433f2531b50d3e83d7e043894ff2c1a5b",
    ("P6", "analyze"): "2dbc6f24c2bb3ea56fa7d3a157a73eee1d45ef0c4176ba4aab8c324052e514fa",
    ("P6", "analyze-structured"): "3ab1f7877ea2d86368e720c3ccaf145497b60a5cb2ca75562631717f8e33662f",
    ("P6", "poset"): "e68a9102ce1318f0ab49dff424f98b5bfc5f3984c68b836322ef52707540c4dc",
    ("P6", "poset-structured"): "05fdbf015b3ae0a9ba58a6f5572da253f91b995b29cdfd8f492dfc46bd7a5739",
    ("STAR3", "analyze"): "59f39858622f39f515b884aed602a16890eff1b440890b7da03b1f9bff56ff6e",
    ("STAR3", "analyze-structured"): "e0fe901d32d054428d7f1ae361fcc697c77306723ca2872e961474784ad102a6",
    ("STAR3", "poset"): "0722fffb87d6ae43d2762339473bd383a0fe7946bf3024907af245c25092660e",
    ("STAR3", "poset-structured"): "a3c81edd8fe0c6651c2352f60e11a3a433f2531b50d3e83d7e043894ff2c1a5b",
    ("C4", "analyze"): "0d6d53c83b12af538770e3ce1ba40fe2bbe15a27957586afc1d7777457e2c6ed",
    ("C4", "analyze-structured"): "2266f5e6000ff6b798df998ff87ed5e7677d1314071fb06d7b8af948d1161ed5",
    ("C4", "poset"): "4362e192c12350ad27024ea02ab0dec038a96a3b306929870f2da767122f2a1a",
    ("C4", "poset-structured"): "1345f4da12cfb3dd681cbb798a52a5cd03b02f86fcb6ea457bd442f9eccd836c",
    ("C5", "analyze"): "4f718174b567338998088f7d68db670d78aaa609a379b19c462462cd80750ff8",
    ("C5", "analyze-structured"): "39011891efc83bcddb7280e4da042b31db4fd172bce2fcb39a4c891119f30566",
    ("C5", "poset"): "41f459c7a0a4673d994d48460f67cf41d988d41fe96ccfc421cc8fed3c12eeef",
    ("C5", "poset-structured"): "41f459c7a0a4673d994d48460f67cf41d988d41fe96ccfc421cc8fed3c12eeef",
    ("C6", "analyze"): "0e5ffab626ae6ac36a178523c87a7dddc32269b7834d3d61aed157fea9e11fc3",
    ("C6", "analyze-structured"): "378ab549897b342cd257e9044ebccaec562f84e9c4c5fe2608f6c16fc7f9adb1",
    ("C6", "poset"): "49ff92dcdf85e6bfdeda41e8099fb5261cf9a44eadabc2f9fe2929d5f447e29e",
    ("C6", "poset-structured"): "5b3cd512b575f90fabcbd534b24dcebb1aab9a608a84a23793d9121e37e7804f",
    ("K23", "analyze"): "4d924cb31a9810c8addb42c6935f6e82b67e0d25e634dc2ea9dbee1c42509e0b",
    ("K23", "analyze-structured"): "a6264c834eb3697f13a569baf485564a57a6118a97babcb407c4002cdb438bb0",
    ("K23", "poset"): "4362e192c12350ad27024ea02ab0dec038a96a3b306929870f2da767122f2a1a",
    ("K23", "poset-structured"): "1345f4da12cfb3dd681cbb798a52a5cd03b02f86fcb6ea457bd442f9eccd836c",
    ("E7", "analyze"): "a6b5605289e06d14ccb09a5514b98567bad21ed229208c9403a0da0294001bc4",
    ("E7", "analyze-structured"): "f54eff44a4f0e852ff24b585394efdf05f69fd147463b4d7679536d062f9adf6",
    ("E7", "poset"): "ac7512f43c5930359c30d77bb2935d49a568e3fa39f1968832e4fc3b387e3efd",
    ("E7", "poset-structured"): "643202c24811a38bfd554920df8ff0f47d154145abb9850aeb21be9c119105c8",
    ("E8", "analyze"): "421275da6bc094c543857311abad13f53e8a5c86f485292e24998f81de594163",
    ("E8", "analyze-structured"): "8cb6d04681fe2f8ba7a7c08e3df32d87da8709c015a8b0fcc8b43d26dfa34495",
    ("E8", "poset"): "8b932459891ebbe72d2a82ba1d786390f82d652d3b014c378ff16d7c80ca5d46",
    ("E8", "poset-structured"): "7402f8b69cc824fa1ce162998d8d184c67bcc8fd5e8c09b63ff4a6b6b7862d6e",
}


@pytest.mark.parametrize("fixture,command", sorted(GOLDEN_SHA256))
def test_golden_output(capsys, corpus_dir, fixture, command):
    argv = GOLDEN_COMMANDS[command] + [str(corpus_dir / f"{fixture.lower()}.edges")]
    code, out, err = run(capsys, argv)
    doc = f"exit {code}\n{out}{err}"
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_SHA256[fixture, command]


# K5 with one pendant leaf per vertex: 10 vertices, so a budget of 9 cuts
# every graph-size-bounded search, and the cm-equivalence section lists its
# skip reasons.  sha256 as above.
WHISKERED_K5 = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)] + [
    (v, v + 5) for v in range(1, 6)
]
BUDGET_CUT_SHA256 = {
    "text": "8c11b94e509eb6c93acf427fbc6ab9722c229256ffac40f0135f50572e3cfbf9",
    "structured": "170a3b509f27e2eb4241e70aecb2ea5d277fe45b78ed5ab22cff61700ed7d3b4",
}


@pytest.mark.parametrize("fmt", sorted(BUDGET_CUT_SHA256))
def test_golden_budget_cut_skip_reasons(capsys, tmp_path, fmt):
    path = tmp_path / "whiskered_k5.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in WHISKERED_K5))
    argv = ["--budget", "9", "--format", fmt, "analyze", str(path)]
    code, out, err = run(capsys, argv)
    doc = f"exit {code}\n{out}{err}"
    assert hashlib.sha256(doc.encode()).hexdigest() == BUDGET_CUT_SHA256[fmt]


def test_golden_output_covers_every_fixture():
    assert {name for name, _ in GOLDEN_SHA256} == set(FIXTURE_NAMES)
    assert {command for _, command in GOLDEN_SHA256} == set(GOLDEN_COMMANDS)


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 1\n")
    code, out, err = run(capsys, ["covers", str(bad)])
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "LoopEdge"
    assert doc["exit_code"] == 1


@pytest.mark.parametrize(
    "doc", ['{"edges": [[1, 2.7], [2, 3]]}', '{"edges": [[1, 2]], "names": 5}']
)
def test_malformed_json_document_exit_code(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, out, err = run(capsys, ["covers", str(bad)])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "MalformedInput"


@pytest.mark.parametrize("k", ["0", "-2"])
def test_analyze_rejects_a_cover_level_below_one(capsys, corpus_dir, k):
    # Neither falls back to the default levels nor compares empty lists.
    code, out, err = run(capsys, ["analyze", str(corpus_dir / "c4.edges"), "--k", k])
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "MalformedInput"
    assert doc["exit_code"] == 1


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, ["covers", str(tmp_path / "missing.edges")])
    assert code == 1


def test_budget_exit_code(capsys, tmp_path):
    path = tmp_path / "long.edges"
    path.write_text("\n".join(f"{i} {i + 1}" for i in range(1, 30)))
    code, _, err = run(capsys, ["--budget", "10", "covers", str(path)])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "SearchBudgetExceeded"


def test_budget_env_var(capsys, tmp_path, monkeypatch):
    path = tmp_path / "long.edges"
    path.write_text("\n".join(f"{i} {i + 1}" for i in range(1, 30)))
    monkeypatch.setenv("BASICCOVERS_BUDGET", "10")
    code, _, _ = run(capsys, ["covers", str(path)])
    assert code == 2
    monkeypatch.setenv("BASICCOVERS_BUDGET", "40")
    code, out, _ = run(capsys, ["covers", str(path)])
    assert code == 0


@pytest.mark.parametrize(
    "argv, env",
    [
        (["--budget", "0"], None),
        (["--budget", "-3"], None),
        ([], "abc"),
        ([], "0"),
    ],
    ids=["flag-zero", "flag-negative", "env-not-a-number", "env-zero"],
)
def test_bad_budget_is_an_input_error(capsys, corpus_dir, monkeypatch, argv, env):
    # A limit below one would refuse every search; it is bad input, not an
    # exhausted budget, and both routes report it as the JSON error document.
    if env is not None:
        monkeypatch.setenv("BASICCOVERS_BUDGET", env)
    code, out, err = run(capsys, argv + ["gdim", str(corpus_dir / "c4.edges")])
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "MalformedInput"
    assert doc["exit_code"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--budget", "abc", "gdim", "c4.edges"],
        ["analyze", "--k", "x", "c4.edges"],
        ["analyze", "--window", "3", "c4.edges"],
        # The dimension estimate's sample size follows from the matching
        # number, so the flag that set it is gone.
        ["analyze", "p6.edges", "--max-h", "8"],
        ["bogus"],
        [],
    ],
    ids=[
        "budget-not-a-number",
        "k-not-a-number",
        "unknown-option",
        "removed-max-h",
        "unknown-command",
        "no-command",
    ],
)
def test_usage_error_is_an_input_error(capsys, corpus_dir, argv):
    # Exit 2 belongs to an exhausted budget; a usage error is bad input and
    # prints one JSON line, not argparse's usage text.
    argv = [str(corpus_dir / a) if a.endswith(".edges") else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "MalformedInput"
    assert doc["exit_code"] == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: basiccovers" in capsys.readouterr().out


def test_poset_command(capsys, corpus_dir):
    code, out, _ = run(capsys, ["poset", str(corpus_dir / "e7.edges")])
    assert code == 0
    assert "elements: 000 100 101 110 111" in out
    assert "101*110 = 0" in out


@pytest.mark.parametrize("name", ["P6", "P8"])
def test_poset_command_reports_non_pure_poset_not_shellable(
    capsys, corpus_dir, tmp_path, name
):
    if name == "P6":
        path = corpus_dir / "p6.edges"
    else:
        path = tmp_path / "p8.edges"
        path.write_text(graph_to_text(path_graph(8)))
    code, out, err = run(capsys, ["poset", str(path)])
    assert code == 0, err
    assert "pure: False" in out
    assert "shellable: False" in out


def test_poset_command_rejects_odd_cycle(capsys, corpus_dir):
    code, _, err = run(capsys, ["poset", str(corpus_dir / "c5.edges")])
    assert code == 1
    assert json.loads(err)["error"] == "NotBipartite"


def test_project_command(capsys, corpus_dir):
    code, out, _ = run(capsys, ["project", str(corpus_dir / "c4.edges")])
    assert code == 0
    assert "fixed point: False" in out
    assert "wsc: True" in out
