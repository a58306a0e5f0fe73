import json

import pytest

from basiccovers.cli import main
from basiccovers.fixtures import FIXTURE_NAMES


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
        ["--format", "structured", "analyze", str(corpus_dir / "c5.edges"), "--max-h", "6"],
    )
    assert code == 0
    doc = json.loads(out)
    verdicts = {row["claim"]: row["verdict"] for row in doc["cross_checks"]}
    assert verdicts["dimension-estimate-vs-search"] == "ok"
    assert all(v in ("ok", "skipped") for v in verdicts.values())


def test_byte_identical_output(capsys, corpus_dir):
    _, first, _ = run(capsys, ["analyze", str(corpus_dir / "e8.edges"), "--max-h", "5"])
    _, second, _ = run(capsys, ["analyze", str(corpus_dir / "e8.edges"), "--max-h", "5"])
    assert first == second


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


def test_poset_command(capsys, corpus_dir):
    code, out, _ = run(capsys, ["poset", str(corpus_dir / "e7.edges")])
    assert code == 0
    assert "elements: 000 100 101 110 111" in out
    assert "101*110 = 0" in out


def test_poset_command_rejects_odd_cycle(capsys, corpus_dir):
    code, _, err = run(capsys, ["poset", str(corpus_dir / "c5.edges")])
    assert code == 1
    assert json.loads(err)["error"] == "NotBipartite"


def test_project_command(capsys, corpus_dir):
    code, out, _ = run(capsys, ["project", str(corpus_dir / "c4.edges")])
    assert code == 0
    assert "fixed point: False" in out
    assert "wsc: True" in out
