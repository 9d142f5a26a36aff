"""The mutant table in `tests/mutants.py` stays applicable: each mutant's
source text occurs exactly once in `src/`, in the file it names, and each
names the test files it runs; `--file` selects one module's mutants, and
`main` exits 1 when a mutant survives."""

import pytest
import mutants
from mutants import MUTANTS, ROOT, select

SOURCES = {path.name: path.read_text() for path in (ROOT / "src" / "gepflow").glob("*.py")}


def test_each_mutant_text_occurs_exactly_once_in_src():
    for mutant in MUTANTS:
        counts = {name: source.count(mutant.text) for name, source in SOURCES.items()}
        assert sum(counts.values()) == 1, (mutant.name, counts)
        assert counts.get(mutant.file) == 1, mutant.name
        assert mutant.replacement != mutant.text, mutant.name


def test_each_mutant_is_named_once_and_runs_existing_tests():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names) >= 12
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            assert (ROOT / node.split("::")[0]).is_file(), (mutant.name, node)


def test_file_selects_exactly_that_modules_mutants():
    assert select([]) == list(MUTANTS)
    for file in {mutant.file for mutant in MUTANTS}:
        assert select(["--file", file]) == [m for m in MUTANTS if m.file == file]
    generative = select(["--file", "generative.py"])
    assert len(generative) >= 8 and all(m.file == "generative.py" for m in generative)
    assert [m.name for m in select(["--only", "adam_clip_skipped", "--file", "generative.py"])] == [
        "adam_clip_skipped"
    ]
    assert select(["--only", "adam_clip_skipped", "--file", "theory.py"]) == []
    with pytest.raises(SystemExit):
        select(["--file", "nothing.py"])


def test_main_exits_one_when_a_mutant_survives(monkeypatch, capsys):
    for outcome, code in (("survived", 1), ("killed", 0), ("error", 0)):
        monkeypatch.setattr(mutants, "run", lambda mutant: (outcome, "", 0.0))
        assert mutants.main(["--file", "generative.py"]) == code
        assert capsys.readouterr().out.count(f"  {outcome}  ") == len(
            select(["--file", "generative.py"])
        )
