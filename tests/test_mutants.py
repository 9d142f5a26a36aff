"""The mutant table in `tests/mutants.py` stays applicable: each mutant's
source text occurs exactly once in `src/`, in the file it names, and each
names the test files it runs."""

from mutants import MUTANTS, ROOT

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
