"""The command line prints, byte for byte, what the corpus in tests/corpus.json stored (see tests/corpus.py)."""

import pytest

import corpus

# the command paths the corpus has to cover, as case ids begin
PATHS = ["rat", "crn-approx", "machine-run", "machine-dovetail", "waiting-approx", "reduce", "bisect",
         "bisect-transcript", "cover-lebesgue", "cover-subcover", "cover-verify", "cover-verify-cert"]


# one replay per command path, and one for the cases with none, so that each part stays short
@pytest.mark.parametrize("path", PATHS + ["usage"])
def test_every_case_prints_what_was_stored(path):
    report = corpus.replay(path)
    if report is not None:
        pytest.fail(report, pytrace=False)


def test_the_corpus_covers_every_command_path():
    cases = corpus.load()["cases"]
    counts = {path: sum(corpus.command_path(case) == path for case in cases) for path in PATHS}
    assert len(cases) >= 500 and min(counts.values()) >= 10, counts
    assert {corpus.command_path(case) for case in cases} == {*PATHS, "usage"}  # the replays above reach every case
    assert {case["exit"] for case in cases} == {0, 1, 2}


def test_the_generator_makes_the_stored_cases_and_files():
    made, stored = corpus.make(), corpus.load()
    assert made["files"] == stored["files"]
    assert [(case["id"], case["argv"]) for case in made["cases"]] == [
        (case["id"], case["argv"]) for case in stored["cases"]]
