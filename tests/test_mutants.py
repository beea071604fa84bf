"""The mutation audit's entries (`mutants.py`) still name code that exists, once; the audit itself runs in CI."""

from mutants import MUTANTS, refusal


def test_every_old_text_occurs_exactly_once():
    assert {entry["name"]: refusal(entry) for entry in MUTANTS} == {entry["name"]: None for entry in MUTANTS}


def test_an_old_text_that_is_missing_or_repeated_is_refused():
    for old, count in (("no such text in the module", 0), ("np.ndarray", None)):
        reason = refusal({"name": "x", "file": "src/subrad/dynamics.py", "old": old, "new": ""})
        assert reason is not None and reason.endswith("not once")
        assert count is None or f"occurs {count} times" in reason


def test_names_are_distinct():
    assert len({entry["name"] for entry in MUTANTS}) == len(MUTANTS)
