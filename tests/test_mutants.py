"""The mutation table in ``tests/mutants.py``: every row still finds its old
text exactly once in its anchor, so the runner breaks the line it names."""

import os

import pytest

from mutants import MUTANTS, ROOT, Mutant, mutated


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_anchor_holds_its_old_text_once(mutant):
    with open(os.path.join(ROOT, "src", "qtmoments", mutant.path)) as f:
        text = f.read()
    changed = mutated(mutant, text)
    assert changed != text
    assert len(changed) - len(text) == len(mutant.new) - len(mutant.old)
    assert os.path.isfile(os.path.join(ROOT, mutant.tests))


@pytest.mark.parametrize(
    "anchor, old, message",
    [
        ("g", "1", "no g in"),
        ("f", "y", "'y' occurs 0 times in f"),
        ("f", "1", "'1' occurs 2 times in f"),
        ("K.f", "1", "no K.f in"),
    ],
)
def test_mutated_rejects_an_anchor_without_exactly_one_old_text(anchor, old, message):
    # the "y" and "1" outside f do not count for f
    text = "def f():\n    return 1 + 1\n\n\ny = 1\n"
    with pytest.raises(ValueError, match=message):
        mutated(Mutant("m", "m.py", anchor, old, "z", "tests/t.py"), text)


def test_mutated_edits_only_inside_a_method_anchor():
    text = "def f():\n    return 1\n\n\nclass K:\n    def f(self):\n        return 1\n"
    changed = mutated(Mutant("m", "m.py", "K.f", "return 1", "return 2", "tests/t.py"), text)
    assert changed == text.replace("        return 1", "        return 2")
