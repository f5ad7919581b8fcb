"""The mutation table in ``tests/mutants.py``: every row still finds its old
text exactly once in its anchor, so the runner breaks the line it names, and
every comparison a check records is broken by some row."""

import ast
import os

import pytest

import mutants
from mutants import CANNOT_FAIL, MUTANTS, ROOT, Mutant, anchor_node, mutated


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_anchor_holds_its_old_text_once(mutant):
    with open(os.path.join(ROOT, "src", "qtmoments", mutant.path)) as f:
        text = f.read()
    changed = mutated(mutant, text)
    assert changed != text
    assert len(changed) - len(text) == len(mutant.new) - len(mutant.old)
    assert os.path.isfile(os.path.join(ROOT, mutant.tests.partition("::")[0]))


def _covered(call: ast.Call, source: str, entries: list) -> bool:
    """Whether some (anchor node, text) entry holds the call in its anchor and
    the text in the call's source."""
    return any(node.lineno <= call.lineno and call.end_lineno <= node.end_lineno
               and text in source for node, text in entries)


def test_every_recorded_comparison_is_broken_by_a_row():
    src = os.path.join(ROOT, "src", "qtmoments")
    calls, uncovered, exempt = 0, [], []
    for path in sorted(p for p in os.listdir(src) if p.endswith(".py")):
        with open(os.path.join(src, path)) as f:
            text = f.read()
        tree = ast.parse(text)
        rows = [(anchor_node(tree, m.anchor), m.old) for m in MUTANTS if m.path == path]
        listed = [(anchor_node(tree, a), message) for p, a, message in CANNOT_FAIL if p == path]
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "report.record"):
                continue
            calls += 1
            source = ast.get_source_segment(text, call)
            if _covered(call, source, listed):
                exempt.append(f"{path}:{call.lineno}")
            elif not _covered(call, source, rows):
                uncovered.append(f"{path}:{call.lineno}")
    assert calls > len(CANNOT_FAIL)
    assert uncovered == []
    assert len(exempt) == len(CANNOT_FAIL)


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


@pytest.mark.parametrize(
    "statuses, exit_code",
    [
        ({}, 0),
        ({0: 0}, 1),  # one row survives: its tests passed
        ({-1: None}, 1),  # one row ran past the timeout
        ({1: 2}, 1),  # pytest could not run one row's tests
    ],
    ids=["all-killed", "one-survives", "one-times-out", "one-errors"],
)
def test_main_exits_nonzero_unless_every_row_is_killed(monkeypatch, capsys, statuses, exit_code):
    # no subprocess runs: each row's pytest status is stubbed, 1 (killed) by default
    status = {MUTANTS[i].name: s for i, s in statuses.items()}
    monkeypatch.setattr(mutants, "run", lambda mutant: status.get(mutant.name, 1))
    assert mutants.main() == exit_code
    killed = len(MUTANTS) - len(statuses)
    assert capsys.readouterr().out.endswith(f"{killed} of {len(MUTANTS)} mutants killed\n")
