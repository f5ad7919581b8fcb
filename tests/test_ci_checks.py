"""CI's heavy checks (tests/ci_checks.py): each is called by one CI step, holds at
a small size and fails on a seeded break."""

import inspect
import os
import re
from functools import cache

import pytest

import ci_checks
from qtmoments import cards, cli
from qtmoments.fock import ScalarGauge
from qtmoments.orthopoly import charlier_strict
from qtmoments.partitions import _histogram_moments
from test_orthopoly import _charlier_broken_omega3


def test_every_check_is_called_by_one_step_and_no_step_gates_on_a_heredoc():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, ".github", "workflows", "tests.yml")) as f:
        steps = re.split(r"\n(?=\s*- (?:name|uses): )", f.read())[1:]  # from each "- name:" on
    public = {name: f for name, f in vars(ci_checks).items() if inspect.isfunction(f)
              and f.__module__ == ci_checks.__name__ and not name.startswith("_")}
    calls = [call for step in steps for call in re.findall(r"ci_checks\.(\w+)\(([\d, ]*)\)", step)]
    assert public and sorted(name for name, _ in calls) == sorted(public)
    for name, sizes in calls:  # the step's sizes fit the function's signature
        inspect.signature(public[name]).bind(*map(int, sizes.split(",")))
    heredocs = [step.split("\n", 1)[0].strip() for step in steps if "python - <<" in step]
    assert heredocs == ["- name: Source line count"]


def test_card_histogram_check_fails_on_an_edit_that_keeps_both_projections(monkeypatch):
    # at n=7, 3 blocks, no crossing: (rn, cov) = (0, 2) and (1, 0) each give one
    # to (0, 1) and (1, 1), which leaves both projections, the two moments, as they are
    real = cards._card_histogram
    edited = real(7)
    for rn, old, new in ((0, 2, 1), (1, 0, 1)):
        edited[3, 0, rn, old] -= 1
        edited[3, 0, rn, new] += 1
    assert _histogram_moments(edited) == _histogram_moments(real(7))
    monkeypatch.setattr(cards, "_card_histogram", lambda n: edited if n == 7 else real(n))
    with pytest.raises(AssertionError, match="n=7"):
        ci_checks.card_histogram(6, 7)


@pytest.mark.parametrize("output", ["json", "pretty"])
def test_listing_check_fails_on_lines_with_their_nestings_swapped(monkeypatch, output):
    real = cli.partition_record
    swap = {"rn_strict": "rn_covered", "rn_covered": "rn_strict"}
    monkeypatch.setattr(cli, "partition_record",
                        lambda p: {swap.get(key, key): value for key, value in real(p).items()})
    with pytest.raises(AssertionError, match=f"partitions --n 3 --output {output}"):
        ci_checks.listings(3, [output])


def test_charlier_check_fails_on_the_table_of_another_preset(monkeypatch):
    real = cli._three_term_rows
    monkeypatch.setattr(cli, "_three_term_rows", lambda _, n_max: real(charlier_strict(), n_max))
    ci_checks.charlier_table(4, ["strict"])
    with pytest.raises(AssertionError, match="--preset tgauge"):
        ci_checks.charlier_table(4, ["tgauge"])


def test_mixed_requests_check_fails_on_a_stale_memoised_text(monkeypatch):
    # the first request prints a memoised text, so one fresh process shows the break
    real = cli._moment_text
    stale = cache(lambda method, mode, n: real(method, mode, n - 1))
    monkeypatch.setattr(cli, "_moment_text", stale)
    with pytest.raises(AssertionError, match="moments --n 4 --method operator --mode strict"):
        ci_checks.mixed_requests(4)


@pytest.mark.parametrize("check, sizes", [(ci_checks.three_routes, (8, 6)),
                                          (ci_checks.operator_motzkin, (8,))],
                         ids=["three_routes", "operator_motzkin"])
def test_route_check_holds_and_fails_on_a_broken_omega3(monkeypatch, check, sizes):
    check(*sizes)
    monkeypatch.setitem(cli.MODES, "strict", (ScalarGauge.IDENTITY, _charlier_broken_omega3))
    with pytest.raises(AssertionError, match="strict: operator == motzkin"):
        check(*sizes)
