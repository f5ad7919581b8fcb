"""Mutation runner: each row of ``MUTANTS`` breaks one line of a copy of
``src/`` and names the test file, or one test's node id, that must catch it.

    python tests/mutants.py

For each row, the runner copies ``src/`` to a temporary directory and
replaces the row's old text there.  The old text must occur exactly once
inside the row's anchor: a function, or ``Class.method``.
The runner checks that ``qtmoments`` imports from the copy, then runs pytest
on the row's tests against it, with a 600 s timeout and a limit on the
child's address space, so a mutant that loops or grows without bound ends.
It exits 0 only if pytest exits 1 (tests failed) on every row: a surviving
mutant (0), a timeout or a pytest that could not run (2-5) makes it exit 1.

Pytest does not collect this file; ``tests/test_mutants.py`` checks in tier-1
that every anchor still holds its old text once, that each
``report.record(`` call in ``src/`` is broken by a row or listed in
``CANNOT_FAIL``, and that ``main`` exits 1 unless every row is killed.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600
ADDRESS_SPACE = 2 << 30  # bytes, for the pytest child only


class Mutant(NamedTuple):
    name: str
    path: str  # module file under src/qtmoments
    anchor: str  # the enclosing function, "Class.method" for a method
    old: str
    new: str
    tests: str  # the test file, or one test's node id, that must fail; from the repo root


MUTANTS = [
    # the fold's only width rule; the decoder's width-1 guard ends the run
    Mutant("fold-width-one-bit-short", "ring.py", "_folded",
           "bit_length() + 1", "bit_length()", "tests/test_folded.py"),
    Mutant("scale-without-gram-denominator", "fock.py", "_WordForm.scale",
           " * self.dg**m", "", "tests/test_fock.py"),
    Mutant("pivots-left-unsigned", "fock.py", "leading_principal_minors",
           " * (-1) ** sum(p > r for p in pivots)", "", "tests/test_fock.py"),
    Mutant("inversion-weights-q-t-swapped", "fock.py", "_inversion_weights",
           "q**i * t ** (top - i)", "t**i * q ** (top - i)", "tests/test_fock.py"),
    Mutant("scalar-letter-reuses-lambda", "fock.py", "_letter_step",
           'weights = scalars if letter == "S"', 'weights = [lam] * len(coeffs) if letter == "S"',
           "tests/test_fock.py"),
    Mutant("card-shifts-one-short", "cards.py", "_contributor_walk",
           "for j in range(level)", "for j in range(level - 1)", "tests/test_cards.py"),
    # every table shifts one too far, so each copy's q-exponents move up by one
    Mutant("card-shift-table-off-by-one", "cards.py", "_contributor_walk",
           "bytes(range(j, 256)) + bytes(range(j))",
           "bytes(range(j + 1, 256)) + bytes(range(j + 1))", "tests/test_cards.py"),
    # a q-exponent byte past 255 would wrap; only the fake t_top 256 leaf reaches it
    Mutant("card-byte-guard-off", "cards.py", "_card_histogram",
           "if top > 255:", "if False:", "tests/test_cards.py"),
    Mutant("histogram-drops-covered-exponent", "partitions.py", "_histogram_moments",
           "te + cov", "te", "tests/test_partitions.py"),
    Mutant("listing-rn-swapped", "cli.py", "cmd_partitions",
           '"rn_covered": {r["rn_covered"]}, "rn_strict": {r["rn_strict"]}',
           '"rn_covered": {r["rn_strict"]}, "rn_strict": {r["rn_covered"]}', "tests/test_cli.py"),
    # the ring's fold is exact either way; only its own gap tests see the cost rule
    Mutant("fold-pays-without-gap-test", "ring.py", "_fold_pays",
           "if len(top) + sum(top.values()) > _GAP_LIMIT * len(terms):", "if False:",
           "tests/test_ring.py"),
    # the reader's own checks: each would take a request that the tree refuses
    Mutant("reader-skips-required-options", "cli.py", "_parse_args",
           "any(a.required and a not in given for a in sub._actions)", "False",
           "tests/test_cli.py::test_subparser_fails_as_the_tree_fails"),
    Mutant("reader-takes-a-dash-value-after-a-space", "cli.py", "_parse_args",
           'not eq and text[:1] == "-"', "False",
           "tests/test_cli.py::test_subparser_fails_as_the_tree_fails"),
    Mutant("reader-skips-choices", "cli.py", "_parse_args",
           "sub._check_value(action, value)", "None",
           "tests/test_cli.py::test_subparser_fails_as_the_tree_fails"),
    # every chunk after the first would lose the " + " or " - " that joins it
    Mutant("leading-sign-fix-on-every-chunk", "ring.py", "Poly._text_chunks",
           "if not start:", "if True:", "tests/test_ring.py"),
    Mutant("unit-coefficient-keeps-its-one", "ring.py", "Poly._text_chunks",
           'if c > 1 else f" - {-c}{hi}{lo}" if c < -1',
           'if c > 0 else f" - {-c}{hi}{lo}" if c < 0', "tests/test_ring.py"),
    Mutant("qt-number-two-is-t-plus-2q", "qtnum.py", "qt_number",
           '(1, {"t": n - k, "q": k - 1})', '(1 + (n == k == 2), {"t": n - k, "q": k - 1})',
           "tests/test_qtnum.py"),
    Mutant("recurrence-drops-w-term", "orthopoly.py", "_recurrence",
           " + w_n * v", "", "tests/test_orthopoly.py"),
    # the census's leaf level: n joining a block after the singleton e, which n's arc
    # now covers, and an arc closed at n nesting inside the later arcs from below
    Mutant("census-drops-last-covered-singleton", "partitions.py", "_weight_census",
           "keys += [k + 1 + x for x in ds]", "keys += [k + x for x in ds]",
           "tests/test_partitions.py"),
    Mutant("census-last-arc-without-nesting-shift", "partitions.py", "_weight_census",
           "k + incs[i] + nst - crs", "k + incs[i] - crs", "tests/test_partitions.py"),
    # a closed arc from a singleton would still count as covering it
    Mutant("join-keeps-covered-count-of-a-joined-singleton", "partitions.py", "_join",
           "covered -= crossed", "covered -= 0", "tests/test_partitions.py"),
    Mutant("card-walk-scalar-without-level-shift", "cards.py", "_contributor_walk",
           "t_shift + level", "t_shift", "tests/test_cards.py"),
    Mutant("motzkin-integer-omega-one-d-short", "orthopoly.py", "moments_by_motzkin",
           "(d // v.denominator) * d for v in omega", "(d // v.denominator) for v in omega",
           "tests/test_orthopoly.py"),
    Mutant("poisson-step-down-product-one-level-low", "fock.py", "_poisson_step",
           "shared = c * nums[k]", "shared = c * nums[k - 1]", "tests/test_fock.py"),
    Mutant("poisson-step-scalar-read-as-lambda", "fock.py", "_poisson_step",
           "own = created if scalars[k] == lam else c * scalars[k]", "own = created",
           "tests/test_fock.py"),
    # the borrow's digit side: dropping its ``packed += 1`` instead never ends on a
    # negative leading digit, since the loop then reads -1 until memory runs out
    Mutant("decoder-negative-digit-one-high", "ring.py", "_undiagonals",
           "coeff -= mask + 1", "coeff -= mask", "tests/test_folded.py"),
    # the Jacobi entries built once: the binomial's variance factor, a preset's memo
    Mutant("binomial-variance-without-one-minus-p", "orthopoly.py", "binomial",
           "p * (1 - p)", "p", "tests/test_orthopoly.py"),
    Mutant("t-gauge-alpha-one-power-short", "orthopoly.py", "_t_gauge_alpha",
           "T**n", "T**(n - 1)", "tests/test_orthopoly.py"),
    Mutant("statistics-rc-rn-swapped", "partitions.py", "_statistics",
           "rc + crossed, rn + nested", "rc + nested, rn + crossed", "tests/test_partitions.py"),
    Mutant("qt-factorial-one-factor-short", "qtnum.py", "qt_factorial",
           "range(1, n + 1)", "range(1, n)", "tests/test_qtnum.py"),
    Mutant("jfraction-walk-one-level-short", "orthopoly.py", "_jfraction_walk",
           "order // 2), -1, -1)", "order // 2) - 1, -1, -1)", "tests/test_cfrac.py"),
    Mutant("render-cf-prints-b-for-lam", "cfrac.py", "render_cf",
           "lam_str = str(spec.lam[h])", "lam_str = str(spec.b[h])", "tests/test_cfrac.py"),
    # a shallow fraction would drop reachable levels without a word
    Mutant("cf-series-depth-guard-off", "cfrac.py", "cf_series",
           "if spec.depth < needed:", "if False:", "tests/test_cfrac.py"),
    # each check's comparisons, every one shown able to fail
    Mutant("commutation-always-holds", "fock.py", "check_commutation",
           "report.record(lhs == rhs,", "report.record(True,", "tests/test_fock.py"),
    Mutant("adjointness-always-holds", "fock.py", "check_adjointness",
           "report.record(lhs == rhs,", "report.record(True,", "tests/test_fock.py"),
    Mutant("gram-positivity-accepts-zero", "fock.py", "check_gram_positivity",
           "minor > 0", "minor >= 0", "tests/test_fock.py"),
    Mutant("orthogonality-always-holds", "orthopoly.py", "check_orthogonality",
           "report.record(value == expected,", "report.record(True,", "tests/test_orthopoly.py"),
    Mutant("charlier-fock-rows-always-hold", "orthopoly.py", "check_charlier_fock_identity",
           "row == [0] * n + [LAMBDA**n],", "True,", "tests/test_orthopoly.py"),
    Mutant("poisson-limit-epsilon-zero-always-holds", "orthopoly.py", "poisson_limit_check",
           'report.record(mk.coefficient_of("x", 0) == pk,', "report.record(True,",
           "tests/test_orthopoly.py"),
    Mutant("poisson-limit-at-m-always-holds", "orthopoly.py", "poisson_limit_check",
           "report.record(mk.eval(at_m) == bk,", "report.record(True,", "tests/test_orthopoly.py"),
    # verify's gate: each comparison, the failure test and the short line's status
    Mutant("moment-routes-always-agree", "cli.py", "_check_moments",
           "report.record(route(n) == expected,", "report.record(True,", "tests/test_cli.py"),
    Mutant("card-bijection-always-holds", "cli.py", "_check_cards",
           "report.record(exps == expected.get(owner) and owner not in seen,",
           "report.record(True,", "tests/test_cli.py"),
    Mutant("card-count-always-holds", "cli.py", "_check_cards",
           "report.record(len(seen) == len(expected),", "report.record(True,", "tests/test_cli.py"),
    Mutant("verify-ignores-failures", "cli.py", "cmd_verify",
           "if not report.passed:", "if False:", "tests/test_cli.py"),
    Mutant("short-line-always-ok", "cli.py", "cmd_verify",
           "'ok' if report.passed else", "'ok' if True else", "tests/test_cli.py"),
]

#: (module file, anchor, message) of each ``report.record(`` call that no row
#: covers, because its comparison cannot fail.
CANNOT_FAIL = [
    # the walk starts from the vacuum, so P_0 applied to it is the vacuum
    ("orthopoly.py", "check_charlier_fock_identity", "P_0 vacuum is the vacuum"),
]


def anchor_node(tree: ast.Module, anchor: str) -> ast.AST | None:
    """The function, or ``Class.method``, that ``anchor`` names in ``tree``."""
    body, node = tree.body, None
    for name in anchor.split("."):
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            return None
        body = node.body
    return node


def mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's old text replaced inside its anchor;
    ValueError unless the anchor exists and holds the old text exactly once."""
    node = anchor_node(ast.parse(text), mutant.anchor)
    if node is None:
        raise ValueError(f"{mutant.name}: no {mutant.anchor} in {mutant.path}")
    lines = text.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1]))
    end = sum(map(len, lines[: node.end_lineno]))
    count = text[start:end].count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.anchor}")
    return text[:start] + text[start:end].replace(mutant.old, mutant.new) + text[end:]


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(mutant: Mutant) -> int | None:
    """pytest's exit status on the row's test file against a mutated copy of
    ``src/``; None if it ran past the timeout."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = os.path.join(src, "qtmoments", mutant.path)
        with open(path) as f:
            text = mutated(mutant, f.read())
        with open(path, "w") as f:
            f.write(text)
        env = {**os.environ, "PYTHONPATH": src}
        where = subprocess.run([sys.executable, "-c", "import qtmoments; print(qtmoments.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if where.stdout.strip() != os.path.join(src, "qtmoments", "__init__.py"):
            raise RuntimeError(f"{mutant.name}: qtmoments imports from {where.stdout.strip()}")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "--tb=line", "-p", "no:cacheprovider",
                mutant.tests]
        try:
            return subprocess.run(argv, env=env, cwd=ROOT, timeout=TIMEOUT_S,
                                  preexec_fn=_limit_address_space).returncode
        except subprocess.TimeoutExpired:
            return None


def main() -> int:
    killed = 0
    for mutant in MUTANTS:
        print(f"== {mutant.name}: {mutant.old!r} -> {mutant.new!r} in {mutant.path} "
              f"{mutant.anchor}, against {mutant.tests}", flush=True)
        status = run(mutant)
        print(f"== {mutant.name}: pytest exited {status} (1: tests failed, the mutant is killed)",
              flush=True)
        killed += status == 1
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
