"""CLI surface: subcommands, exit codes, output formats, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import qtmoments
from qtmoments import cli
from qtmoments.cards import (
    _expansion_states,
    arrangement_record,
    enumerate_contributors,
    expand_arrangements,
    moment_by_cards,
)
from qtmoments.cli import SCHEMA, SUITES, build_parser, main, rational
from qtmoments.fock import OperatorWord, ScalarGauge, check_commutation
from qtmoments.orthopoly import (
    charlier_strict,
    moments_by_motzkin,
    poisson_limit_check,
    three_term_polys,
)
from qtmoments.partitions import enumerate_partitions, partition_record
from qtmoments.qtnum import qt_factorial
from qtmoments.ring import LAMBDA, VARIABLES, Poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rational_parsing():
    from fractions import Fraction

    assert rational("1/3") == Fraction(1, 3)
    assert rational("-2") == Fraction(-2)
    with pytest.raises(Exception):
        rational("x/y")


def test_moments_all_methods_agree(capsys):
    code, out, err = run(capsys, "moments", "--n", "4", "--mode", "covered",
                         "--method", "all", "--output", "pretty")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # five methods plus the consensus line
    polys = {line.split(": ", 1)[1] for line in lines[:5]}
    assert len(polys) == 1
    assert lines[-1] == Poly.parse(
        "lambda^3*t^2 + lambda^4 + 2*lambda^3*t + 3*lambda^3"
        " + 3*lambda^2*t + lambda^2*q + 3*lambda^2 + lambda"
    ).canonical_str()


def test_moments_json_schema(capsys):
    code, out, _ = run(capsys, "moments", "--n", "3", "--method", "motzkin",
                       "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "qtmoments/1"
    assert record["agree"] is True
    assert record["methods"]["motzkin"] == "lambda^3 + 3*lambda^2 + lambda"


def test_moments_strict_vs_covered_difference(capsys):
    _, out_strict, _ = run(capsys, "moments", "--n", "3", "--mode", "strict",
                           "--method", "cfrac", "--output", "pretty")
    _, out_covered, _ = run(capsys, "moments", "--n", "3", "--mode", "covered",
                            "--method", "cfrac", "--output", "pretty")
    strict = Poly.parse(out_strict.strip().splitlines()[-1])
    covered = Poly.parse(out_covered.strip().splitlines()[-1])
    diff = strict - covered
    assert diff == Poly.parse("-lambda^2*t + lambda^2")  # (1 - t) lambda^2


def test_moments_rational_evaluation(capsys):
    code, out, _ = run(capsys, "moments", "--n", "3", "--method", "partitions",
                       "--q", "1", "--t", "1", "--lambda", "1",
                       "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,n,q,t,lambda,moment"
    assert lines[1].endswith(",5")  # Bell number B(3)


def test_moments_partial_params_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--n", "3", "--q", "1/2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, mode, gauge",
    [
        ([], "strict", "identity"),
        (["--mode", "strict"], "strict", "identity"),
        (["--mode", "covered"], "covered", "tpowern"),
    ],
    ids=["default", "strict", "covered"],
)
def test_moments_json_names_mode_and_gauge(capsys, flags, mode, gauge):
    code, out, _ = run(capsys, "moments", "--n", "2", "--method", "motzkin",
                       *flags, "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert (record["mode"], record["gauge"]) == (mode, gauge)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["moments"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_partitions_listing(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "3")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5
    assert records[0]["schema"] == "qtmoments/1"
    covered = [r for r in records if r["rn_covered"] > r["rn_strict"]]
    assert len(covered) == 1
    assert covered[0]["rgs"] == [0, 1, 0]


def test_charlier_table(capsys):
    code, out, _ = run(capsys, "charlier", "--n-max", "2", "--output", "json")
    record = json.loads(out)
    assert record["polys"] == [
        "1",
        "-lambda + x",
        "lambda^2 - 2*lambda*x + x^2 - x",
    ]


@pytest.mark.parametrize("n_max", [0, 1, 6, 10])
@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_streamed_charlier_table_is_json_dumps_of_the_polys(capsys, preset, n_max):
    strings = [p.canonical_str() for p in three_term_polys(cli.PRESETS[preset](), n_max)]
    argv = ["charlier", "--n-max", str(n_max), "--preset", preset, "--output"]
    expected = json.dumps({"polys": strings, "preset": preset, "schema": SCHEMA}, sort_keys=True)
    assert run(capsys, *argv, "json") == (0, expected + "\n", "")
    pretty = "".join(f"P_{k} = {s}\n" for k, s in enumerate(strings))
    assert run(capsys, *argv, "pretty") == (0, pretty, "")


def _assert_needs_no_json_escaping(text):
    assert set(text) <= set(" *+-^0123456789").union(*VARIABLES), text
    assert json.dumps(text)[1:-1] == text


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_charlier_text_needs_no_json_escaping(preset):
    # cmd_charlier writes the text chunks of each P_k into its JSON string unescaped
    for p in three_term_polys(cli.PRESETS[preset](), 10):
        for text in (p.canonical_str(), *p._text_chunks()):
            _assert_needs_no_json_escaping(text)


@given(st.lists(st.tuples(st.integers(-(10**12), 10**12), st.fixed_dictionaries(
    {}, optional={v: st.integers(0, 30) for v in VARIABLES}))).map(Poly.from_terms))
@settings(max_examples=100, deadline=None)
@example(Poly.zero())
@example(Poly.constant(-7))
@example(-LAMBDA)
def test_canonical_text_needs_no_json_escaping(p):
    for text in (p.canonical_str(), *p._text_chunks()):
        _assert_needs_no_json_escaping(text)


class _HashSink:
    """Stands in for stdout: hashes the text and keeps none of it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_charlier_table_holds_one_decoded_poly_at_a_time(monkeypatch):
    # Holding P_0..P_10 of tgauge decoded at once, with their text, peaks near 6 MB.
    argv = ["charlier", "--n-max", "10", "--preset", "tgauge", "--output", "json"]
    sink = _HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4_000_000, f"traced peak {peak / 1e6:.2f} MB"
    strings = [p.canonical_str() for p in three_term_polys(cli.PRESETS["tgauge"](), 10)]
    expected = json.dumps({"polys": strings, "preset": "tgauge", "schema": SCHEMA}, sort_keys=True)
    assert sink.hash.hexdigest() == hashlib.sha256((expected + "\n").encode()).hexdigest()


def test_charlier_rational_moment_table(capsys):
    code, out, _ = run(capsys, "charlier", "--n-max", "4", "--q", "1/3",
                       "--t", "2/3", "--lambda", "1", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,q,t,lambda,moment"
    assert lines[1] == "0,1/3,2/3,1,1"
    assert lines[3] == "2,1/3,2/3,1,2"


def test_cards_dump_word(capsys):
    code, out, _ = run(capsys, "cards", "--word", "AASNCC", "--output", "json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 4
    assert {r["weight"] for r in records} == {
        "lambda^3*t^2", "lambda^3*t*q", "lambda^3*q^2"
    }


def test_cards_dump_all(capsys):
    code, out, _ = run(capsys, "cards", "--n", "3", "--output", "json")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5  # bijection with partitions of {1,2,3}


# -- listing lines, byte for byte ------------------------------------------------


def _partition_line(p, output):
    record = partition_record(p)
    if output == "json":
        return json.dumps({**record, "schema": SCHEMA}, sort_keys=True)
    return (f"{p}  blocks={record['blocks']} rc={record['rc']} "
            f"rn_strict={record['rn_strict']} rn_covered={record['rn_covered']}")


def _card_line(arr, output):
    record = arrangement_record(arr)
    if output == "json":
        return json.dumps({**record, "schema": SCHEMA}, sort_keys=True)
    return (f"{record['word']}  cards={','.join(record['cards'])}  "
            f"weight={record['weight']}  partition={record['partition']}")


#: (argv, the records each listing line is formatted from): partitions for
#: k <= 9, cards for k <= 8 in both modes, and one word's cards.
LISTINGS = [
    *((["partitions", "--n", str(k)], lambda k=k: enumerate_partitions(k)) for k in range(1, 10)),
    *((["cards", "--n", str(k), "--mode", mode],
       lambda k=k, gauge=gauge: [arr for word in enumerate_contributors(k)
                                 for arr in expand_arrangements(word, gauge)])
      for k in range(1, 9) for mode, (gauge, _) in cli.MODES.items()),
    *((["cards", "--word", "AASNCC", "--mode", mode],
       lambda gauge=gauge: expand_arrangements(OperatorWord.from_string("AASNCC"), gauge))
      for mode, (gauge, _) in cli.MODES.items()),
]


@pytest.mark.parametrize("output", ["json", "pretty"])
def test_listing_lines_are_the_records_byte_for_byte(capsys, output):
    for argv, records in LISTINGS:
        line = _partition_line if argv[0] == "partitions" else _card_line
        code, out, _ = run(capsys, *argv, "--output", output)
        assert code == 0
        assert out.splitlines() == [line(r, output) for r in records()], argv
        assert out.endswith("\n")


def test_listing_fields_need_no_json_escaping():
    # the listing templates quote card names, words and weights without escaping
    plain = re.compile(r"[A-Za-z0-9_^*+-]*")
    texts = 0
    for argv, records in LISTINGS:
        if argv[0] == "cards":
            for arr in records():
                record = arrangement_record(arr)
                for text in (record["word"], record["weight"], *record["cards"]):
                    assert plain.fullmatch(text), (argv, text)
                    texts += 1
    assert texts > 10**5


CLOSED_PIPES = [
    (["partitions", "--n", "10"], 1),
    (["cards", "--n", "8"], 1),
    (["cards", "--n", "8", "--output", "json"], 1),
    (["cards", "--n", "3"], 0),
]


@pytest.mark.parametrize("argv, lines", CLOSED_PIPES,
                         ids=[f"{' '.join(argv)} read {lines}" for argv, lines in CLOSED_PIPES])
def test_listing_into_a_closed_pipe_exits_quietly(argv, lines):
    # like `qtmoments partitions --n 10 | head -1`: the reader leaves after
    # `lines` lines; stdout is block-buffered, so the exit-time flush is tested
    src = os.path.dirname(os.path.dirname(qtmoments.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.Popen([sys.executable, "-m", "qtmoments", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_cfrac_series(capsys):
    code, out, _ = run(capsys, "cfrac", "--order", "4", "--output", "json")
    record = json.loads(out)
    assert record["series"][2] == "lambda^2 + lambda"


def test_cfrac_depth_half_an_odd_order(capsys):
    code, out, _ = run(capsys, "cfrac", "--order", "5", "--depth", "2", "--output", "json")
    assert code == 0
    record = json.loads(out)
    assert record["depth"] == 2
    assert record["series"] == [
        m.canonical_str() for m in moments_by_motzkin(charlier_strict(), 5)
    ]


def test_binomial_moments(capsys):
    code, out, _ = run(capsys, "binomial", "--n-max", "3", "--m", "10",
                       "--p", "1/10", "--q", "1/3", "--t", "2/3",
                       "--output", "pretty")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,q,t,m,p,moment"
    assert lines[1].endswith(",1")   # zeroth moment
    assert lines[2].endswith(",1")   # first moment = m p = 1


def test_word_command(capsys):
    code, out, _ = run(capsys, "word", "--word", "AC", "--output", "pretty")
    assert code == 0
    assert out.strip() == "lambda"


@pytest.mark.parametrize("mode", ["strict", "covered"])
def test_word_command_on_a_long_word(capsys, mode):
    # 30 creations, then 30 annihilations: lambda^30 [30]!
    code, out, _ = run(capsys, "word", "--word", "A" * 30 + "C" * 30, "--mode", mode)
    assert code == 0
    assert out == (LAMBDA**30 * qt_factorial(30)).canonical_str() + "\n"


def test_verify_small(capsys):
    code, out, err = run(capsys, "verify", "--suite", "moments", "--n-max", "4")
    assert code == 0
    assert "all checks passed" in out


def _verify(capsys, suite, n_max=3):
    return run(capsys, "verify", "--suite", suite, "--n-max", str(n_max))


def _wrong_strict_cards(n, gauge):
    value = moment_by_cards(n, gauge)
    return value + 1 if (n, gauge) == (3, ScalarGauge.IDENTITY) else value


def _reweighted_pairs(words, covered=False):
    for text, cards, owner, (lam, q, t) in _expansion_states(words, covered):
        yield text, cards, owner, (lam, q + 1 if len(text) == 2 else q, t)


def _repeated_pairs(words, covered=False):
    for state in _expansion_states(words, covered):
        yield from [state] * (2 if len(state[0]) == 2 else 1)


def _not_converging(*args):
    report = poisson_limit_check(*args)
    report.record(False, "injected deviation failure")
    return report


def _failing_commutation(depth):
    report = check_commutation(depth)
    report.record(False, "injected failure")
    return report


#: One broken check per line style of ``verify``: (suite, cli name replaced,
#: replacement, the failing line, the failure's name).
BROKEN_CHECKS = [
    ("moments", "moment_by_cards", _wrong_strict_cards,
     "moments strict n=3: MISMATCH ['cards']", "moments strict n=3"),
    ("cards", "_expansion_states", _reweighted_pairs,
     "cards bijection n=2: MISMATCH", "cards bijection n=2"),
    ("cards", "_expansion_states", _repeated_pairs,
     "cards bijection n=2: MISMATCH", "cards bijection n=2"),
    ("orthopoly", "poisson_limit_check", _not_converging,
     "poisson-limit: FAILED", "poisson-limit"),
    ("fock", "check_commutation", _failing_commutation,
     "commutation: 13 checks, 1 failure(s)", "commutation"),
]


@pytest.mark.parametrize(
    "suite, target, replacement, line, name", BROKEN_CHECKS,
    ids=[replacement.__name__.strip("_") for _, _, replacement, _, _ in BROKEN_CHECKS],
)
def test_verify_failure_exits_one(capsys, monkeypatch, suite, target, replacement, line, name):
    _, passing, _ = _verify(capsys, suite)
    monkeypatch.setattr(cli, target, replacement)
    code, out, err = _verify(capsys, suite)
    assert code == 1
    # Only the broken check's line changes, and no closing line is printed.
    expected = [line if old.startswith(f"{name}:") else old
                for old in passing.splitlines()[:-1]]
    assert expected.count(line) == 1
    assert out.splitlines() == expected
    assert err == f"verification failed: [{name!r}]\n"


def test_verify_all_is_every_suite_in_table_order(capsys):
    singles = "".join(
        _verify(capsys, suite)[1].removesuffix("all checks passed\n") for suite in SUITES
    )
    assert _verify(capsys, "all") == (0, singles + "all checks passed\n", "")


def test_verify_suite_choices_come_from_the_table():
    suite = next(a for a in build_parser().commands["verify"]._actions if a.dest == "suite")
    assert suite.choices == ["all", *SUITES]


#: A mixed request sequence for one shared parser: a usage error, both arms
#: of the cards --n/--word exclusive group, and point/no-point requests.
MIXED_REQUESTS = [
    ["moments", "--n", "3", "--q=1/2"],
    ["cards", "--n", "3"],
    ["cards", "--word", "AASNCC"],
    ["moments", "--n", "4", "--method", "motzkin", "--q=-1/4", "--t=2/3",
     "--lambda=3/2", "--output", "json"],
    ["charlier", "--n-max", "5", "--q=1/3", "--t=2/3", "--lambda=1"],
    ["charlier", "--n-max", "3"],
]


def _outcome(capsys, argv):
    """The exit code, stdout and stderr of one ``main`` call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _serve(capsys, requests) -> dict:
    return {" ".join(argv): _outcome(capsys, argv) for argv in requests}


def test_one_parser_serves_requests_in_any_order(capsys):
    forward = _serve(capsys, MIXED_REQUESTS)
    shuffled = _serve(capsys, [MIXED_REQUESTS[i] for i in (2, 0, 5, 1, 4, 3)])
    assert forward == shuffled
    codes = [code for code, _, _ in forward.values()]
    assert codes == [2, 0, 0, 0, 0, 0]
    assert all(out for code, out, _ in forward.values() if code == 0)
    assert build_parser() is build_parser()


#: Requests the model or a cross-argument check rejects: each is a usage error.
INVALID_ARGVS = [
    ["cards", "--word", "XYZ"],
    ["cards", "--word", ""],
    ["cards", "--word", " "],
    ["cards", "--word", "CA"],
    ["cards", "--word", "CAC"],
    ["cards", "--word", "ASAC"],
    ["cards", "--n", "8", "--word", "AC"],
    ["cards", "--n", "0"],
    ["cards", "--n", "-3"],
    ["partitions", "--n", "0"],
    ["moments", "--n", "0"],
    ["charlier", "--n-max", "-1"],
    ["charlier", "--n-max", "3", "--q=1/2"],
    ["charlier", "--n-max", "3", "--output", "csv"],
    ["cfrac", "--order", "4", "--depth", "0"],
    ["cfrac", "--order", "4", "--depth", "1"],
    ["cfrac", "--order", "-1"],
    ["verify", "--n-max", "0"],
    ["moments", "--n", "3", "--gauge", "tpowern"],
    ["cards", "--word", "CA", "--output", "csv"],
    ["word", "--word", "AC", "--output", "csv"],
    ["word", "--word", "CX"],
    ["word", "--word", "A C"],
]


#: One argv of each bench request shape, and the spellings argparse accepts.
VALID_ARGVS = [
    ["moments", "--n", "7", "--method", "operator", "--q=1/3", "--t=2/3", "--lambda=1",
     "--mode", "covered", "--output", "json"],
    ["moments", "--n", "6", "--method", "motzkin", "--q=-1/4", "--t=2/3", "--lambda=3/2",
     "--output", "csv"],
    ["moments", "--n", "14", "--method", "motzkin", "--output", "json"],
    ["moments", "--n=3"],
    ["moments", "--n", "3", "--q", "1/2", "--t", "1", "--lambda", "2"],
    ["moments", "--n", "3", "--mod", "covered"],
    ["charlier", "--n-max", "6", "--preset", "tgauge", "--q=1/3", "--t=2/3", "--lambda=1",
     "--output", "csv"],
    ["charlier", "--n-max", "10", "--preset", "strict", "--output", "json"],
    ["binomial", "--n-max", "12", "--m", "7/2", "--p", "2/5", "--q=-1/2", "--t=3/4",
     "--output", "json"],
    ["word", "--word", "CNA", "--mode", "covered", "--output", "json"],
    ["cards", "--word", "AASNCC", "--output", "pretty"],
    ["cards", "--n", "8", "--mode", "covered", "--output", "json"],
    ["cfrac", "--order", "10", "--preset", "tgauge", "--output", "json"],
    ["partitions", "--n", "9"],
    ["verify", "--suite", "all", "--n-max", "8"],
    ["verify"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_subparser_reads_what_the_tree_reads(argv):
    parser = build_parser()
    assert cli._parse_args(parser, argv) == parser.parse_args(argv)


#: Arguments that argparse or main rejects, or that ask for help.
REJECTED_ARGVS = [
    ["moments", "--n", "3", "--bogus"],
    ["moments", "--n", "3", "extra"],
    ["moments", "--n", "3", "--"],
    ["moments", "--", "--n", "3"],
    ["moments", "--n", "x"],
    ["moments", "--n", "3", "--mode", "sideways"],
    ["moments", "--method", "motzkin"],
    ["moments", "--n", "3", "--q", "-1/2", "--t", "1", "--lambda", "1"],
    ["cards", "--output", "json"],
    ["nonsense", "--n", "3"],
    [],
    ["-h"],
    ["moments", "-h"],
    ["verify", "--help"],
]


@pytest.mark.parametrize("argv", REJECTED_ARGVS + INVALID_ARGVS,
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_subparser_fails_as_the_tree_fails(capsys, monkeypatch, argv):
    own = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda parser, argv: parser.parse_args(argv))
    tree = _outcome(capsys, argv)
    assert own == tree
    assert own[0] == (0 if "-h" in argv or "--help" in argv else 2)


@pytest.mark.parametrize("argv", INVALID_ARGVS, ids=" ".join)
def test_invalid_input_is_a_usage_error(argv):
    src = os.path.dirname(os.path.dirname(qtmoments.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "qtmoments", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["moments", "partitions", "cards"])
def test_a_size_below_one_is_a_parser_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "0"])
    assert exc.value.code == 2
    assert "--n must be >= 1" in capsys.readouterr().err


def test_invalid_letter_error_names_the_word(capsys):
    code, out, err = run(capsys, "cards", "--word", "XYZ")
    assert (code, out) == (2, "")
    assert err.startswith("error: ValueError: ") and "'XYZ'" in err


def _clear_memos():
    cli._moment.cache_clear()
    cli._moment_text.cache_clear()


@pytest.fixture
def fresh_memo():
    """Empty point-query moment and text memos before and after the test."""
    _clear_memos()
    yield
    _clear_memos()


POINT_A = ["--q=1/3", "--t=2/3", "--lambda=1"]
POINT_B = ["--q=-1/4", "--t=2/3", "--lambda=3/2"]


@pytest.mark.parametrize("method, target", [("operator", "moment_by_operator"),
                                            ("motzkin", "moments_by_motzkin")])
def test_point_requests_compute_each_moment_once(capsys, monkeypatch, fresh_memo,
                                                 method, target):
    calls = []
    real = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda *args: calls.append(args) or real(*args))
    argv = ["moments", "--n", "6", "--method", method, "--mode", "covered", "--output", "json"]
    code_a, out_a, _ = run(capsys, *argv, *POINT_A)
    code_b, out_b, _ = run(capsys, *argv, *POINT_B)
    assert code_a == code_b == 0
    assert len(calls) == 1
    assert json.loads(out_a)["value"] != json.loads(out_b)["value"]
    # Another mode is another moment.
    run(capsys, "moments", "--n", "6", "--method", method, *POINT_A)
    assert len(calls) == 2


def test_symbolic_request_leaves_the_memo_empty(capsys, fresh_memo):
    assert run(capsys, "moments", "--n", "5", "--method", "all")[0] == 0
    assert cli._moment.cache_info().currsize == 0
    assert run(capsys, "moments", "--n", "5", "--method", "all", *POINT_A)[0] == 0
    assert cli._moment.cache_info().currsize == 5


@pytest.mark.parametrize("output", ["json", "csv", "pretty"])
def test_memoised_request_prints_what_a_fresh_one_prints(capsys, fresh_memo, output):
    argv = ["moments", "--n", "5", "--mode", "covered", "--output", output]
    run(capsys, *argv, *POINT_A)
    memoised = run(capsys, *argv, *POINT_B)
    assert cli._moment.cache_info().misses == 5  # the second request computed none
    _clear_memos()
    assert run(capsys, *argv, *POINT_B) == memoised
    assert memoised[0] == 0 and memoised[1]


def test_point_requests_render_each_moment_once(capsys, monkeypatch, fresh_memo):
    rendered = []
    real = Poly.canonical_str
    monkeypatch.setattr(Poly, "canonical_str", lambda p: rendered.append(p) or real(p))
    argv = ["moments", "--n", "5", "--mode", "covered"]
    outputs = [run(capsys, *argv, *point, "--output", output)
               for output in ("json", "pretty") for point in (POINT_A, POINT_B)]
    assert [code for code, _, _ in outputs] == [0] * 4
    assert rendered == [cli._moment(name, "covered", 5) for name in cli._routes("covered", 5)]
    # a csv point request prints no text; a symbolic request renders afresh
    assert run(capsys, *argv, *POINT_A, "--output", "csv")[0] == 0
    assert len(rendered) == 5
    assert run(capsys, *argv, "--output", "json")[0] == 0
    assert len(rendered) == 10


def test_point_request_still_compares_every_route(capsys, monkeypatch, fresh_memo):
    monkeypatch.setattr(cli, "moment_by_cards", _wrong_strict_cards)
    for point in (POINT_A, POINT_B):  # computed, then read from the memo
        code, out, err = run(capsys, "moments", "--n", "3", "--output", "json", *point)
        assert code == 1
        assert err == "error: moment methods disagree\n"
        assert json.loads(out)["agree"] is False
