"""CI's heavy checks, one function each: it takes its size, prints one line per
comparison and raises AssertionError at the first that fails.  Pytest does not collect
this file; tier-1 runs each function at a small size and on a seeded break.  To run a
CI step locally, from the repository root:

    PYTHONPATH=src:tests python -c 'import ci_checks; ci_checks.card_histogram(11, 12)'
"""

import contextlib
import io
import json
import subprocess
import sys
import time

from qtmoments import cards, cli
from qtmoments.cards import arrangement_record, enumerate_contributors, expand_arrangements
from qtmoments.cli import MODES, PRESETS, SCHEMA
from qtmoments.fock import OperatorWord, ScalarGauge, moment_by_operator
from qtmoments.orthopoly import (check_orthogonality, jfraction_series, moments_by_motzkin,
                                 poisson_limit_check, three_term_polys)
from qtmoments.partitions import _weight_census, enumerate_partitions, partition_record

from oracles import bell_numbers, factorwise_canonical_str


def _check(ok: bool, line: str) -> None:
    print(f"{line}: {'ok' if ok else 'FAILED'}", flush=True)
    if not ok:
        raise AssertionError(line)


def _main(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one ``cli.main`` call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def card_histogram(*sizes: int) -> dict:
    """At each n, the card walk's histogram (not only its two projections, the
    moments) equals the partition census and counts Bell(n); returns {n: histogram}."""
    bell, histograms = bell_numbers(max(sizes)), {}
    for n in sizes:
        histograms[n] = histogram = cards._card_histogram(n)
        _check(histogram == _weight_census(n) and sum(histogram.values()) == bell[n]
               and all(count > 0 for count in histogram.values()),
               f"card histogram n={n}: {len(histogram)} keys, {bell[n]} partitions, "
               "equal to the census")
    return histograms


def _partition_line(p, output: str) -> str:
    record = partition_record(p)
    if output == "json":
        return json.dumps({**record, "schema": SCHEMA}, sort_keys=True)
    return (f"{p}  blocks={record['blocks']} rc={record['rc']} "
            f"rn_strict={record['rn_strict']} rn_covered={record['rn_covered']}")


def _card_line(arr, output: str) -> str:
    record = arrangement_record(arr)
    if output == "json":
        return json.dumps({**record, "schema": SCHEMA}, sort_keys=True)
    return (f"{record['word']}  cards={','.join(record['cards'])}  "
            f"weight={record['weight']}  partition={record['partition']}")


def _listings(n: int) -> list:
    """(argv, records, line count) of each listing up to n: partitions for k <= n,
    cards for k < n in both modes, and one word's cards."""
    bell = bell_numbers(n)
    return [
        *((["partitions", "--n", str(k)], lambda k=k: enumerate_partitions(k), bell[k])
          for k in range(1, n + 1)),
        *((["cards", "--n", str(k), "--mode", mode],
           lambda k=k, gauge=gauge: [arr for word in enumerate_contributors(k)
                                     for arr in expand_arrangements(word, gauge)], bell[k])
          for k in range(1, n) for mode, (gauge, _) in MODES.items()),
        *((["cards", "--word", "AASNCC", "--mode", mode],
           lambda gauge=gauge: expand_arrangements(OperatorWord.from_string("AASNCC"), gauge), 4)
          for mode, (gauge, _) in MODES.items()),
    ]


def listings(n: int, outputs=("json", "pretty")) -> None:
    """Each line of each listing of :func:`_listings` is its library record, as sorted
    JSON or pretty: at n = 10, 115,975 partition and 2 x 21,147 card lines per output."""
    for argv, records, count in _listings(n):
        line = _partition_line if argv[0] == "partitions" else _card_line
        for output in outputs:
            code, out, err = _main([*argv, "--output", output])
            lines = out.splitlines()
            _check((code, err) == (0, "") and out.endswith("\n") and len(lines) == count
                   and lines == [line(r, output) for r in records()],
                   f"{' '.join(argv)} --output {output}: {len(lines)} lines, each its record's")


def charlier_table(n_max: int, presets=("strict", "tgauge")) -> None:
    """The streamed ``charlier`` table is json.dumps of the polys, or their ``P_k =``
    lines, each P_k's text from the factor-by-factor oracle, not the printer itself."""
    for preset in presets:
        strings = [factorwise_canonical_str(p) for p in three_term_polys(PRESETS[preset](), n_max)]
        polys = json.dumps({"polys": strings, "preset": preset, "schema": SCHEMA}, sort_keys=True)
        pretty = "".join(f"P_{k} = {s}\n" for k, s in enumerate(strings))
        for output, text in (("json", polys + "\n"), ("pretty", pretty)):
            argv = ["charlier", "--n-max", str(n_max), "--preset", preset, "--output", output]
            outcome = _main(argv)
            _check(outcome == (0, text, ""),
                   f"{' '.join(argv)}: {len(outcome[1])} characters, the oracle's text")


def mixed_requests(n: int) -> None:
    """Point ``moments`` at n, some repeated, amid all eight commands and five usage
    errors (NotContributor and InsufficientDepth among them): through one ``cli.main``
    loop, each request's exit code, stdout and stderr are a fresh process's bytes."""
    points = ["--q=1/3 --t=2/3 --lambda=1", "--q=-1/4 --t=2/3 --lambda=3/2",
              "--q=5/6 --t=1/6 --lambda=1"]
    combos = [(method, mode, output) for method in ("operator", "motzkin")
              for mode in ("strict", "covered") for output in ("json", "csv", "pretty")]
    requests = [f"moments --n {n} --method {method} --mode {mode} {points[i % 3]} --output {output}"
                for i, (method, mode, output) in enumerate(combos + combos[:6])]
    requests[3:3] = [
        f"charlier --n-max 6 --preset tgauge {points[1]} --output csv",
        "binomial --n-max 8 --m 7/2 --p 2/5 --output json",
        "word --word AANSCC --mode covered --output json",
        "moments --n 3 --bogus", "cards --word AASNCC", "cards --word CA",
        "cfrac --order 5 --preset ejsmont", "cfrac --order 6 --depth 1",
        "partitions --n 4 --output pretty", "charlier --n-max 3 --q=1/2",
        "verify --suite orthopoly --n-max 4", "nonsense --n 3",
    ]
    codes = []
    for request in requests:
        code, out, err = _main(request.split())
        fresh = subprocess.run([sys.executable, "-m", "qtmoments", *request.split()],
                               capture_output=True)
        _check((code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr),
               f"{request}: exit {code}, a fresh process's bytes")
        codes.append(code)
    moments, texts = cli._moment.cache_info(), cli._moment_text.cache_info()
    _check(codes.count(2) == 5 and set(codes) == {0, 2} and moments.hits > 0 and texts.hits > 0
           and set(cli.build_parser().commands) <= {request.split()[0] for request in requests},
           f"five usage errors, every command; memo: {moments.misses} moments computed, "
           f"{texts.misses} texts rendered, {texts.hits} reused")


def _timed(label: str, compute):
    start = time.perf_counter()
    value = compute()
    print(f"{label}: {time.perf_counter() - start:.2f} s", flush=True)
    return value


def operator_motzkin(n: int) -> dict:
    """Operator == Motzkin at n in both conventions, each timed; returns {mode:
    moment}.  The J-fraction, which takes 30-55 s at n = 30, is left out."""
    moments = {}
    for mode, (gauge, preset) in MODES.items():
        moments[mode] = operator = _timed(f"{mode} operator", lambda: moment_by_operator(n, gauge))
        motzkin = _timed(f"{mode} motzkin", lambda: moments_by_motzkin(preset(), n)[n])
        _check(bool(operator) and operator == motzkin, f"{mode}: operator == motzkin at n={n}")
    return moments


def three_routes(n: int, n_poisson: int) -> None:
    """:func:`operator_motzkin`, and the J-fraction agrees; the strict moment is
    q<->t symmetric, the covered n=3 one is not.  The operator moments 0..n, which
    never read alpha or omega, make P_0..P_(n/2) orthogonal.  The epsilon^0 parts of
    the binomial epsilon-moments to ``n_poisson`` are the strict Charlier moments."""
    moments = operator_motzkin(n)
    for mode, (gauge, preset) in MODES.items():
        cfrac = _timed(f"{mode} cfrac", lambda: jfraction_series(preset(), n)[n])
        _check(cfrac == moments[mode], f"{mode}: the J-fraction agrees at n={n}")
        report = _timed(f"{mode} orthogonality", lambda: check_orthogonality(
            preset(), n // 2, [moment_by_operator(k, gauge) for k in range(n + 1)]))
        _check(report.passed and report.checked == (n // 2 + 1) ** 2,
               f"{report.name} on operator moments: {report.checked} checks")
    swap, covered = {"q": "t", "t": "q"}, moment_by_operator(3, ScalarGauge.T_POWER_N)
    _check(moments["strict"].rename(swap) == moments["strict"], f"strict n={n} unchanged by q<->t")
    _check(covered.rename(swap) != covered, "covered n=3 changed by q<->t (negative control)")
    limit = _timed("poisson limit", lambda: poisson_limit_check(n_poisson, 1, [10, 100, 1000]))
    _check(limit.passed and limit.checked == 4 * (n_poisson + 1),
           f"{limit.name} to n_max={n_poisson}: {limit.checked} checks")
