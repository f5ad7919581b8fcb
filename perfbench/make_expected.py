"""Build ``expected.json``: the confirmed stdout fingerprint of every request.

Usage (from the repository root): ``python3 perfbench/make_expected.py``.

Every request any seed can generate (``workloads.universe``) is run once
through ``qtmoments.cli.main``.  Its output is parsed and confirmed by a
second, independent route before its sha256 is recorded:

* a symbolic moment by another of the five routes (operator for
  partitions, cards and Motzkin; Motzkin for the operator);
* a rational answer by evaluating another route's symbolic moment at the
  same point, or, for the binomial family, by the J-fraction series;
* a symbolic Charlier table by P_n(operator) vacuum = lambda^n f_n, with
  the printed P_n applied to the Fock-space operator;
* a listing by its line count (Bell(n), or the arrangement count) and by its
  record weights summing to the operator moment;
* the gate by "all checks passed" with a non-zero count on every check line.

Any disagreement aborts the build, so no unconfirmed entry is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qtmoments import cli  # noqa: E402
from qtmoments.cards import expand_arrangements  # noqa: E402
from qtmoments.fock import (  # noqa: E402
    FockVector, OperatorWord, ScalarGauge, apply_poisson, vacuum_expectation_word,
)
from qtmoments.orthopoly import (  # noqa: E402
    binomial, charlier_strict, charlier_t_gauge, jfraction_series, moments_by_motzkin,
)
from qtmoments.ring import LAMBDA, Poly, Q, T  # noqa: E402

import workloads  # noqa: E402
from tracer import bell  # noqa: E402

GAUGE = {"strict": ScalarGauge.IDENTITY, "covered": ScalarGauge.T_POWER_N,
         "tgauge": ScalarGauge.T_POWER_N}
PRESET = {"strict": charlier_strict, "covered": charlier_t_gauge, "tgauge": charlier_t_gauge}

_operator_cache: dict = {}


def operator_moments(gauge: ScalarGauge, n_max: int) -> list:
    """Moments 0..n_max from one run of the Fock-space operator."""
    have = _operator_cache.get(gauge, [])
    if len(have) <= n_max:
        v = FockVector.vacuum(n_max + 1)
        have = [v.coeffs[0]]
        for _ in range(n_max):
            v = apply_poisson(v, gauge)
            have.append(v.coeffs[0])
        _operator_cache[gauge] = have
    return have[: n_max + 1]


def check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def _point(args) -> dict:
    return {"q": args.q, "t": args.t, "lambda": args.lam}


def _csv_rows(text: str) -> list:
    lines = text.splitlines()
    return [line.split(",") for line in lines[1:]]


def confirm_moments(args, text: str) -> None:
    mode = args.mode or "strict"
    gauge = GAUGE[mode]
    if args.method == "operator":
        second = moments_by_motzkin(PRESET[mode](), args.n)[args.n]
    else:
        second = operator_moments(gauge, args.n)[args.n]
    if args.params is None:
        record = json.loads(text)
        check(record["agree"] and list(record["methods"]) == [args.method], "record shape")
        check(record["methods"][args.method] == second.canonical_str(), "symbolic moment")
        return
    value = second.eval(_point(args))
    if args.output == "json":
        got = json.loads(text)["value"][args.method]
    else:
        (row,) = _csv_rows(text)
        check(row[0] == args.method and row[1] == str(args.n), "csv row")
        got = row[-1]
    check(Fraction(got) == value, "rational moment")


def confirm_charlier(args, text: str) -> None:
    gauge = GAUGE[args.preset]
    if args.q is not None:
        if args.output == "json":
            got = [(int(r["n"]), r["moment"]) for r in json.loads(text)["moments"]]
        else:
            got = [(int(r[0]), r[-1]) for r in _csv_rows(text)]
        moments = operator_moments(gauge, args.n_max)
        check([n for n, _ in got] == list(range(args.n_max + 1)), "row indices")
        for n, value in got:
            check(Fraction(value) == moments[n].eval(_point(args)), f"moment {n}")
        return
    polys = [Poly.parse(s) for s in json.loads(text)["polys"]]
    check(len(polys) == args.n_max + 1, "table length")
    dim = args.n_max + 1
    powers = [FockVector.vacuum(dim)]  # operator^j applied to the vacuum
    for _ in range(args.n_max):
        powers.append(apply_poisson(powers[-1], gauge))
    for n, p in enumerate(polys):
        check(p.degree("x") == n and p.coefficient_of("x", n) == 1, f"P_{n} monic")
        applied = FockVector(dim)
        for j in range(n + 1):
            applied = applied + powers[j].scaled(p.coefficient_of("x", j))
        check(applied == FockVector.basis(dim, n).scaled(LAMBDA**n), f"P_{n}(operator) vacuum")


def confirm_cfrac(args, text: str) -> None:
    record = json.loads(text)
    moments = operator_moments(GAUGE[args.preset], args.order)
    check(record["depth"] == (args.order + 1) // 2 + 1, "default depth")
    check(record["series"] == [m.canonical_str() for m in moments], "series")


def confirm_binomial(args, text: str) -> None:
    if args.output == "json":
        got = json.loads(text)["moments"]
    else:
        got = [row[-1] for row in _csv_rows(text)]
    second = jfraction_series(binomial(args.m, args.p, args.q, args.t), args.n_max)
    check([Fraction(v) for v in got] == second, "binomial moments")


def confirm_word(args, text: str) -> None:
    word = OperatorWord.from_string(args.word)
    gauge = GAUGE[args.mode or "strict"]
    if args.output == "json":
        record = json.loads(text)
        check(record["word"] == args.word, "word echoed")
        got = record["canonical"]
    else:
        got = text.strip()
    cards = sum((arr.weight for arr in expand_arrangements(word, gauge)), Poly.zero())
    check(Poly.parse(got) == cards, "vacuum expectation by cards")


_WEIGHT = re.compile(r"  weight=(\S+)  partition=")


def _listing_weights(args, text: str) -> list:
    lines = text.splitlines()
    if args.output == "json":
        return [Poly.parse(json.loads(line)["weight"]) for line in lines]
    return [Poly.parse(_WEIGHT.search(line).group(1)) for line in lines]


def confirm_cards(args, text: str) -> None:
    gauge = GAUGE[args.mode or "strict"]
    weights = _listing_weights(args, text)
    total = sum(weights, Poly.zero())
    if args.word:
        expected = vacuum_expectation_word(OperatorWord.from_string(args.word), gauge)
        count = expected.eval({"lambda": 1, "q": 1, "t": 1})
    else:
        expected = operator_moments(gauge, args.n)[args.n]
        count = bell(args.n)
    check(len(weights) == count, "listing line count")
    check(total == expected, "listing weights sum to the operator moment")


def confirm_partitions(args, text: str) -> None:
    records = [json.loads(line) for line in text.splitlines()]
    check(len(records) == bell(args.n), "Bell(n) lines")
    check(len({tuple(r["rgs"]) for r in records}) == len(records), "distinct partitions")
    for key, gauge in (("rn_strict", ScalarGauge.IDENTITY), ("rn_covered", ScalarGauge.T_POWER_N)):
        total = Poly.zero()
        for r in records:
            total = total + LAMBDA**r["blocks"] * Q**r["rc"] * T**r[key]
        check(total == operator_moments(gauge, args.n)[args.n], f"weights ({key})")


_CHECK_COUNT = re.compile(r": (\d+) checks, ok$")


def confirm_verify(args, text: str) -> None:
    lines = text.splitlines()
    check(lines[-1] == "all checks passed", "final line")
    body = lines[:-1]
    moments = [line for line in body if line.startswith("moments ")]
    check(len(moments) == 2 * args.n_max and all(l.endswith(": ok") for l in moments),
          "moment matrix lines")
    bijection = [line for line in body if line.startswith("cards bijection ")]
    check(len(bijection) == min(args.n_max, 7) and all(l.endswith(": ok") for l in bijection),
          "card bijection lines")
    check("poisson-limit: ok" in body, "poisson limit line")
    reports = [line for line in body if "checks," in line]
    check(len(reports) == 10, "check report lines")
    for line in reports:
        match = _CHECK_COUNT.search(line)
        check(match is not None and int(match.group(1)) > 0, f"non-zero count: {line}")
    check(len(moments) + len(bijection) + 1 + len(reports) == len(body), "no unknown lines")


CONFIRM = {
    "moments": confirm_moments,
    "charlier": confirm_charlier,
    "cfrac": confirm_cfrac,
    "binomial": confirm_binomial,
    "word": confirm_word,
    "cards": confirm_cards,
    "partitions": confirm_partitions,
    "verify": confirm_verify,
}


def run_request(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    check(code == 0, f"exit code {code}")
    return buf.getvalue()


def main() -> int:
    parser = cli.build_parser()
    entries = {}
    for workload in workloads.WORKLOADS:
        t0 = time.perf_counter()
        for argv in workloads.universe(workload):
            key = workloads.key(argv)
            if key in entries:
                continue
            text = run_request(argv)
            args = parser.parse_args(argv)
            if args.command == "moments":
                given = (args.q, args.t, args.lam)
                args.params = given if all(v is not None for v in given) else None
            try:
                CONFIRM[args.command](args, text)
            except AssertionError as exc:
                print(f"unconfirmed: {key}: {exc}", file=sys.stderr)
                return 1
            entries[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"{workload}: confirmed in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump({"sha256": entries}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
