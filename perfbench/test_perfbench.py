"""Self-tests of the benchmark: request generation, the expected-output
table, failure accounting and the tracer."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import passrun  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(50)


def _expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)["sha256"]


def _size(argv) -> tuple:
    """A request with its content (point, word, convention, format) removed."""
    out, tokens = [], iter(argv)
    for token in tokens:
        if token == "--word":
            out.append(len(next(tokens)))
        elif token in ("--mode", "--output", "--m", "--p"):
            next(tokens)
        elif not token.startswith(("--q=", "--t=", "--lambda=")):
            out.append(token)
    return tuple(out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_request_list(workload):
    first = workloads.requests(workload, 7)
    assert workloads.requests(workload, 7) == first
    for seed in (0, 1, 12345):
        other = workloads.requests(workload, seed)
        keys = [workloads.key(r) for r in other]
        assert len(set(keys)) == len(keys), "an exact request repeats within a pass"
        assert sorted(map(_size, other)) == sorted(map(_size, first))
        assert not any(a.startswith("--workers") or a.startswith("--gauge") for r in other for a in r)


def test_queries_content_depends_on_seed():
    assert workloads.requests("queries", 1) != workloads.requests("queries", 2)


def test_expected_table_covers_every_request():
    expected = _expected()
    for workload in workloads.WORKLOADS:
        missing = [workloads.key(r) for r in workloads.universe(workload)
                   if workloads.key(r) not in expected]
        assert not missing, missing[:5]
        for seed in SEEDS:
            assert all(workloads.key(r) in expected for r in workloads.requests(workload, seed))


def _fake_cli(text: str, code: int = 0):
    def main(argv):
        sys.stdout.write(text)
        return code
    return types.SimpleNamespace(main=main)


def test_failure_accounting():
    good = hashlib.sha256(b"lambda + 1\n").hexdigest()
    req = [["word", "--word", "CA"]]
    assert passrun.serve(_fake_cli("lambda + 1\n"), req, [good])["failures"] == []
    for cli, digest in (
        (_fake_cli("lambda + 2\n"), good),      # one corrupted output byte
        (_fake_cli("lambda + 1\n", 1), good),   # exit code 1
        (_fake_cli("lambda + 1\n"), None),      # no expected entry
    ):
        assert len(passrun.serve(cli, req, [digest])["failures"]) == 1

    def crash(argv):
        raise ValueError("boom")
    assert len(passrun.serve(types.SimpleNamespace(main=crash), req, [good])["failures"]) == 1


def test_real_cli_output_checked_byte_for_byte():
    from qtmoments import cli

    argv = workloads.requests("queries", 0)[0]
    digest = _expected()[workloads.key(argv)]
    assert passrun.serve(cli, [argv], [digest])["failures"] == []

    def corrupting_main(args):
        """The real CLI, with one bit of its first output byte flipped."""
        real_stdout, first = sys.stdout, [True]

        def write(text):
            if first[0] and text:
                first[0] = False
                text = chr(ord(text[0]) ^ 1) + text[1:]
            return real_stdout.write(text)
        sys.stdout = types.SimpleNamespace(write=write, flush=lambda: None)
        try:
            return cli.main(args)
        finally:
            sys.stdout = real_stdout
    result = passrun.serve(types.SimpleNamespace(main=corrupting_main), [argv], [digest])
    assert len(result["failures"]) == 1


def test_self_time_excludes_children_and_generator_consumers():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.05)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    def gen():
        for _ in range(3):
            time.sleep(0.01)
            yield 1

    wrapped_inner = t._wrap("inner", inner)
    wrapped_outer = t._wrap("outer", outer)
    wrapped_gen = t._wrap("cards.enumerate_contributors", gen)
    wrapped_outer()
    for _ in wrapped_gen():
        time.sleep(0.05)  # consumer time is not the generator's
    assert 0.01 <= t.self_s["outer"] < 0.04
    assert 0.05 <= t.self_s["inner"]
    assert 0.03 <= t.self_s["cards.enumerate_contributors"] < 0.1
    assert t.calls["cards.enumerate_contributors"] == 1
    assert list(t.spans["parent"][:2]) == [-1, 0]


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", {"ring.gone": ("qtmoments.ring", "Poly.no_such")})
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["ring.gone"]
    assert not any(k.startswith("ring.gone") for k in t.metrics())


def test_probe_time_is_not_request_time():
    probe = speed.SpeedProbe()

    def main(argv):  # stands for an alarm that fires mid-request
        for _ in range(5):
            probe.sample()
        return 0
    result = passrun.serve(types.SimpleNamespace(main=main), [["word"]], [None], probe)
    assert len(probe.samples) == 5
    assert result["latencies"][0] < 0.2 * probe.paused_s


def _pass(requests: list, stem: str | None = None) -> dict:
    expected = _expected()
    job = {"requests": requests, "digests": [expected.get(workloads.key(r)) for r in requests],
           "trace": stem is not None, "trace_stem": stem}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py"), SRC],
        input=json.dumps(job), capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_sees_no_ring_products_on_enumerate(tmp_path):
    requests = workloads.requests("enumerate", 0)
    stem = str(tmp_path / "enumerate")
    result = _pass(requests, stem)
    layers = result["layers"]
    assert result["failures"] == []
    assert result["absent"] == []
    assert layers["ring.mul.calls"] == 0
    assert layers["ring.mul.term_pairs"] == 0
    assert layers["partitions.moment_by_partitions.calls"] == 2
    assert layers["partitions.visited"] == 2 * tracer.bell(10) + tracer.bell(9)
    assert layers["partitions.partition_record.calls"] == tracer.bell(9)
    header, spans = tracer.load_spans(stem)
    assert header["span_count"] == layers["trace.spans"] == len(spans["start"])
    assert all(e >= s for s, e in zip(spans["start"], spans["end"]))


def test_tracer_patches_aliases_and_imported_names(tmp_path):
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import qtmoments.cli as cli, qtmoments.fock as fock, qtmoments.cfrac as cfrac\n"
        "from qtmoments.ring import Poly\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "assert Poly.__rmul__ is Poly.__mul__ and Poly.__radd__ is Poly.__add__\n"
        "assert cli.moment_by_operator is fock.moment_by_operator\n"
        "assert cfrac.jfraction_series_from_arrays.__wrapped__ is not None\n"
        "x = 2 * Poly.variable('q') * Poly.variable('t') + 1\n"
        "cli.moment_by_operator(3)\n"
        "m = t.metrics()\n"
        "assert m['ring.mul.calls'] >= 2 and m['ring.add.calls'] >= 1, m\n"
        "assert m['fock.moment_by_operator.calls'] == 1\n"
    )
    subprocess.run([sys.executable, "-c", script, SRC, HERE], check=True, timeout=120)


def test_untraced_pass_measures_speed():
    result = _pass(workloads.requests("queries", 0)[:30])
    assert result["failures"] == []
    assert len(result["latencies"]) == 30
    assert result["scale"] > 0 and result["setup_scale"] > 0
    assert "layers" not in result
