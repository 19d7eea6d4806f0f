"""The comparison behind tools/differential.py: two outcomes of one CLI job
are equal only when exit code, stdout and stderr are byte-identical."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "differential.py")


@pytest.fixture(scope="module")
def differential():
    spec = importlib.util.spec_from_file_location("differential", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identical_outcomes_have_no_difference(differential):
    out = differential.Outcome(0, b'{"count": 6}\n', b"")
    assert differential.differences(out, differential.Outcome(0, b'{"count": 6}\n', b"")) == []


def test_each_field_is_compared(differential):
    Outcome = differential.Outcome
    base = Outcome(0, b"a\nb\n", b"")
    assert differential.differences(base, Outcome(2, b"a\nb\n", b"")) == ["exit code 0 != 2"]
    assert differential.differences(base, Outcome(0, b"a\nc\n", b"")) == [
        "stdout line 2, byte 1: b'b\\n' != b'c\\n'"]
    assert differential.differences(base, Outcome(0, b"a\nb\n", b"error: x\n")) == [
        "stderr line 1, byte 1: b'' != b'error: x\\n'"]


def test_line_ends_and_truncation_are_differences(differential):
    Outcome = differential.Outcome
    assert differential.differences(Outcome(0, b"a\n", b""), Outcome(0, b"a", b"")) == [
        "stdout line 1, byte 2: b'a\\n' != b'a'"]
    assert differential.differences(Outcome(0, b"a\nb\n", b""), Outcome(0, b"a\n", b"")) == [
        "stdout line 2, byte 1: b'b\\n' != b''"]


def test_a_long_line_is_shown_around_its_first_difference(differential):
    Outcome = differential.Outcome
    ours = Outcome(0, b"x" * 100 + b"1" + b"y" * 100, b"")
    theirs = Outcome(0, b"x" * 100 + b"2" + b"y" * 100, b"")
    window = b"x" * 20
    assert differential.differences(ours, theirs) == [
        f"stdout line 1, byte 101: {window + b'1' + b'y' * 39!r} != {window + b'2' + b'y' * 39!r}"]


def test_jobs_cover_every_workload_and_seed(differential):
    seen = {(workload, seed) for workload, seed, _ in differential.jobs()}
    assert seen == {(w, s) for w in ("spans_n3", "enum_fq", "cli_mixed") for s in (1, 2, 3)}
