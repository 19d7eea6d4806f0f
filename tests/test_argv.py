"""The CLI's direct read of a job's argv against argparse.

`cli._read_argv` reads a well-formed job straight off `COMMANDS` and
declines (None) anything else, which `main` hands to argparse.  Whatever it
accepts, argparse must accept too, with the same namespace.
"""

import contextlib
import io

import pytest

from curvemoduli.cli import COMMANDS, _read_argv, build_parser

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def argparse_read(argv):
    """vars() of the namespace the one-command parser gives `argv`; a
    usage error fails the test."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            return vars(build_parser(argv[:1]).parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse rejects {argv!r}: {err.getvalue()}")


# the settings the direct read interprets; any other would need reading too
KNOWN_SETTINGS = {"action", "type", "default", "required", "help"}


@pytest.mark.parametrize("name", COMMANDS)
def test_every_flag_uses_only_settings_the_direct_read_knows(name):
    for flag, settings in COMMANDS[name][2]:
        assert flag.startswith("--") and set(settings) <= KNOWN_SETTINGS, flag
        assert settings.get("action") in (None, "append", "store_true"), flag
        assert settings.get("type") in (None, int), flag


@pytest.mark.parametrize("argv", [
    ["hilbert", "--ideal", "x1^3", "--ideal", "x2^4", "--level", "6", "--table"],
    ["gamma", "--ideal", "x1", "--other", "x2", "--n-max", "5", "--n-max", "7"],
    ["admissible", "--b", "3", "--e0", "3"],
    ["param", "--branch", "t^2,t^3", "--precision", " 12", "--level", "+4"],
    ["deform", "--job", "job.json", "--N", "1_0"],
    ["specialize", "--class", "L + 1", "--q", "2"],
    ["normflat", "--fiber-ideal", "x1;x2"],
], ids=lambda argv: argv[0])
def test_a_well_formed_job_is_read_as_argparse_reads_it(argv):
    assert vars(_read_argv(argv)) == argparse_read(argv)


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["nosuch", "--b", "3"],
    ["admissible", "-h"],
    ["admissible", "--help", "--b", "3", "--e0", "3"],
    ["admissible", "--b=3", "--e0", "3"],
    ["admissible", "--b", "3", "--e", "3"],
    ["admissible", "--b", "3", "--e0", "3", "--bogus"],
    ["admissible", "--b", "3"],
    ["admissible", "--b", "3", "--e0"],
    ["admissible", "--b", "x", "--e0", "3"],
    ["admissible", "--b", "-3", "--e0", "3"],
    ["mps", "--class0", "-L + 1", "--n0", "1", "--N", "2", "--e0", "2"],
    ["hilbert", "--ideal", ""],
    ["hilbert", "--ideal", "x1", "--table", "x2"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_other_argv_is_left_to_argparse(argv):
    assert _read_argv(argv) is None


# values argparse reads in several ways: negative numbers, text starting
# with '-' with or without a space, empty text, padded and signed integers
ODD_VALUES = ["-3", "-x1 + x2", "", " 7", "+5", "1_0", "--N", "-h x"]
PLAIN_VALUES = {int: ["3", "0", "12"], None: ["x1^2", "1,2", "rational"]}
ODD_WORDS = ["-h", "--help", "--bogus", "--level=5", "--lev", "--", "x1"]


@st.composite
def job_argvs(draw):
    """A command, then flags of it, some repeated or missing, now and then
    a word that is no flag of it; each flag mostly followed by a value of
    its type, sometimes by none, an odd value, short text or a flag name."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    table = dict(COMMANDS[name][2])
    flags = list(table)
    required = [flag for flag in flags if table[flag].get("required")]
    words = draw(st.permutations(required)) if draw(st.booleans()) else []
    words += draw(st.lists(st.sampled_from(flags), max_size=4))
    if not draw(st.integers(0, 4)):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(ODD_WORDS)))
    odd = st.one_of(st.just(None), st.sampled_from(flags), st.sampled_from(ODD_VALUES),
                    st.text(max_size=4))
    argv = [name]
    for word in words:
        argv.append(word)
        settings = table.get(word, {})
        if settings.get("action") == "store_true":
            value = draw(odd) if draw(st.integers(0, 7)) == 7 else None
        else:
            plain = st.sampled_from(PLAIN_VALUES[settings.get("type")])
            value = draw(odd) if draw(st.integers(0, 7)) == 7 else draw(plain)
        if value is not None:
            argv.append(value)
    return argv


@settings(max_examples=1000, deadline=None)
@given(argv=job_argvs())
def test_direct_read_declines_or_agrees_with_argparse(argv):
    direct = _read_argv(argv)
    if direct is not None:
        assert vars(direct) == argparse_read(argv)
