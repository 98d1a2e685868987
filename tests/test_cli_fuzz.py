"""Seeded fuzzing of the CLI's error contract.

Mutated copies of ``l1.log``, ``small.xes`` and ``l1_unfiltered.pnml`` go
through every subcommand via ``cli.main``. Every run must exit 0 or 1; a
run that fails must print exactly one ``error:`` line on stderr, nothing
on stdout, and write no output file. The mutations are seeded, so every
run of the suite tries the same inputs.
"""

import random
import re

import pytest

from regionminer.cli import main

from .conftest import DATA

# every name but the first is unknown to Python or wrong for the bytes
_ENCODINGS = [b"UTF-8", b"TF-8", b"x-no-such-codec", b"UTF-16", b"UTF-32", b""]
# beyond sys.maxsize, beyond float range, beyond int()'s default digit limit
_HUGE = [b"9" * 19, b"18446744073709551616", b"1" + b"0" * 400, b"9" * 5000]
_DECLARATION = re.compile(rb"^<\?xml[^>]*\?>")


def _flip(rng, data):
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def _cut(rng, data):
    i = rng.randrange(len(data) + 1)
    if rng.random() < 0.5:
        return data[:i]
    return data[:i] + data[rng.randint(i, len(data)) :]


def _splice(rng, data):
    i, j = sorted(rng.randrange(len(data) + 1) for _ in range(2))
    k = rng.randrange(len(data) + 1)
    return data[:k] + data[i:j] + data[k:]


def _huge(rng, data):
    number = rng.choice(_HUGE)
    runs = list(re.finditer(rb"\d+", data))
    if not runs:
        k = rng.randrange(len(data) + 1)
        return data[:k] + number + data[k:]
    run = rng.choice(runs)
    return data[: run.start()] + number + data[run.end() :]


def _encoding(rng, data):
    declaration = b'<?xml version="1.0" encoding="' + rng.choice(_ENCODINGS) + b'"?>'
    if _DECLARATION.match(data):
        return _DECLARATION.sub(declaration, data, count=1)
    return declaration + b"\n" + data


_MUTATIONS = [_flip, _cut, _splice, _huge, _encoding]
# cases per input and mutation class
_REPEATS = 12


def _commands(kind, path, out, small_net):
    """Every command that reads an input of this kind, on ``path``."""
    log, net = str(DATA / "l1.log"), str(DATA / "l1_unfiltered.pnml")
    if kind == "log":
        return [
            ["discover", "--log", path, "--out-pnml", out],
            ["evaluate", "--log", path, "--pnml", net],
            ["noise", "--log", path, "--level", "0.1", "--seed", "1", "--out", out],
            ["sweep", "--log", path, "--alphas", "1", "--noise-levels", "0"],
        ]
    if kind == "xes":
        return [
            ["discover", "--xes", "--log", path, "--out-pnml", out],
            ["evaluate", "--xes", "--log", path, "--pnml", small_net],
            ["convert", "--xes", path, "--out", out],
        ]
    return [["evaluate", "--log", log, "--pnml", path]]


def test_fuzzed_inputs_keep_the_error_contract(tmp_path, capsys):
    small_net = tmp_path / "small.pnml"
    args = ["discover", "--xes", "--log", str(DATA / "small.xes"), "--no-filter"]
    assert main([*args, "--out-pnml", str(small_net)]) == 0
    out = tmp_path / "out"
    rng = random.Random(23)
    runs = failures = 0
    for kind, name in (("log", "l1.log"), ("xes", "small.xes"), ("pnml", "l1_unfiltered.pnml")):
        original = (DATA / name).read_bytes()
        for mutate in _MUTATIONS:
            for repeat in range(_REPEATS):
                data = mutate(rng, original)
                path = tmp_path / f"input.{kind}"
                path.write_bytes(data)
                for argv in _commands(kind, str(path), str(out), str(small_net)):
                    case = f"{mutate.__name__} #{repeat} of {name}: {argv[0]} {data[:80]!r}"
                    out.unlink(missing_ok=True)
                    runs += 1
                    try:
                        code = main(argv)
                    except (Exception, SystemExit) as exc:
                        pytest.fail(f"{case}: raised {type(exc).__name__}: {exc}")
                    captured = capsys.readouterr()
                    if code == 0:
                        assert captured.err == "", case
                        continue
                    failures += 1
                    assert code == 1, case
                    assert captured.out == "", case
                    lines = captured.err.splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error: "), case
                    assert captured.err == lines[0] + "\n", case
                    assert not out.exists(), case
    # the mutations do break inputs, and not every one of them
    assert 0 < failures < runs
