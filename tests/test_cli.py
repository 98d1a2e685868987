import os
import shlex
import shutil
import subprocess
import sys

import pytest

from regionminer.cli import build_parser, main
from regionminer.discovery import DiscoveryOptions
from regionminer.eventlog import parse_trace_log, prefix_closure, use_transform
from regionminer.ilp import brute_force, solve
from regionminer.petri import parse_pnml
from regionminer.regions import build_constraint_system, instantiate_causal_ilp

from .conftest import DATA
from .util import visible_labels

ROOT = DATA.parent.parent


@pytest.fixture()
def workspace(tmp_path):
    shutil.copy(DATA / "l1.log", tmp_path / "l1.log")
    shutil.copy(DATA / "l1_prime.log", tmp_path / "l1_prime.log")
    shutil.copy(DATA / "small.xes", tmp_path / "small.xes")
    shutil.copy(DATA / "loop.log", tmp_path / "loop.log")
    return tmp_path


def test_discover_and_evaluate_round_trip(workspace, capsys):
    pnml = workspace / "net.pnml"
    code = main(
        [
            "discover",
            "--log",
            str(workspace / "l1_prime.log"),
            "--alpha",
            "0.75",
            "--out-pnml",
            str(pnml),
        ]
    )
    assert code == 0
    assert pnml.exists()
    code = main(
        ["evaluate", "--log", str(workspace / "l1.log"), "--pnml", str(pnml)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fitness=1.000000" in out
    assert "precision=" in out


def test_discover_writes_all_artifacts(workspace):
    args = [
        "discover",
        "--log",
        str(workspace / "l1.log"),
        "--no-filter",
        "--out-pnml",
        str(workspace / "net.pnml"),
        "--out-dot",
        str(workspace / "net.dot"),
        "--emit-seg-dot",
        str(workspace / "seg.dot"),
        "--emit-causal-dot",
        str(workspace / "causal.dot"),
        "--emit-lp",
        str(workspace / "lp"),
    ]
    assert main(args) == 0
    assert (workspace / "net.dot").read_text().startswith("digraph wfnet {")
    assert (workspace / "seg.dot").read_text().startswith("digraph seg {")
    assert (workspace / "causal.dot").read_text().startswith("digraph causal {")
    lp_files = sorted((workspace / "lp").glob("*.lp"))
    assert len(lp_files) == 15  # one file per causal pair at threshold 0.9
    assert lp_files[0].read_text().startswith("minimize")


def test_alpha_one_equals_no_filter(workspace):
    for flag, name in ((["--alpha", "1"], "a.pnml"), (["--no-filter"], "b.pnml")):
        assert (
            main(
                [
                    "discover",
                    "--log",
                    str(workspace / "l1_prime.log"),
                    *flag,
                    "--out-pnml",
                    str(workspace / name),
                ]
            )
            == 0
        )
    assert (workspace / "a.pnml").read_bytes() == (workspace / "b.pnml").read_bytes()


def test_discover_from_xes(workspace):
    pnml = workspace / "net.pnml"
    code = main(
        [
            "discover",
            "--log",
            str(workspace / "small.xes"),
            "--xes",
            "--no-filter",
            "--out-pnml",
            str(pnml),
        ]
    )
    assert code == 0
    wfnet = parse_pnml(pnml.read_bytes())
    assert visible_labels(wfnet.net) == {"a", "b", "c"}


def test_evaluate_mismatched_alphabet_fails(workspace, capsys):
    pnml = workspace / "net.pnml"
    main(
        [
            "discover",
            "--log",
            str(workspace / "l1.log"),
            "--no-filter",
            "--out-pnml",
            str(pnml),
        ]
    )
    other = workspace / "other.log"
    other.write_text("1;a zzz\n")
    code = main(["evaluate", "--log", str(other), "--pnml", str(pnml)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "zzz" in err


def test_discover_rejects_a_name_pnml_cannot_carry(workspace, capsys):
    log = workspace / "x.log"
    log.write_bytes(b"a\x01b c\na c\n")
    pnml = workspace / "x.pnml"
    args = ["discover", "--log", str(log), "--no-filter", "--out-pnml", str(pnml)]
    assert main(args) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: line 1: ")
    assert not pnml.exists()


@pytest.mark.parametrize(
    "name, quoted",
    [('a"b', r'"a\"b"'), ("<&>", '"<&>"'), ("a\\b", r'"a\\b"')],
)
def test_discover_dot_quotes_names_for_dot(workspace, name, quoted):
    log = workspace / "q.log"
    log.write_text(f"{name} c\n", encoding="utf-8")
    out = {kind: workspace / f"{kind}.dot" for kind in ("net", "causal", "seg")}
    args = ["discover", "--log", str(log), "--no-filter"]
    args += ["--out-pnml", str(workspace / "q.pnml"), "--out-dot", str(out["net"])]
    args += ["--emit-causal-dot", str(out["causal"]), "--emit-seg-dot", str(out["seg"])]
    assert main(args) == 0
    text = {kind: path.read_text(encoding="utf-8") for kind, path in out.items()}
    node = '"t_' + quoted[1:]
    assert f"  {node} [shape=box, label={quoted}];" in text["net"]
    assert f" -> {node};" in text["net"]
    assert f"  {quoted};" in text["causal"]
    for rendering in text.values():
        assert "'" not in rendering
        for entity in ("&quot;", "&lt;", "&gt;", "&amp;", "&apos;"):
            assert entity not in rendering


# a workflow net with one transition for each activity of l1.log
_L1_NET = '<place id="i"/><place id="o"/>' + "".join(
    f'<transition id="t{a}"><name><text>{a}</text></name></transition>'
    f'<arc source="i" target="t{a}"/><arc source="t{a}" target="o"/>'
    for a in "abcdefgh"
)

# nets that parse but break an arc rule of PetriNet, with the error line
_ARC_ERRORS = {
    "arc-to-unknown-node": (
        _L1_NET + '<arc source="ta" target="nowhere"/>',
        "error: arc (ta, nowhere) references unknown node",
    ),
    "place-to-place-arc": (
        _L1_NET + '<place id="mid"/><arc source="mid" target="o"/>',
        "error: arc (mid, o) is not bipartite",
    ),
}


@pytest.mark.parametrize(
    "body",
    [
        "<place/>",
        "<transition/>",
        '<place id="p"/><transition id="t"/><arc target="t"/>',
        '<place id="p"/><transition id="t"/><arc source="p"/>',
        pytest.param(_L1_NET + '<place id="i"/>', id="duplicate-place-id"),
        pytest.param(
            _L1_NET + '<transition id="ta"><name><text>a</text></name></transition>',
            id="duplicate-transition-id",
        ),
        pytest.param(
            _L1_NET + '<transition id="o"><name><text>a</text></name></transition>',
            id="transition-with-a-place-id",
        ),
        *(pytest.param(body, id=name) for name, (body, _) in _ARC_ERRORS.items()),
    ],
)
def test_evaluate_pnml_missing_attribute_fails(workspace, capsys, body):
    bad = workspace / "bad.pnml"
    bad.write_text(f"<pnml><net><page>{body}</page></net></pnml>")
    code = main(["evaluate", "--log", str(workspace / "l1.log"), "--pnml", str(bad)])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    expected = dict(_ARC_ERRORS.values()).get(body)
    if expected is not None:
        assert lines[0] == expected


def test_noise_command_round_trips(workspace):
    out = workspace / "noisy.log"
    code = main(
        [
            "noise",
            "--log",
            str(workspace / "l1.log"),
            "--level",
            "0.05",
            "--seed",
            "42",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    noisy = parse_trace_log(out.read_text())
    assert noisy.total_instances == 55


def test_noise_rejects_bad_level(workspace, capsys):
    code = main(
        [
            "noise",
            "--log",
            str(workspace / "l1.log"),
            "--level",
            "2",
            "--seed",
            "1",
            "--out",
            str(workspace / "x.log"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_csv_shape(workspace, capsys):
    code = main(
        [
            "sweep",
            "--log",
            str(workspace / "l1.log"),
            "--alphas",
            "0.75,1",
            "--noise-levels",
            "0,0.1",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "noise,alpha,fitness,precision,wall_ms"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        noise, alpha, fitness, precision, wall = line.split(",")
        assert noise in {"0", "0.1"} and alpha in {"0.75", "1"}
        assert 0.0 <= float(fitness) <= 1.0
        assert 0.0 <= float(precision) <= 1.0
        assert int(wall) >= 0


_NAMELESS_EVENT_XES = (
    b'<log><trace><event><string key="org:resource" value="x"/></event></trace></log>'
)

# an XML declaration naming an encoding the parser does not know
_UNKNOWN_ENCODING_XML = b'<?xml version="1.0" encoding="TF-8"?><log/>'
# more trace instances than a Python sequence can index
_HUGE_COUNT_LOG = b"99999999999999999999999;a b c\n"
# arc weights beyond float range for the filter
_HEAVY_ARC_LOG = b"1" + b"0" * 400 + b";a b c\n1;a c b\n"


@pytest.mark.parametrize(
    "args, name, content",
    [
        (["sweep", "--alphas", "0.75,2", "--noise-levels", "0"], "l1.log", None),
        (["sweep", "--alphas", "0.75", "--noise-levels", "0,2"], "l1.log", None),
        (["sweep", "--alphas", "0.75", "--noise-levels", "-0.5"], "l1.log", None),
        (["discover", "--out-pnml", "{out}"], "latin1.log", b"a \xe9 b\n"),
        (["discover", "--xes", "--out-pnml", "{out}"], "x.xes", _NAMELESS_EVENT_XES),
        (["convert", "--out", "{out}"], "x.xes", _NAMELESS_EVENT_XES),
        (["evaluate", "--pnml", "{net}"], "empty.log", b"# only a comment\n"),
        (
            ["sweep", "--alphas", "1", "--noise-levels", "0"],
            "empty.log",
            b"# only a comment\n",
        ),
        (["sweep", "--alphas", ",", "--noise-levels", "0"], "l1.log", None),
        (["sweep", "--alphas", "0.75", "--noise-levels", ","], "l1.log", None),
        (
            ["noise", "--level", "0.1", "--seed", "1", "--out", "{out}"],
            "huge.log",
            _HUGE_COUNT_LOG,
        ),
        (["sweep", "--alphas", "1", "--noise-levels", "0.1"], "huge.log", _HUGE_COUNT_LOG),
        (["discover", "--alpha", "0.75", "--out-pnml", "{out}"], "heavy.log", _HEAVY_ARC_LOG),
        (["discover", "--xes", "--out-pnml", "{out}"], "x.xes", _UNKNOWN_ENCODING_XML),
        (["convert", "--out", "{out}"], "x.xes", _UNKNOWN_ENCODING_XML),
        (["evaluate", "--xes", "--pnml", "{net}"], "x.xes", _UNKNOWN_ENCODING_XML),
        (["evaluate", "--pnml", "{input}"], "x.pnml", _UNKNOWN_ENCODING_XML),
        # the filter fails after a grid cell has started: still no CSV header
        (["sweep", "--alphas", "1", "--noise-levels", "0"], "heavy.log", _HEAVY_ARC_LOG),
    ],
)
def test_malformed_input_is_one_error_line(workspace, capsys, args, name, content):
    source = workspace / name
    if content is not None:
        source.write_bytes(content)
    flag = "--xes" if args[0] == "convert" else "--log"
    # a case that passes its input as another argument reads l1.log as the log
    log = workspace / "l1.log" if "{input}" in args else source
    argv = [args[0], flag, str(log)] + [
        arg.format(out=workspace / "out", net=DATA / "l1_unfiltered.pnml", input=source)
        for arg in args[1:]
    ]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (workspace / "out").exists()


def test_out_of_memory_is_one_error_line(workspace, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("regionminer.cli.inject_noise", exhausted)
    out = workspace / "out"
    log = str(workspace / "l1.log")
    code = main(["noise", "--log", log, "--level", "0.1", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
    assert not out.exists()


def test_convert_xes(workspace):
    out = workspace / "converted.log"
    code = main(["convert", "--xes", str(workspace / "small.xes"), "--out", str(out)])
    assert code == 0
    log = parse_trace_log(out.read_text())
    assert log.traces == {("a", "b", "c"): 2, ("a", "b"): 1}


def test_evaluate_reads_xes_like_its_converted_log(workspace, capsys):
    xes, log, pnml = workspace / "small.xes", workspace / "s.log", workspace / "s.pnml"
    args = ["discover", "--xes", "--log", str(xes), "--no-filter", "--out-pnml"]
    assert main([*args, str(pnml)]) == 0
    assert main(["convert", "--xes", str(xes), "--out", str(log)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--xes", "--log", str(xes), "--pnml", str(pnml)]) == 0
    from_xes = capsys.readouterr().out
    assert from_xes.startswith("fitness=")
    assert main(["evaluate", "--log", str(log), "--pnml", str(pnml)]) == 0
    assert capsys.readouterr().out == from_xes


_EMPTY_TRACE_XES = (
    b'<log><trace/><trace><event><string key="concept:name" value="a"/></event>'
    b'<event><string key="concept:name" value="b"/></event></trace></log>'
)


def test_xes_trace_without_events_is_the_empty_case(workspace, capsys):
    xes, log, pnml = workspace / "e.xes", workspace / "e.log", workspace / "e.pnml"
    xes.write_bytes(_EMPTY_TRACE_XES)
    assert main(["convert", "--xes", str(xes), "--out", str(log)]) == 0
    assert log.read_text().splitlines() == ["1;", "1;a b"]
    args = ["discover", "--xes", "--log", str(xes), "--no-filter", "--out-pnml", str(pnml)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(["evaluate", "--log", str(log), "--pnml", str(pnml)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "fitness=1.000000" in lines
    assert "replayed_traces=2" in lines and "blocked_traces=0" in lines


def test_missing_file_is_pipeline_error(workspace, capsys):
    code = main(
        [
            "discover",
            "--log",
            str(workspace / "absent.log"),
            "--out-pnml",
            str(workspace / "x.pnml"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["discover"])  # missing required flags
    assert exc.value.code == 2


def test_determinism_across_runs(workspace):
    for name in ("one.pnml", "two.pnml"):
        main(
            [
                "discover",
                "--log",
                str(workspace / "l1.log"),
                "--no-filter",
                "--out-pnml",
                str(workspace / name),
            ]
        )
    assert (workspace / "one.pnml").read_bytes() == (workspace / "two.pnml").read_bytes()


def _numpy_blocked_commands(workspace, out):
    """One run of every command, writing into ``out``."""
    log, prime, xes = (str(workspace / n) for n in ("l1.log", "l1_prime.log", "small.xes"))
    return [
        ["discover", "--log", prime, "--alpha", "0.75", "--out-pnml", f"{out}/f.pnml"],
        ["discover", "--log", log, "--no-filter", "--out-pnml", f"{out}/net.pnml"],
        ["evaluate", "--log", log, "--pnml", f"{out}/net.pnml"],
        ["noise", "--log", log, "--level", "0.1", "--seed", "3", "--out", f"{out}/noisy.log"],
        ["sweep", "--log", log, "--alphas", "0.75", "--noise-levels", "0,0.1", "--seed", "5"],
        ["discover", "--xes", "--log", xes, "--no-filter", "--out-pnml", f"{out}/s.pnml"],
        ["convert", "--xes", xes, "--out", f"{out}/s.log"],
        ["evaluate", "--xes", "--log", xes, "--pnml", f"{out}/s.pnml"],
    ]


def _without_wall_ms(out):
    # the sweep's last column is a wall time; every other line has no comma
    return [line.rsplit(",", 1)[0] for line in out.splitlines()]


def _run_python(script):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_discover_and_evaluate_run_without_numpy(workspace, l1, capsys):
    # numpy serves only the brute_force oracle: with it blocked, every
    # command runs, discover writes the golden nets, evaluate scores one,
    # and each output equals its plain twin's from a process with numpy
    blocked, plain = workspace / "blocked", workspace / "plain"
    blocked.mkdir()
    plain.mkdir()
    script = "\n".join(
        [
            "import sys",
            "sys.modules['numpy'] = None",
            "from regionminer.cli import main",
            f"for argv in {_numpy_blocked_commands(workspace, blocked)!r}:",
            "    if main(argv):",
            "        sys.exit(1)",
        ]
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    for argv in _numpy_blocked_commands(workspace, plain):
        assert main(argv) == 0
    assert _without_wall_ms(done.stdout) == _without_wall_ms(capsys.readouterr().out)
    for name in ("f.pnml", "net.pnml", "noisy.log", "s.pnml", "s.log"):
        assert (blocked / name).read_bytes() == (plain / name).read_bytes(), name
    golden = (DATA / "l1_unfiltered.pnml").read_bytes()
    assert (blocked / "net.pnml").read_bytes() == golden
    golden = (DATA / "l1_prime_alpha_0.75.pnml").read_bytes()
    assert (blocked / "f.pnml").read_bytes() == golden
    lines = done.stdout.splitlines()
    assert lines[:6] == [
        "fitness=1.000000",
        "precision=0.700122",
        "allowed_mass=817",
        "blocked_traces=0",
        "escaping_mass=245",
        "replayed_traces=55",
    ]
    assert lines[6] == "noise,alpha,fitness,precision,wall_ms" and len(lines) == 6 + 3 + 6
    assert parse_trace_log((blocked / "noisy.log").read_text()).total_instances == 55
    converted = parse_trace_log((blocked / "s.log").read_text())
    assert converted.traces == {("a", "b", "c"): 2, ("a", "b"): 1}
    assert lines[-6] == "fitness=1.000000"
    # the package itself loads neither numpy nor the exact-arithmetic modules
    modules = ("numpy", "fractions", "decimal")
    done = _run_python(
        f"import sys, regionminer; print([m for m in {modules!r} if m in sys.modules])"
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    # in a process that has numpy, the oracle still solves l1's pairs
    use, start, end = use_transform(l1)
    cs = build_constraint_system(prefix_closure(use, start, end))
    for pair in (("a", "b"), (start, "a"), ("e", end)):
        inst = instantiate_causal_ilp(cs, *pair)
        assert brute_force(inst) == solve(inst)


_FIRST_LP = "lp/000___start____a.lp"


@pytest.mark.parametrize(
    "log, flag, emitted, golden",
    [
        ("l1_prime.log", "--alpha=0.75", "seg.dot", "l1_prime_alpha_0.75.seg.dot"),
        ("l1_prime.log", "--alpha=0.75", _FIRST_LP, "l1_prime_alpha_0.75_000.lp"),
        ("l1.log", "--alpha=0.5", "seg.dot", "l1_alpha_0.5.seg.dot"),
        ("l1.log", "--alpha=0.5", "net.pnml", "l1_alpha_0.5.pnml"),
        ("l1.log", "--no-filter", _FIRST_LP, "l1_unfiltered_000.lp"),
        ("l1.log", "--no-filter", "seg.dot", "l1_unfiltered.seg.dot"),
        # four equality rows of rank 2: the root drops two dependent rows
        ("loop.log", "--no-filter", "net.pnml", "loop_unfiltered.pnml"),
    ],
)
def test_emitted_seg_and_rows_match_golden_files(
    workspace, log, flag, emitted, golden
):
    # the LP text lists every row's vector and source plus an objective
    # built from the merged weights, so it pins row order, sources and weights
    args = [
        "discover",
        "--log",
        str(workspace / log),
        flag,
        "--out-pnml",
        str(workspace / "net.pnml"),
        "--emit-seg-dot",
        str(workspace / "seg.dot"),
        "--emit-lp",
        str(workspace / "lp"),
    ]
    assert main(args) == 0
    assert (workspace / emitted).read_bytes() == (DATA / golden).read_bytes()


def test_byte_order_mark_is_ignored(workspace):
    text = b"10;a b d e g\n12;a c d e f d b e g\n"
    (workspace / "plain.log").write_bytes(text)
    (workspace / "marked.log").write_bytes(b"\xef\xbb\xbf" + text)
    for name in ("plain", "marked"):
        args = ["discover", "--log", str(workspace / f"{name}.log"), "--no-filter"]
        assert main([*args, "--out-pnml", str(workspace / f"{name}.pnml")]) == 0
    assert (workspace / "marked.pnml").read_bytes() == (
        workspace / "plain.pnml"
    ).read_bytes()


def test_repaired_causal_graph_and_net_match_golden_files(workspace):
    # no pair of l1 scores 0.99, so repair supplies all 13 arcs: 9 growing
    # from the start, then 4 growing from the end
    args = [
        "discover",
        "--log",
        str(workspace / "l1.log"),
        "--no-filter",
        "--dependency-threshold",
        "0.99",
        "--emit-causal-dot",
        str(workspace / "causal.dot"),
        "--out-pnml",
        str(workspace / "net.pnml"),
    ]
    assert main(args) == 0
    for emitted, golden in (
        ("causal.dot", "l1_threshold_0.99.causal.dot"),
        ("net.pnml", "l1_threshold_0.99.pnml"),
    ):
        assert (workspace / emitted).read_bytes() == (DATA / golden).read_bytes()


def test_discover_and_sweep_default_to_the_library_threshold():
    parser = build_parser()
    discover = parser.parse_args(["discover", "--log", "x", "--out-pnml", "y"])
    sweep = parser.parse_args(
        ["sweep", "--log", "x", "--alphas", "1", "--noise-levels", "0"]
    )
    expected = DiscoveryOptions().dependency_threshold
    assert discover.dependency_threshold == sweep.dependency_threshold == expected


def test_readme_sweep_example_reproduces(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text().splitlines()
    command = next(
        line for line in readme if line.startswith("regionminer sweep --log tests/")
    )
    header = readme.index("noise,alpha,fitness,precision,wall_ms")
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for got, shown in zip(lines, readme[header : header + 3]):
        assert got.split(",")[:-1] == shown.split(",")[:-1]
