"""What a fresh interpreter loads: the package resolves its names on first
use, a CLI query loads only the modules it runs, and no module pulls in
`dataclasses` (which brings `inspect`, `ast`, `dis` and `tokenize`)."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = sorted(f[:-3] for f in os.listdir(os.path.join(SRC, "bconn")) if f.endswith(".py"))

CORE = {"bconn", "bconn.cli", "bconn.errors", "bconn.truthtable"}

# the bconn modules a fresh interpreter has loaded, as the last line of stdout
_REPORT = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'bconn')))"


def _fresh(code: str) -> list:
    """Run code in a new interpreter that sees only src/; its last stdout
    line is JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    assert _fresh("import bconn\n" + _REPORT) == ["bconn"]


def test_importing_the_cli_loads_only_the_core():
    assert set(_fresh("import bconn.cli\n" + _REPORT)) == CORE


@pytest.fixture
def inputs(tmp_path):
    files = {
        "r.rel": "n 4\n0000\n0001\n0011\n0111\n1111\n1000\n",
        "f.cnf": "p cnf 3 2\n1 -2 0\n2 3 0\n",
        "mono.tt": "and 2 0001\nor 2 0111\n",
        "f.bf": "and(x1,or(x2,x3))\n",
        "mux.tt": "mux 3 00110101\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


# the modules a reduction of a 1-reproducing CNF runs, none of them the graph engine
REDUCE = {"circuits", "clones", "cnf", "formulas", "properties", "qbf", "reduce", "semantics"}

# (argv, the bconn modules beyond CORE that the query may load)
QUERIES = [
    (["components", "--rel", "r.rel"], {"graph"}),
    (["conn", "--rel", "r.rel"], {"graph"}),
    (["diameter", "--rel", "r.rel"], {"graph"}),
    (["diameter", "--rel", "r.rel", "--diameter-mode", "lower-bound"], {"graph"}),
    (["path", "--rel", "r.rel", "--s", "0000", "--t", "1111"], {"graph"}),
    (["stconn", "--rel", "r.rel", "--s", "0000", "--t", "1000"], {"graph"}),
    (["classify", "--base", "mono.tt"], {"clones", "properties"}),
    (
        ["components", "--cnf", "f.cnf"],
        {"clones", "properties", "cnf", "circuits", "formulas", "semantics", "graph"},
    ),
    (
        ["conn", "--base", "mono.tt", "--formula", "f.bf"],
        {"clones", "properties", "circuits", "formulas", "semantics", "easy", "qbf"},
    ),
    (
        ["conn", "--base", "mono.tt", "--formula", "f.bf", "--mode", "brute"],
        {"clones", "properties", "circuits", "formulas", "semantics", "graph"},
    ),
    (
        ["stconn", "--cnf", "f.cnf", "--s", "111", "--t", "101"],
        {"clones", "properties", "cnf", "circuits", "formulas", "semantics", "graph"},
    ),
    (["reduce", "--cnf", "f.cnf", "--variant", "d1"], REDUCE),
    (["reduce", "--cnf", "f.cnf", "--variant", "s02q"], REDUCE),
    (["closure", "--base", "mux.tt", "--vars", "2"], {"clones", "properties"}),
]


@pytest.mark.parametrize("argv,extra", QUERIES, ids=[" ".join(q[0]) for q in QUERIES])
def test_a_cli_query_loads_only_the_modules_it_runs(inputs, argv, extra):
    argv = [str(inputs / a) if (inputs / a).exists() else a for a in argv]
    loaded = _fresh(
        f"from bconn.cli import run_cli\nassert run_cli({argv!r} + ['--json']) == 0\n" + _REPORT
    )
    assert set(loaded) - CORE <= {f"bconn.{m}" for m in extra}
    assert CORE <= set(loaded)


def test_the_input_path_loads_the_graph_engine_before_the_input(inputs):
    # graph compiled on top of live input data raised a child's peak RSS
    loaded = _fresh(
        "from bconn.cli import run_cli\n"
        f"argv = ['components', '--base', {str(inputs / 'mono.tt')!r}, "
        f"'--formula', {str(inputs / 'f.bf')!r}]\n"
        "assert run_cli(argv) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('bconn.')]))"
    )
    assert loaded.index("bconn.graph") < loaded.index("bconn.clones")


def test_no_module_imports_dataclasses_or_inspect():
    loaded = _fresh(
        "before = set(sys.modules)\n"
        f"for m in {MODULES!r}:\n"
        "    __import__(f'bconn.{m}' if m != '__init__' else 'bconn')\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert "bconn.reduce" in loaded and "bconn.easy" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_every_exported_name_resolves_and_is_listed():
    got = _fresh(
        "import bconn\n"
        "names = bconn.__all__\n"
        "for name in names:\n"
        "    exec(f'from bconn import {name}')\n"
        "    assert name in dir(bconn), name\n"
        "    home = sys.modules['bconn.' + bconn._HOME[name]]\n"
        "    assert getattr(bconn, name) is getattr(home, name), name\n"
        "print(json.dumps(names))"
    )
    assert len(got) == len(set(got)) == 99
    assert {"parse_formula", "SolutionSet", "BitVector", "tr_combine", "UsageError"} <= set(got)


def test_every_limit_lives_in_the_errors_table():
    """No module but errors.py binds a limit of its own, no exported
    function takes a budget but clone_closure (whose --budget the CLI
    sets), and every entry of LIMITS is charged somewhere."""
    import ast
    import inspect

    import bconn
    from bconn.errors import LIMITS

    texts = {}
    for m in MODULES:
        with open(os.path.join(SRC, "bconn", m + ".py"), encoding="utf-8") as fh:
            texts[m] = fh.read()
        if m == "errors":
            continue
        for node in ast.parse(texts[m]).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for t in targets:
                name = getattr(t, "id", "")
                assert not name.endswith(("_BUDGET", "_LIMIT", "_CAP")), (m, name)
    for name in bconn.__all__:
        fn = getattr(bconn, name)
        if callable(fn) and not inspect.isclass(fn) and name != "clone_closure":
            assert not {"budget", "search_budget"} & set(inspect.signature(fn).parameters), name
    for entry in LIMITS:
        assert any(f'"{entry}"' in text for m, text in texts.items() if m != "errors"), entry
