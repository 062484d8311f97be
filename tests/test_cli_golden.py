"""Golden-output tests for the ``repro-datalog`` CLI JSON surface.

Every analysis subcommand's ``--json`` payload is pinned against a golden
file in ``tests/golden/``: the ``repro-cli/1`` envelope, and inside it the
unified ``repro-solution/1`` schema shared by every semantics.  Timings
are wall-clock and therefore scrubbed before comparison — everything else
must be byte-for-byte deterministic (atom lists are sorted, seeds are
fixed).

To regenerate after an intentional schema change::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

PROGRAM = "win(X) :- move(X, Y), not win(Y).\n"
DATABASE = "move(1, 2). move(2, 1).\n"  # pure draw cycle

# name -> (argv tail after the program path, expected exit code, needs db)
CASES = {
    "analyze": (["--json"], 0, False),
    "run_wf": (["--db", "{db}", "--semantics", "wf", "--json"], 3, True),
    "run_wf_tb": (["--db", "{db}", "--semantics", "wf-tb", "--json"], 0, True),
    "run_fitting": (["--db", "{db}", "--semantics", "fitting", "--json"], 3, True),
    "fixpoints": (["--db", "{db}", "--json"], 0, True),
    "fixpoints_stable": (["--db", "{db}", "--stable", "--json"], 0, True),
    "ground": (["--db", "{db}", "--mode", "relevant", "--json"], 0, True),
    "witness": (["--max-constants", "1", "--json"], 3, False),
    "explain": (["win(1)", "--db", "{db}", "--seed", "1", "--json"], 0, True),
}

COMMAND_OF = {
    "analyze": "analyze",
    "run_wf": "run",
    "run_wf_tb": "run",
    "run_fitting": "run",
    "fixpoints": "fixpoints",
    "fixpoints_stable": "fixpoints",
    "ground": "ground",
    "witness": "witness",
    "explain": "explain",
}


def scrub(payload):
    """Drop wall-clock timings (the only nondeterministic part) in place."""
    if isinstance(payload, dict):
        payload.pop("timings", None)
        for value in payload.values():
            scrub(value)
    elif isinstance(payload, list):
        for value in payload:
            scrub(value)
    return payload


def build_argv(name, tmp_path):
    argv_tail, expected_code, needs_db = CASES[name]
    program = tmp_path / "prog.dl"
    program.write_text(PROGRAM)
    db = tmp_path / "db.dl"
    if needs_db:
        db.write_text(DATABASE)
    tail = [arg.replace("{db}", str(db)) for arg in argv_tail]
    return [COMMAND_OF[name], str(program)] + tail, expected_code


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name, tmp_path, capsys):
    argv, expected_code = build_argv(name, tmp_path)
    code = main(argv)
    payload = scrub(json.loads(capsys.readouterr().out))
    assert code == expected_code
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert payload == golden


class TestRunRegistrySemantics:
    """`run --semantics` accepts any registry name/alias, not just the six."""

    @pytest.fixture()
    def prog(self, tmp_path):
        program = tmp_path / "prog.dl"
        program.write_text(PROGRAM)
        db = tmp_path / "db.dl"
        db.write_text(DATABASE)
        return str(program), str(db)

    def test_run_stable(self, prog, capsys):
        code = main(["run", prog[0], "--db", prog[1], "--semantics", "stable"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stable model:" in out and "total: True" in out

    def test_run_completion_alias(self, prog, capsys):
        code = main(["run", prog[0], "--db", prog[1], "--semantics", "fixpoints"])
        assert code == 0
        assert "completion model:" in capsys.readouterr().out

    def test_run_no_model(self, tmp_path, capsys):
        f = tmp_path / "odd.dl"
        f.write_text("p :- not p.\n")
        code = main(["run", str(f), "--semantics", "stable"])
        assert code == 3
        assert "no stable model" in capsys.readouterr().out

    def test_run_help_lists_registry(self, prog, capsys):
        assert main(["run", prog[0], "--semantics", "help"]) == 0
        out = capsys.readouterr().out
        for name in ("well_founded", "tie_breaking", "stable", "completion"):
            assert name in out

    def test_run_unknown_semantics_exit_2(self, prog, capsys):
        assert main(["run", prog[0], "--semantics", "bogus"]) == 2
        assert "unknown semantics" in capsys.readouterr().err

    def test_run_db_not_utf8_exit_2(self, prog, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_bytes(b"e(a).\xff\n")
        assert main(["run", prog[0], "--db", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {bad}: not valid UTF-8 (byte 0xff at offset 5)"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_envelope_and_solution_schema(name, tmp_path, capsys):
    argv, _ = build_argv(name, tmp_path)
    main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-cli/1"
    assert payload["command"] == COMMAND_OF[name]
    solutions = []
    if "solution" in payload:
        solutions = [payload["solution"]]
    elif "solutions" in payload:
        solutions = payload["solutions"]
    for solution in solutions:
        assert solution["schema"] == "repro-solution/1"
        assert set(solution) == {
            "schema",
            "semantics",
            "found",
            "total",
            "grounding",
            "model",
            "counts",
            "ties",
            "iterations",
            "timings",
        }
