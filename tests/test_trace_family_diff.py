"""tools/trace_family_diff.py: traces may differ only by dropped
records of the allowed families."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "trace_family_diff", ROOT / "tools" / "trace_family_diff.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return str(path)


OLD = [
    {"tp": "rdcn:day_night", "ts": 0},
    {"tp": "tdtcp:tdn_switch", "ts": 1, "conn": "a"},
    {"tp": "tcp:cwnd_update", "ts": 2},
    {"tp": "tdtcp:tdn_switch", "ts": 3, "conn": "b"},
    {"tp": "tdtcp:tdn_switch", "ts": 4, "conn": "c"},
]


def run(tool, tmp_path, new, allow=("tdtcp:tdn_switch",)):
    old_path = write(tmp_path / "old.jsonl", OLD)
    new_path = write(tmp_path / "new.jsonl", new)
    argv = [old_path, new_path]
    for family in allow:
        argv += ["--allow", family]
    return tool.main(argv)


def test_dropped_allowed_records_pass(tool, tmp_path, capsys):
    assert run(tool, tmp_path, [OLD[0], OLD[2], OLD[4]]) == 0
    out = capsys.readouterr().out
    assert "tdtcp:tdn_switch" in out and "-2" in out


def test_identical_traces_pass_without_allow(tool, tmp_path):
    assert run(tool, tmp_path, OLD, allow=()) == 0


@pytest.mark.parametrize("new", [
    # a record outside the allowed family changed
    [OLD[0], OLD[1], {"tp": "tcp:cwnd_update", "ts": 9}, OLD[3], OLD[4]],
    # a record outside the allowed family dropped
    [OLD[0], OLD[1], OLD[3], OLD[4]],
    # an allowed record appeared
    OLD + [{"tp": "tdtcp:tdn_switch", "ts": 5, "conn": "d"}],
    # allowed records reordered
    [OLD[0], OLD[3], OLD[2], OLD[1], OLD[4]],
])
def test_anything_but_dropping_fails(tool, tmp_path, new):
    assert run(tool, tmp_path, new) == 1
