"""Golden-schema regression for the CLI's ``--json`` contract.

Downstream tooling parses ``repro ... --json`` output; a backend or
refactor must not silently change its *shape*.  These tests reduce the
payload of ``learn``, ``atpg`` and ``suite`` to a type skeleton (dict
keys and scalar type names, values dropped) and compare it against the
checked-in snapshot ``tests/data/cli_schema_golden.json``.

On an *intentional* contract change, regenerate the snapshot with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_cli_schema.py

and review the diff like any other API change.
"""

import json
import os

import pytest

from repro.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "cli_schema_golden.json")

#: command name -> argv producing one JSON document on stdout.
COMMANDS = {
    "learn": ["learn", "figure1", "--json", "--max-frames", "5"],
    "atpg": ["atpg", "figure1", "--json", "--mode", "all",
             "--backtrack-limit", "5", "--window", "3",
             "--max-frames", "5"],
    "suite": ["suite", "figure1", "--json", "--backtrack-limit", "5",
              "--window", "3", "--max-frames", "5"],
}


def schema(value):
    """Reduce a JSON value to its key/type skeleton."""
    if isinstance(value, dict):
        return {key: schema(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [schema(item) for item in value]
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "null"
    raise AssertionError(f"non-JSON value {value!r}")


def _capture(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_json_schema_stable(command, capsys, golden):
    observed = schema(_capture(capsys, COMMANDS[command]))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden[command] = observed
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden schema regenerated")
    assert command in golden, (
        f"no golden schema for {command!r}; regenerate with "
        "REPRO_UPDATE_GOLDEN=1")
    assert observed == golden[command], (
        f"`repro {command} --json` changed shape; if intentional, "
        "regenerate tests/data/cli_schema_golden.json with "
        "REPRO_UPDATE_GOLDEN=1 and review the diff")


def test_config_block_names_no_backend_or_engine(capsys):
    """Since schema version 9 every run uses the compiled simulator and
    the incremental engine, so the config block names neither."""
    payload = _capture(capsys, COMMANDS["atpg"])
    assert payload["schema_version"] == 10
    assert not {"sim_backend", "atpg_engine"} & set(payload["config"]["atpg"])
