"""scripts/mu_diff.py, run as a process on two temporary mu records."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mu_diff.py"


def mu_diff(tmp_path, first, second):
    paths = []
    for name, record in (("a.json", first), ("b.json", second)):
        path = tmp_path / name
        path.write_text(record if isinstance(record, str)
                        else json.dumps(record))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(SCRIPT), *paths],
                          capture_output=True, text=True, timeout=60)


RECORD = {"large-assoc/1": (0.25).hex(), "large-assoc/2": (1.5).hex()}


def test_equal_records_exit_0(tmp_path):
    run = mu_diff(tmp_path, RECORD, dict(RECORD))
    assert run.returncode == 0
    assert run.stdout == "0 of 2 keys differ\n"


def test_differing_and_missing_keys_exit_1(tmp_path):
    second = {"large-assoc/1": (0.25 * (1 + 2 ** -40)).hex(),
              "methods-sweep/3": (2.0).hex()}
    run = mu_diff(tmp_path, RECORD, second)
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    assert lines[0].startswith(f"large-assoc/1: {RECORD['large-assoc/1']} != ")
    assert lines[0].endswith("(relative difference 9.09e-13)")
    assert lines[1:] == ["large-assoc/2: only in the first record",
                         "methods-sweep/3: only in the second record",
                         "3 of 3 keys differ"]


@pytest.mark.parametrize("text", ["{", "[1.0]", '{"k": 0.25}',
                                  '{"k": "none"}'],
                         ids=["truncated", "not-an-object", "not-a-string",
                              "not-hex"])
def test_unreadable_record_exits_2(tmp_path, text):
    run = mu_diff(tmp_path, RECORD, text)
    assert run.returncode == 2
    assert "b.json" in run.stderr and "Traceback" not in run.stderr
