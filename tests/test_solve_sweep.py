import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solve_sweep.py"


@pytest.fixture
def sweep(monkeypatch, tmp_path):
    """The sweep script, writing to a scratch BENCH file at one small n and
    leaving this process's environment and import path as it found them."""
    spec = importlib.util.spec_from_file_location("solve_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path / "BENCH_solve.json")
    monkeypatch.setattr(module, "SIZES", (12,))
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    return module


def test_sweep_exit_status_ignores_earlier_rows(sweep):
    sweep.OUT.write_text(
        json.dumps({"rows": [{"label": "old", "checksums_agree": False}]}),
        encoding="utf-8",
    )
    assert sweep.main(["--label", "new"]) == 0
    rows = json.loads(sweep.OUT.read_text(encoding="utf-8"))["rows"]
    assert [r["label"] for r in rows] == ["old"] + ["new"] * 3
    assert all(r["checksums_agree"] for r in rows[1:])
    # ceil(log2 12**2) + 1 trace entries, the last one run as the base case
    assert all(r["levels"] == 9 and 0 <= r["reused_levels"] < 9 for r in rows[1:])


def test_sweep_sizes_flag_selects_n(sweep):
    assert sweep.main(["--label", "new", "--sizes", "5", "7"]) == 0
    rows = json.loads(sweep.OUT.read_text(encoding="utf-8"))["rows"]
    assert [r["n"] for r in rows] == [5] * 3 + [7] * 3


def test_sweep_exit_status_fails_on_a_new_bad_row(sweep, monkeypatch):
    row = sweep.sweep_row

    def disagreeing(*args):
        return dict(row(*args), checksums_agree=False)

    monkeypatch.setattr(sweep, "sweep_row", disagreeing)
    assert sweep.main(["--label", "new"]) == 1


def test_sweep_outside_a_checkout_records_src_modified_as_unknown(sweep, tmp_path):
    # an exported tree: git cannot say whether its src/ is modified
    root = tmp_path / "exported"
    root.mkdir()
    assert sweep.main(["--label", "new", "--root", str(root), "--sizes", "5"]) == 0
    rows = json.loads(sweep.OUT.read_text(encoding="utf-8"))["rows"]
    assert [(r["commit"], r["src_modified"]) for r in rows] == [("unknown", None)] * 3
