"""tools/check_bench_regression.py: verdicts, and the times beside a
flagged ratio key."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_bench_regression", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(path, measurements):
    path.write_text(json.dumps({"measurements": measurements}))
    return str(path)


BASELINE = {
    "dynamic.incremental_speedup_x": 4.0,
    "dynamic.static_rebuild_s": 0.2,
    "dynamic.incremental_s": 0.05,
    "other.speedup_x": 2.0,
    "other.run_s": 1.0,
}


def test_failing_ratio_prints_its_group_times(tmp_path, checker, capsys):
    current = dict(BASELINE)
    current["dynamic.incremental_speedup_x"] = 1.7
    current["dynamic.static_rebuild_s"] = 0.0937
    current["dynamic.sync_parity"] = True
    code = checker.main([
        _report(tmp_path / "cur.json", current),
        _report(tmp_path / "base.json", BASELINE),
        "--factor", "2.0", "--soft-absolute",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL: dynamic.incremental_speedup_x" in out
    assert "dynamic.static_rebuild_s 0.0937 s (baseline 0.2 s)" in out
    assert "dynamic.incremental_s 0.05 s (baseline 0.05 s)" in out
    assert "other.run_s" not in out


def test_verdicts_are_unchanged(tmp_path, checker, capsys):
    base = _report(tmp_path / "base.json", BASELINE)
    assert checker.main([_report(tmp_path / "ok.json", BASELINE), base]) == 0
    slow = dict(BASELINE, **{"other.run_s": 3.0})
    assert checker.main([_report(tmp_path / "slow.json", slow), base]) == 1
    assert checker.main(
        [_report(tmp_path / "slow2.json", slow), base, "--soft-absolute"]
    ) == 0
    ratio = dict(BASELINE, **{"other.speedup_x": 0.5})
    path = _report(tmp_path / "ratio.json", ratio)
    assert checker.main([path, base, "--soft-timing"]) == 0
    out = capsys.readouterr().out
    assert "warning: other.speedup_x" in out
    assert "other.run_s 1 s (baseline 1 s)" in out
    broken = dict(BASELINE, **{"x.archive_parity": False})
    assert checker.main(
        [_report(tmp_path / "broken.json", broken), base, "--soft-timing"]
    ) == 1
