"""Unit tests for the blocking bench gate (tools/bench_compare.py).

The comparator gates CI merges, so its verdict semantics are pinned
here: regressions beyond tolerance fail, improvements and one-sided
rows never do, degenerate inputs (missing sections, malformed
sections, unloadable files) produce readable skip/fail lines instead
of tracebacks, and a pair that gates nothing fails.  The last class
pins the rule for the committed files: a ``BENCH_*.json`` exists only
while a blocking gate reads it.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "tools" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_compare", bench_compare)
_SPEC.loader.exec_module(bench_compare)


def _row(kernel="qft", n_qubits=12, **extra):
    return {"kernel": kernel, "n_qubits": n_qubits, **extra}


def _verdicts(baseline, fresh, tolerance=0.30):
    return list(bench_compare.compare(baseline, fresh, tolerance))


class TestRowVerdicts:
    def test_within_tolerance_ok(self):
        out = _verdicts(
            {"flush": [_row(speedup=2.0)]},
            {"flush": [_row(speedup=1.5)]},
        )
        assert [v for *_, v in out] == ["ok"]

    def test_regression_beyond_tolerance_fails(self):
        out = _verdicts(
            {"flush": [_row(speedup=2.0)]},
            {"flush": [_row(speedup=1.0)]},
        )
        (key, field, base_v, new_v, verdict) = out[0]
        assert verdict == "FAIL"
        assert (field, base_v, new_v) == ("speedup", 2.0, 1.0)

    def test_improvement_never_fails(self):
        out = _verdicts(
            {"flush": [_row(speedup=1.0)]},
            {"flush": [_row(speedup=9.0)]},
        )
        assert [v for *_, v in out] == ["ok"]

    def test_rows_matched_on_identity_keys(self):
        base = {"flush": [_row(n_qubits=12, speedup=2.0), _row(n_qubits=16, speedup=2.0)]}
        fresh = {"flush": [_row(n_qubits=16, speedup=0.5), _row(n_qubits=12, speedup=2.0)]}
        verdicts = {k: v for k, _, _, _, v in _verdicts(base, fresh)}
        assert verdicts[("flush", ("kernel", "qft"), ("n_qubits", 12))] == "ok"
        assert verdicts[("flush", ("kernel", "qft"), ("n_qubits", 16))] == "FAIL"

    def test_one_sided_row_skips(self):
        out = _verdicts(
            {"flush": [_row(n_qubits=12, speedup=2.0), _row(n_qubits=20, speedup=3.0)]},
            {"flush": [_row(n_qubits=12, speedup=2.0)]},
        )
        assert sorted(v for *_, v in out) == ["ok", "skip (no counterpart)"]

    def test_nonpositive_baseline_skips(self):
        out = _verdicts(
            {"flush": [_row(speedup=0.0)]}, {"flush": [_row(speedup=1.0)]}
        )
        assert [v for *_, v in out] == ["skip"]

    def test_info_fields_never_gate(self):
        out = _verdicts(
            {"scale": [_row(peak_rss_bytes=1e6)]},
            {"scale": [_row(peak_rss_bytes=1e9)]},
        )
        assert [v for *_, v in out] == ["info"]

    @pytest.mark.parametrize("fresh,verdict", [(1.05, "ok"), (1.3, "ok"), (1.31, "FAIL")])
    def test_peak_over_state_is_gated_by_its_ceiling(self, fresh, verdict):
        assert bench_compare.CEILINGS == {"peak_over_state": 1.3}
        out = _verdicts(
            {"scale": [_row(peak_over_state=2.5)]},  # the baseline does not move it
            {"scale": [_row(peak_over_state=fresh)]},
            tolerance=0.9,
        )
        assert out == [(("scale", ("kernel", "qft"), ("n_qubits", 12)),
                        "peak_over_state", 1.3, fresh, verdict)]

    def test_every_section_is_gated(self):
        assert bench_compare.SECTIONS == ("flush", "kernels", "scale")
        for section in bench_compare.SECTIONS:
            out = _verdicts(
                {section: [_row(speedup=4.0)]},
                {section: [_row(speedup=1.0)]},
            )
            assert [v for *_, v in out] == ["FAIL"], section


class TestDegenerateInputs:
    def test_section_missing_from_fresh_skips_with_warning(self):
        out = _verdicts(
            {"kernels": [_row(speedup=2.0), _row(n_qubits=16, speedup=2.0)]}, {}
        )
        assert len(out) == 1
        key, field, *_, verdict = out[0]
        assert key == ("kernels",) and field == "-"
        assert verdict == "skip (section missing from fresh; 2 row(s) not gated)"

    def test_section_missing_from_baseline_skips_with_warning(self):
        out = _verdicts({}, {"kernels": [_row(speedup=2.0)]})
        assert [v for *_, v in out] == [
            "skip (section missing from baseline; 1 row(s) not gated)"
        ]

    def test_malformed_section_skips_not_crashes(self):
        out = _verdicts({"flush": {"oops": "a dict"}}, {"flush": [_row(speedup=1.0)]})
        (key, field, *_, verdict) = out[0]
        assert key == ("flush",)
        assert verdict.startswith("skip (malformed baseline:")

    def test_unknown_sections_ignored(self):
        assert _verdicts({"meta": [{"host": "x"}]}, {"meta": []}) == []


class TestMain:
    def _write(self, tmp_path, name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    def test_exit_zero_and_table(self, tmp_path, capsys):
        b = self._write(tmp_path, "base.json", {"flush": [_row(speedup=2.0)]})
        f = self._write(tmp_path, "fresh.json", {"flush": [_row(speedup=1.9)]})
        assert bench_compare.main(["--baseline", b, "--fresh", f]) == 0
        captured = capsys.readouterr().out
        assert "flush:qft/12" in captured and "ok" in captured

    def test_exit_one_on_regression(self, tmp_path, capsys):
        b = self._write(tmp_path, "base.json", {"flush": [_row(speedup=2.0)]})
        f = self._write(tmp_path, "fresh.json", {"flush": [_row(speedup=0.1)]})
        assert bench_compare.main(["--baseline", b, "--fresh", f]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_section_prints_warning_and_passes(self, tmp_path, capsys):
        both = {"flush": [_row(speedup=2.0)]}
        b = self._write(tmp_path, "base.json", {**both, "kernels": [_row(speedup=2.0)]})
        f = self._write(tmp_path, "fresh.json", both)
        assert bench_compare.main(["--baseline", b, "--fresh", f]) == 0
        assert "section missing from fresh" in capsys.readouterr().out

    def test_every_section_missing_fails(self, tmp_path, capsys):
        b = self._write(tmp_path, "base.json", {"kernels": [_row(speedup=2.0)]})
        f = self._write(tmp_path, "fresh.json", {})
        assert bench_compare.main(["--baseline", b, "--fresh", f]) == 1
        out = capsys.readouterr().out
        assert "section missing from fresh" in out
        assert "no gated ratio compared" in out and "Traceback" not in out

    def test_pair_gating_nothing_fails(self, tmp_path, capsys):
        # Sections the gate does not know, and info-only columns, are
        # not a pass.
        unknown = self._write(tmp_path, "unknown.json", {"batching": [_row(speedup=9.0)]})
        info = self._write(tmp_path, "info.json", {"scale": [_row(peak_rss_bytes=1e6)]})
        for path in (unknown, info):
            assert bench_compare.main(["--baseline", path, "--fresh", path]) == 1
            assert "no gated ratio compared" in capsys.readouterr().out

    def test_missing_file_fails_readably(self, tmp_path, capsys):
        b = self._write(tmp_path, "base.json", {"flush": [_row(speedup=2.0)]})
        missing = str(tmp_path / "nope.json")
        assert bench_compare.main(["--baseline", b, "--fresh", missing]) == 1
        out = capsys.readouterr().out
        assert "cannot load pair" in out and "Traceback" not in out

    def test_corrupt_json_fails_readably(self, tmp_path, capsys):
        b = self._write(tmp_path, "base.json", {"flush": [_row(speedup=2.0)]})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert bench_compare.main(["--baseline", b, "--fresh", str(bad)]) == 1
        assert "cannot load pair" in capsys.readouterr().out

    def test_unpaired_arguments_rejected(self, tmp_path):
        b = self._write(tmp_path, "base.json", {})
        with pytest.raises(SystemExit):
            bench_compare.main(["--baseline", b, "--fresh", b, "--fresh", b])

    def test_tolerance_flag(self, tmp_path):
        b = self._write(tmp_path, "base.json", {"flush": [_row(speedup=2.0)]})
        f = self._write(tmp_path, "fresh.json", {"flush": [_row(speedup=1.5)]})
        assert bench_compare.main(
            ["--baseline", b, "--fresh", f, "--tolerance", "0.1"]
        ) == 1
        assert bench_compare.main(
            ["--baseline", b, "--fresh", f, "--tolerance", "0.5"]
        ) == 0


COMMITTED = sorted(p.name for p in ROOT.glob("BENCH_*.json"))


class TestCommittedFiles:
    """A committed ``BENCH_*.json`` exists only while a blocking gate reads it."""

    def test_some_file_is_committed(self):
        assert COMMITTED

    @pytest.mark.parametrize("name", COMMITTED)
    def test_file_has_a_gated_ratio(self, name):
        data = json.loads((ROOT / name).read_text())
        verdicts = [v for *_, v in bench_compare.compare(data, data, 0.3)]
        assert "ok" in verdicts, f"{name} gates no ratio: {verdicts}"

    @pytest.mark.parametrize("name", COMMITTED)
    def test_ci_gate_reads_file(self, name):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        baselines = re.findall(r"--baseline\s+(\S+)", ci)
        assert name in baselines, f"no CI --baseline names {name}: {baselines}"
