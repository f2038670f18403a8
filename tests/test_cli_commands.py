"""CLI subcommand coverage beyond the basics in test_multi_io_cli."""

import pytest

from repro.cli import main


class TestCompare:
    def test_compare_prints_reductions(self, capsys):
        assert main(["compare", "--servers", "15",
                     "--policies", "vmt-ta"]) == 0
        out = capsys.readouterr().out
        assert "round-robin" in out
        assert "vmt-ta" in out
        assert "%" in out


class TestSweep:
    def test_sweep_reports_best(self, capsys):
        assert main(["sweep", "--servers", "12", "--start", "20",
                     "--stop", "24", "--step", "4",
                     "--policies", "vmt-ta"]) == 0
        out = capsys.readouterr().out
        assert "best vmt-ta" in out
        assert "GV" in out


class TestHeatmap:
    def test_heatmap_renders_both_maps(self, capsys):
        assert main(["heatmap", "--servers", "12",
                     "--policy", "round-robin"]) == 0
        out = capsys.readouterr().out
        assert "air temperature" in out
        assert "wax melted" in out


class TestRun:
    def test_run_without_save(self, capsys):
        assert main(["run", "--servers", "12",
                     "--policy", "coolest-first"]) == 0
        out = capsys.readouterr().out
        assert "coolest-first" in out

    def test_inlet_stdev_flag(self, capsys):
        assert main(["run", "--servers", "12", "--policy", "vmt-wa",
                     "--inlet-stdev", "1.0", "--seed", "3"]) == 0
        assert "peak_cooling_kw" in capsys.readouterr().out


class TestProfile:
    @pytest.mark.parametrize("policy, path, sections, calls", [
        ("vmt-ta", "planned", ("kernel_plan", "kernel_fused_step",
                               "kernel_metrics_write", "dispatch"), "1"),
        ("vmt-wa", "stepped", ("placement", "air_model", "pcm",
                               "estimator", "metrics"), "2880"),
    ])
    def test_prints_every_section_and_the_tick_count(
            self, capsys, policy, path, sections, calls):
        assert main(["profile", "--policy", policy, "--servers", "4"]) == 0
        out = capsys.readouterr().out
        assert f"kernel path: {path}" in out
        rows = {line.split()[0]: line.split()[1:]
                for line in out.splitlines() if line.strip()}
        for section in sections:
            assert rows[section][0] == calls, section
        assert "2880 ticks" in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "repro", "info"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "WebSearch" in proc.stdout


class TestErrorPaths:
    def test_bad_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "hottest-first"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flags, field", [
        (["--kill", "1", "--kill-at", "nan"], "ServerFaultSpec.time_s"),
        (["--kill", "1", "--repair-after", "nan"],
         "ServerFaultSpec.repair_after_s"),
        (["--derate", "0.8", "--derate-at", "inf"],
         "CoolingFaultSpec.time_s"),
        (["--hazard", "nan"], "FaultConfig.hazard_acceleration"),
        (["--inlet-stdev", "nan"], "ThermalConfig.inlet_stdev_c"),
        (["--gv", "nan"], "SchedulerConfig.grouping_value"),
        (["--gv", "inf"], "SchedulerConfig.grouping_value"),
    ])
    def test_non_finite_fault_flags_rejected(self, capsys, flags, field):
        assert main(["run", "--servers", "8", *flags]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
