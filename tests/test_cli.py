import os
import subprocess
import sys
from importlib.resources import files

import numpy as np
import pytest

import owcsim
from owcsim.cli import (
    METRICS_HEADER,
    ConfigError,
    _metrics_row,
    main,
    parse_config,
    serialize_config,
    write_ir_csv,
)
from owcsim.linkmetrics import link_report
from owcsim.raytracer import ImpulseResponse, compute_field
from owcsim.receivers import make_adr, make_imaging, make_wfov
from owcsim.scene import build_pod

REFERENCE = files("owcsim").joinpath("data/pod_reference.ini").read_text()


def fast_config(**overrides):
    """Reference config patched for quick traces in tests."""
    text = REFERENCE
    repl = {"orders = 2": "orders = 0"}
    repl.update(overrides)
    for old, new in repl.items():
        assert old in text, old
        text = text.replace(old, new)
    return text


class TestParseConfig:
    def test_reference_parses(self):
        cfg = parse_config(REFERENCE)
        assert cfg.receiver_kind == "adr"
        assert cfg.bitrate == 2e9
        assert cfg.trace.max_order == 2
        assert cfg.trace.bin_width == pytest.approx(50e-12)
        scene = build_pod(cfg.pod)
        assert len(scene.luminaires) == 9

    def test_unknown_key_named(self):
        text = REFERENCE.replace("wall_reflectance", "refelctance")
        with pytest.raises(ConfigError, match="refelctance"):
            parse_config(text)
        with pytest.raises(ConfigError, match=r"\[surfaces\]"):
            parse_config(text)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"\[extras\]"):
            parse_config(REFERENCE + "\n[extras]\nfoo = 1\n")

    def test_missing_required_power(self):
        text = REFERENCE.replace("power_w = 1.0\n", "")
        with pytest.raises(ConfigError, match="power_w"):
            parse_config(text)

    def test_type_mismatch_reports_line(self):
        text = REFERENCE.replace("orders = 2", "orders = two")
        line_no = next(i for i, l in enumerate(text.splitlines(), 1)
                       if l.startswith("orders"))
        with pytest.raises(ConfigError, match=f"line {line_no}"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = REFERENCE.replace("orders = 2", "orders = 2\norders = 1")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_roundtrip_identity(self):
        cfg = parse_config(REFERENCE)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigError, match="y_step_m"):
            parse_config(REFERENCE.replace("y_step_m = 0.5", "y_step_m = 0"))

    def test_sweep_outside_room_rejected(self):
        with pytest.raises(ConfigError, match="outside the room"):
            parse_config(REFERENCE.replace("y_stop_m = 7.0", "y_stop_m = 9.0"))

    @pytest.mark.parametrize("old, key", [
        ("power_w = 1.0", "power_w"),
        ("bin_ps = 50.0", "bin_ps"),
        ("y_step_m = 0.5", "y_step_m"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_number_rejected(self, old, key, value):
        text = REFERENCE.replace(old, f"{key} = {value}")
        line_no = next(i for i, l in enumerate(text.splitlines(), 1)
                       if l.startswith(key))
        with pytest.raises(ConfigError,
                           match=rf"line {line_no}: '\w+\.{key}' must be a finite"):
            parse_config(text)

    def test_bad_receiver_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(REFERENCE.replace("kind = adr", "kind = lens"))

    def test_reflectance_out_of_range(self):
        with pytest.raises(ConfigError, match="wall_reflectance"):
            parse_config(REFERENCE.replace("wall_reflectance = 0.8",
                                           "wall_reflectance = 1.2"))


class TestOverrideFlags:
    @pytest.mark.parametrize("flag, value, key", [
        ("--bin-ps", "0", "trace.bin_ps"),
        ("--bin-ps", "-5", "trace.bin_ps"),
        ("--bin-ps", "nan", "trace.bin_ps"),
        ("--bin-ps", "inf", "trace.bin_ps"),
        ("--bitrate", "nan", "receiver.bitrate_bps"),
        ("--bitrate", "inf", "receiver.bitrate_bps"),
        ("--bitrate", "0", "receiver.bitrate_bps"),
    ])
    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, command,
                                            flag, value, key):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        rc = main([command, "--config", str(cfg_path), flag, value,
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and f"'{key}'" in err, err
        assert not (tmp_path / "out").exists()

    def test_overrides_reach_the_run_config(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr("owcsim.cli.run_scene_check",
                            lambda cfg, receiver: seen.append(cfg) or 0)
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(REFERENCE)
        assert main(["check", "--config", str(cfg_path), "--orders", "1",
                     "--bin-ps", "25", "--bitrate", "1e9"]) == 0
        want = parse_config(REFERENCE.replace("orders = 2", "orders = 1")
                            .replace("bin_ps = 50.0", "bin_ps = 25")
                            .replace("bitrate_bps = 2.0e9", "bitrate_bps = 1e9"))
        assert seen == [want]


class TestWriteIrCsv:
    @staticmethod
    def row_loop(ir, path):
        """The CSV writer as first written: one `repr` pair per row."""
        t = ir.times()
        with open(path, "w", newline="") as f:
            f.write("time_s,power_w\n")
            for k in np.nonzero(ir.bins)[0]:
                f.write(f"{repr(float(t[k]))},{repr(float(ir.bins[k]))}\n")

    @pytest.mark.parametrize("width,origin", [(50e-12, 0.0), (0.2, 0.1), (1e21, 1e22)])
    def test_bytes_equal_row_loop(self, tmp_path, width, origin):
        ir = ImpulseResponse(width, origin, np.array(
            [0.0, 5e-324, 1e-300, 0.0, 1e22, 0.1 + 0.2, 0.0, 0.0, 2.5e-9]))
        write_ir_csv(ir, str(tmp_path / "new.csv"))
        self.row_loop(ir, str(tmp_path / "old.csv"))
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\n") == 6          # header and five non-zero bins

    def test_empty_ir_is_header_only(self, tmp_path):
        write_ir_csv(ImpulseResponse(50e-12, 0.0, np.zeros(0)), str(tmp_path / "e.csv"))
        assert (tmp_path / "e.csv").read_bytes() == b"time_s,power_w\n"


class TestSimulate:
    def test_wfov_orders0_writes_three_los_files(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path),
                   "--receiver", "wfov", "--out", str(out)])
        assert rc == 0
        irs = sorted(out.glob("ir_*.csv"))
        assert len(irs) == 3
        for p in irs:
            lines = p.read_text().splitlines()
            assert lines[0] == "time_s,power_w"
            assert 1 <= len(lines) - 1 <= 3   # LOS taps only
        assert capsys.readouterr().out.count("total_power_w=") == 3

    def test_adr_writes_nine_files(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path),
                   "--receiver", "adr", "--out", str(out)])
        assert rc == 0
        assert len(list(out.glob("ir_adr_*.csv"))) == 9

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config(**{"orders = 2": "orders = 1",
                                           "first_edge_m = 0.05":
                                           "first_edge_m = 0.4"}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", str(cfg_path),
                         "--receiver", "adr", "--out", str(out)]) == 0
        for p1 in sorted(out1.glob("*.csv")):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_thread_count_does_not_change_results(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config(**{"orders = 2": "orders = 2",
                                           "first_edge_m = 0.05":
                                           "first_edge_m = 0.4",
                                           "second_edge_m = 0.20":
                                           "second_edge_m = 0.80"}))
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["simulate", "--config", str(cfg_path), "--receiver",
                     "wfov", "--out", str(out1), "--threads", "1"]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--receiver",
                     "wfov", "--out", str(out2), "--threads", "4"]) == 0
        for p1 in sorted(out1.glob("*.csv")):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes()

    def test_imaging_with_layout_override(self, tmp_path):
        from owcsim.receivers import default_pixel_layout
        layout_path = tmp_path / "layout.csv"
        rows = ["pixel_index,az_deg,el_deg"]
        rows += [f"{i},{o.az_deg},{o.el_deg}"
                 for i, o in enumerate(default_pixel_layout())]
        layout_path.write_text("\n".join(rows) + "\n")
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config(**{
            "pixel_layout_file =": f"pixel_layout_file = {layout_path}"}))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path),
                   "--receiver", "imaging", "--out", str(out)])
        assert rc == 0
        assert len(list(out.glob("ir_imaging_*.csv"))) == 150

    def test_invalid_scene_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.ini"
        # rack top above the ceiling parses but fails scene validation
        cfg_path.write_text(fast_config(**{"rack_top_m = 2.0":
                                           "rack_top_m = 3.5"}))
        rc = main(["simulate", "--config", str(cfg_path),
                   "--receiver", "wfov", "--out", str(tmp_path / "out")])
        assert rc != 0
        assert "rack row" in capsys.readouterr().err

    def test_gnuplot_script_emitted(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--receiver",
                     "wfov", "--out", str(out), "--gnuplot"]) == 0
        script = (out / "plot_ir.gp").read_text()
        assert "plot" in script and "ir_wfov_mount0_branch0.csv" in script


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg_path),
                   "--receiver", "wfov", "--out", str(out)])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == ("mount_x,mount_y,mount_z,receiver,delay_spread_s,"
                            "bandwidth_hz,snr_sc_db,snr_mrc_db,ber,max_rate_bps")
        assert len(lines) - 1 == 13            # y in [1, 7] step 0.5

    def test_all_kinds_share_position(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        text = fast_config(**{"y_start_m = 1.0": "y_start_m = 4.0",
                              "y_stop_m = 7.0": "y_stop_m = 4.0"})
        cfg_path.write_text(text)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg_path),
                   "--receiver", "all", "--out", str(out)])
        assert rc == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        coords = {tuple(r.split(",")[:3]) for r in rows}
        kinds = [r.split(",")[3] for r in rows]
        assert len(coords) == 1
        assert sorted(kinds) == ["adr", "imaging", "wfov"]


class TestCheck:
    def test_reference_is_clean(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(REFERENCE)
        rc = main(["check", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 diagnostics" in out
        assert "first-order elements: 89600" in out
        assert "second-order elements: 5600" in out

    def test_bad_reflectance_fails_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(REFERENCE.replace("wall_reflectance = 0.8",
                                              "wall_reflectance = 1.2"))
        rc = main(["check", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc != 0
        assert "wall_reflectance" in err

    def test_missing_config_file(self, capsys):
        rc = main(["check", "--config", "/nonexistent/x.ini"])
        assert rc != 0
        assert "cannot read config" in capsys.readouterr().err


class TestEnvThreads:
    def test_env_fallback_used(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("OWCSIM_THREADS", "3")
        assert main(["simulate", "--config", str(cfg_path), "--receiver",
                     "wfov", "--out", str(out1)]) == 0
        monkeypatch.delenv("OWCSIM_THREADS")
        assert main(["simulate", "--config", str(cfg_path), "--receiver",
                     "wfov", "--out", str(out2)]) == 0
        for p1 in sorted(out1.glob("*.csv")):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes()


MAKERS = (("wfov", make_wfov), ("adr", make_adr), ("imaging", make_imaging))


def coarse_second_order_config(**overrides):
    """Orders 2 on 0.4 m grids, three sweep positions."""
    return fast_config(**{"orders = 2": "orders = 2",
                          "first_edge_m = 0.05": "first_edge_m = 0.4",
                          "second_edge_m = 0.20": "second_edge_m = 0.40",
                          "y_step_m = 0.5": "y_step_m = 3.0", **overrides})


class TestReceiverCulledOutputs:
    """simulate/sweep trace only what their receivers see; their files must
    equal the ones built from fully traced fields, byte for byte."""

    def test_simulate_equals_full_fields(self, tmp_path):
        text = coarse_second_order_config()
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--receiver",
                     "all", "--out", str(out), "--threads", "2"]) == 0
        cfg = parse_config(text)
        pod = build_pod(cfg.pod)
        ref = tmp_path / "ref"
        ref.mkdir()
        for mi, mount in enumerate(pod.mounts):
            field = compute_field(pod, pod.assignment[mi], mount, cfg.trace)
            for kind, make in MAKERS:
                for bj, ir in enumerate(field.receiver_irs(make(mount))):
                    write_ir_csv(ir, str(ref / f"ir_{kind}_mount{mi}_branch{bj}.csv"))
        names = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in out.glob("*.csv")) == names
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_sweep_equals_full_fields(self, tmp_path):
        text = coarse_second_order_config()
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--receiver", "all",
                     "--out", str(out)]) == 0
        cfg = parse_config(text)
        pod = build_pod(cfg.pod)
        lines = [METRICS_HEADER]
        for y in (1.0, 4.0, 7.0):
            mount = np.array([cfg.sweep.row_x, y, cfg.pod.rack_top_m])
            field = compute_field(pod, pod.assigned_luminaires(mount), mount,
                                  cfg.trace)
            for _, make in MAKERS:
                lines.append(_metrics_row(link_report(
                    field, make(mount), cfg.bitrate, cfg.noise)))
        assert (out / "metrics.csv").read_text() == "\n".join(lines) + "\n"

    def test_check_reports_traced_pairs(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(coarse_second_order_config())
        assert main(["check", "--config", str(cfg_path),
                     "--receiver", "wfov"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "second-order (wfov)" in ln]
        assert len(lines) == 3
        fields = dict(kv.split("=") for kv in lines[0].split() if "=" in kv)
        assert int(fields["pairs"]) == int(fields["rows"]) * int(fields["cols"])
        assert 0 < int(fields["cols"]) < 1400


class TestModuleEntryPoint:
    def test_python_dash_m_runs_cli_quietly(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        src = os.path.dirname(os.path.dirname(owcsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                     if p])}
        proc = subprocess.run(
            [sys.executable, "-m", "owcsim", "check", "--config", str(cfg_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "0 diagnostics" in proc.stdout
