import configparser
import gc
import json
import os
import subprocess
import sys
import weakref
from importlib.resources import files

import numpy as np
import pytest

import owcsim
from owcsim import cli
from owcsim.cli import (
    _KEYS,
    METRICS_HEADER,
    ConfigError,
    _metrics_row,
    _sweep_mounts,
    main,
    parse_config,
    write_ir_csv,
)
from owcsim.linkmetrics import link_report
from owcsim.raytracer import (ImpulseResponse, _position_groups, compute_field,
                              trace_fields)
from owcsim.receivers import make_adr, make_imaging, make_wfov
from owcsim.scene import Scene, build_pod

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
        # a misspelt key, and the pixel-layout key the schema no longer has
        for text, key, section in (
                (REFERENCE.replace("wall_reflectance", "refelctance"),
                 "refelctance", "surfaces"),
                (REFERENCE.replace("bitrate_bps = 2.0e9\n",
                                   "bitrate_bps = 2.0e9\npixel_layout_file = x\n"),
                 "pixel_layout_file", "receiver")):
            with pytest.raises(ConfigError,
                               match=rf"unknown key '{key}' in section \[{section}\]"):
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

    def test_reference_sets_exactly_the_schema_keys(self):
        ini = configparser.ConfigParser()
        ini.read_string(REFERENCE)
        shipped = {(sec, key) for sec in ini.sections() for key in ini[sec]}
        assert shipped == {(k.section, k.key) for k in _KEYS}

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

    def test_zero_noise_bandwidth_rejected(self):
        # noise_budget needs a positive noise bandwidth
        with pytest.raises(ConfigError,
                           match=r"'noise\.bandwidth_factor' must be positive"):
            parse_config(REFERENCE.replace("bandwidth_factor = 0.7",
                                           "bandwidth_factor = 0"))

    # 1e-9 and 1e-7 lie inside (0, 90), but their cosine rounds to 1, so
    # the Lambertian order is infinite
    @pytest.mark.parametrize("value", ["0", "90", "95", "1e-9", "1e-7"])
    def test_semi_angle_out_of_range(self, value):
        with pytest.raises(ConfigError,
                           match=r"'luminaires\.semi_angle_deg' must be in \(0, 90\)"):
            parse_config(REFERENCE.replace("semi_angle_deg = 70.0",
                                           f"semi_angle_deg = {value}"))

    def test_small_semi_angle_parses(self):
        cfg = parse_config(REFERENCE.replace("semi_angle_deg = 70.0",
                                             "semi_angle_deg = 1e-3"))
        assert cfg.pod.semi_angle_deg == 1e-3


class TestOverrideFlags:
    @pytest.mark.parametrize("flag, value, key", [
        ("--bin-ps", "0", "trace.bin_ps"),
        ("--bin-ps", "-5", "trace.bin_ps"),
        ("--bin-ps", "nan", "trace.bin_ps"),
        ("--bin-ps", "inf", "trace.bin_ps"),
        ("--bitrate", "nan", "receiver.bitrate_bps"),
        ("--bitrate", "inf", "receiver.bitrate_bps"),
        ("--bitrate", "0", "receiver.bitrate_bps"),
        ("--receiver", "lens", "receiver.kind"),
        ("--orders", "3", "trace.orders"),
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
                            lambda cfg: seen.append(cfg) or 0)
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(REFERENCE)
        assert main(["check", "--config", str(cfg_path), "--orders", "1",
                     "--bin-ps", "25", "--bitrate", "1e9",
                     "--receiver", "imaging"]) == 0
        want = parse_config(REFERENCE.replace("orders = 2", "orders = 1")
                            .replace("kind = adr", "kind = imaging")
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

    @pytest.mark.parametrize("width", [50e-12, 0.2, 1e21])
    def test_bytes_equal_row_loop(self, tmp_path, width):
        ir = ImpulseResponse(width, np.array(
            [0.0, 5e-324, 1e-300, 0.0, 1e22, 0.1 + 0.2, 0.0, 0.0, 2.5e-9]))
        write_ir_csv(ir, str(tmp_path / "new.csv"))
        self.row_loop(ir, str(tmp_path / "old.csv"))
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\n") == 6          # header and five non-zero bins

    def test_empty_ir_is_header_only(self, tmp_path):
        write_ir_csv(ImpulseResponse(50e-12, np.zeros(0)), str(tmp_path / "e.csv"))
        assert (tmp_path / "e.csv").read_bytes() == b"time_s,power_w\n"

    def assert_equal_row_loop(self, tmp_path, ir):
        write_ir_csv(ir, str(tmp_path / "new.csv"))
        self.row_loop(ir, str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_time_labels_per_bin_width(self, tmp_path):
        # two bin widths in turn, each longer than the last at its width,
        # so each width's labels are built, reused and grown in one process
        rng = np.random.default_rng(7)
        for n in (5, 40, 300, 2344):
            for width in (50e-12, 1e-10 / 3):
                bins = rng.random(n) * (rng.random(n) < 0.3)
                self.assert_equal_row_loop(tmp_path, ImpulseResponse(width, bins))

    def test_longer_ir_grows_the_labels(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_TIME_LABELS", {})
        width = 7e-12 / 3
        self.assert_equal_row_loop(tmp_path, ImpulseResponse(width, np.full(10, 0.5)))
        assert len(cli._TIME_LABELS[width]) == 10
        self.assert_equal_row_loop(tmp_path, ImpulseResponse(width, np.full(1000, 0.25)))
        assert len(cli._TIME_LABELS[width]) == 1000
        assert (tmp_path / "new.csv").read_bytes().count(b"\n") == 1001

    def test_only_the_last_bin_set(self, tmp_path):
        for n in (1, 2, 3001):
            bins = np.zeros(n)
            bins[-1] = 1e-7 / 3
            self.assert_equal_row_loop(tmp_path, ImpulseResponse(11e-12 / 7, bins))
            assert (tmp_path / "new.csv").read_bytes().count(b"\n") == 2


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

    def test_last_position_clamped_to_stop(self, tmp_path):
        # 0.3 + 7 * 1.1 rounds to 8.000000000000002, past the 8 m wall
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config(**{"y_start_m = 1.0": "y_start_m = 0.3",
                                           "y_stop_m = 7.0": "y_stop_m = 8.0",
                                           "y_step_m = 0.5": "y_step_m = 1.1"}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--receiver", "wfov",
                     "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        assert float(rows[-1].split(",")[1]) == 8.0


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

    def test_bad_semi_angle_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(REFERENCE.replace("semi_angle_deg = 70.0",
                                              "semi_angle_deg = 95"))
        rc = main(["check", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "'luminaires.semi_angle_deg'" in err

    def test_tiny_semi_angle_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(REFERENCE.replace("semi_angle_deg = 70.0",
                                              "semi_angle_deg = 1e-9"))
        rc = main(["check", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "'luminaires.semi_angle_deg'" in err

    def test_reversed_rack_row_fails_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(fast_config(**{
            "rack_row_y_start_m = 1.0": "rack_row_y_start_m = 7.0",
            "rack_row_y_end_m = 7.0": "rack_row_y_end_m = 1.0"}))
        rc = main(["check", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "diagnostic: rack row 0: y span (7.0, 1.0) is not increasing" in out
        assert "3 diagnostics" in out

    def test_zero_noise_bandwidth_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(fast_config(**{"bandwidth_factor = 0.7":
                                           "bandwidth_factor = 0"}))
        rc = main(["check", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "'noise.bandwidth_factor'" in err

    @pytest.mark.parametrize("depth", ["-1.0", "0.0"])
    def test_bad_rack_depth_fails_nonzero(self, tmp_path, capsys, depth):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(REFERENCE.replace("rack_depth_m = 1.0",
                                              f"rack_depth_m = {depth}"))
        rc = main(["check", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"diagnostic: rack row 0: depth {float(depth)} is not" in out
        assert "3 diagnostics" in out

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 143. GiB for an array with shape (80000, 80000, 3) "
         "and data type float64",
         "error: out of memory: Unable to allocate 143. GiB for an array with "
         "shape (80000, 80000, 3) and data type float64"),
        ("", "error: out of memory")], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys,
                                             monkeypatch, message, line):
        # `first_edge_m = 1e-4` asks numpy for 143 GiB while the scene is
        # discretized; the stand-in raises before anything is allocated
        def exhausted(self, element_edge):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(Scene, "surface_elements", exhausted)
        cfg_path = tmp_path / "huge.ini"
        cfg_path.write_text(REFERENCE.replace("first_edge_m = 0.05",
                                              "first_edge_m = 1e-4"))
        rc = main(["check", "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err == line + "\n"
        assert "0 diagnostics" in out

    def test_missing_config_file(self, capsys):
        rc = main(["check", "--config", "/nonexistent/x.ini"])
        assert rc != 0
        assert "cannot read config" in capsys.readouterr().err


class TestEnvThreads:
    @pytest.mark.parametrize("flag, want", [
        ("1", 1), ("2", 2), ("4", 4), (None, 1)])
    def test_valid_counts_reach_the_run(self, tmp_path, monkeypatch, flag, want):
        seen = []
        monkeypatch.setattr("owcsim.cli.run_sweep",
                            lambda cfg, out, threads: seen.append(threads) or 0)
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        argv = ["sweep", "--config", str(cfg_path)]
        assert main(argv + (["--threads", flag] if flag else [])) == 0
        assert seen == [want]

    @pytest.mark.parametrize("flag", ["0", "-3"])
    def test_bad_count_is_a_config_error(self, tmp_path, capsys, flag):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(fast_config())
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv + ["--threads", flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--threads" in err, err
        assert not out.exists()


RECEIVERS = (make_wfov(), make_adr(), make_imaging())


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
        # the reference is the per-row writer, so that a fault of
        # `write_ir_csv` cannot pass by writing both sides
        text = coarse_second_order_config()
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text)
        cfg = parse_config(text)
        pod = build_pod(cfg.pod)
        ref = tmp_path / "ref"
        ref.mkdir()
        for mi, mount in enumerate(pod.mounts):
            field = compute_field(pod, pod.assigned_luminaires(mount), mount, cfg.trace)
            for rx in RECEIVERS:
                for bj, ir in enumerate(field.receiver_irs(rx)):
                    TestWriteIrCsv.row_loop(
                        ir, str(ref / f"ir_{rx.kind}_mount{mi}_branch{bj}.csv"))
        names = sorted(p.name for p in ref.iterdir())
        assert len(names) == 162
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            assert main(["simulate", "--config", str(cfg_path), "--receiver",
                         "all", "--out", str(out), "--threads", threads]) == 0
            assert sorted(p.name for p in out.glob("*.csv")) == names
            for name in names:
                assert (out / name).read_bytes() == (ref / name).read_bytes(), \
                    (threads, name)

    @staticmethod
    def fields_alive(tmp_path, monkeypatch, command):
        """Which earlier fields are alive just before each field is asked
        for, in a run of `command`; the spy keeps only weak references
        across its own yield."""
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(coarse_second_order_config())
        refs, alive = [], []

        def record(field):
            refs.append(weakref.ref(field))
            return field

        def spied(fields):
            while True:
                alive.append([ref() is not None for ref in refs])
                yield record(next(fields))

        monkeypatch.setattr(cli, "trace_fields", lambda *args, **kwargs: spied(
            trace_fields(*args, **kwargs)))
        # freed by its reference count, not by a later collection
        gc.disable()
        try:
            assert main([command, "--config", str(cfg_path), "--receiver",
                         "all", "--out", str(tmp_path / "out")]) == 0
        finally:
            gc.enable()
        return alive

    def test_simulate_holds_one_field_at_a_time(self, tmp_path, monkeypatch):
        # three mounts, each its own group
        assert (self.fields_alive(tmp_path, monkeypatch, "simulate")
                == [[], [False], [False, False]])

    def test_sweep_holds_one_field_at_a_time(self, tmp_path, monkeypatch):
        # three positions in one group
        assert (self.fields_alive(tmp_path, monkeypatch, "sweep")
                == [[], [False], [False, False]])

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
            for rx in RECEIVERS:
                lines.append(_metrics_row(link_report(
                    field, rx, cfg.bitrate, cfg.noise)))
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
        # one histogram byte figure: the traced rows the field holds
        assert set(fields) == {"rows", "cols", "pairs", "histogram_bytes"}
        cfg = parse_config(coarse_second_order_config())
        pod = build_pod(cfg.pod)
        mount = pod.mounts[0]
        field = compute_field(pod, pod.assigned_luminaires(mount), mount,
                              cfg.trace, receivers=[make_wfov()])
        assert int(fields["histogram_bytes"]) == field.b2_hist.nbytes


    def test_check_reports_sweep_groups(self, tmp_path, capsys):
        # seven positions under one luminaire set: groups of three and four,
        # each sharing its pair geometry over the union of its columns
        text = coarse_second_order_config(**{"y_step_m = 0.5": "y_step_m = 1.0"})
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text)
        assert main(["check", "--config", str(cfg_path),
                     "--receiver", "all"]) == 0
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("sweep ")]
        assert line.startswith("sweep (wfov+adr+imaging): ")
        fields = {k: int(v) for k, v in
                  (kv.split("=") for kv in line.split() if "=" in kv)}
        cfg = parse_config(text)
        pod = build_pod(cfg.pod)
        groups = _position_groups(pod, _sweep_mounts(cfg))
        assert [len(mounts) for _, mounts in groups] == [3, 4]
        cols = pairs = held = 0
        for ids, mounts in groups:
            traced = [compute_field(pod, ids, m, cfg.trace,
                                    receivers=list(RECEIVERS)) for m in mounts]
            union = int(np.logical_or.reduce([f.b2_traced for f in traced]).sum())
            cols += union
            pairs += traced[0].totals["second_rows_traced"] * union
            held = max(held, sum(f.b2_hist.nbytes for f in traced))
        assert fields == {"positions": 7, "groups": 2, "union_cols": cols,
                          "pairs": pairs, "group_histogram_bytes": held}


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


class TestBenchmarkHooks:
    """`perfbench/child.py run` patches the calls between the layers to time
    them; renaming one, or moving the receiver out of the argument the
    benchmark reads its kind from, breaks `perfbench/run.py --trace 1`."""

    CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "child.py")
    SHARED = {"scene.build_pod", "scene.surface_elements",
              "receivers.capture_matrix", "receivers.receiver_irs.wfov",
              "receivers.receiver_irs.adr", "receivers.receiver_irs.imaging",
              "linkmetrics.delay_stats"}
    SPANS = {"simulate": {"cli.write_ir_csv"},
             "sweep": {"linkmetrics.link_report", "linkmetrics.bandwidth_3db",
                       "linkmetrics.eye_powers", "linkmetrics.noise_budget"}}

    @pytest.fixture(scope="class", params=["simulate", "sweep"])
    def traced_run(self, request, tmp_path_factory):
        """The command, its output directory and the spans file of one
        traced run on the coarse config."""
        command, tmp = request.param, tmp_path_factory.mktemp("traced")
        cfg_path = tmp / "run.ini"
        cfg_path.write_text(coarse_second_order_config())
        spans_path = tmp / "spans.json"
        proc = subprocess.run(
            [sys.executable, self.CHILD, "run", str(spans_path), "--", command,
             "--config", str(cfg_path), "--receiver", "all", "--orders", "2",
             "--out", str(tmp / "out")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        return command, tmp / "out", json.loads(spans_path.read_text())

    def test_traced_run_names_every_hook(self, traced_run):
        command, out, dump = traced_run
        names = {span[0] for span in dump["spans"]}
        assert self.SHARED | self.SPANS[command] <= names, sorted(names)
        if command == "simulate":
            # one wrapped `write_ir_csv` call per file, so that its span
            # times all of the CSV output
            csvs = list(out.glob("*.csv"))
            assert len(csvs) == 162
            assert dump["counts"]["ir_files"] == len(csvs)
            assert dump["counts"]["csv_bytes"] == sum(p.stat().st_size for p in csvs)

    @pytest.mark.xfail(strict=True, reason=(
        "the tracer wraps `cli.compute_field`, which the CLI no longer calls "
        "now that it traces through `trace_fields`, so the trace's spans and "
        "counts are missing until the tracer wraps `cli.trace_fields`"))
    def test_traced_run_times_the_trace(self, traced_run):
        _, _, dump = traced_run
        assert "raytracer.compute_field" in {span[0] for span in dump["spans"]}
