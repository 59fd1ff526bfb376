"""The package's public surface is an explicit list: adding or removing a
top-level name, a field of a public dataclass or a parameter default of a
public function or method has to be a deliberate edit here."""

import dataclasses
import inspect
import types

import owcsim
from owcsim import cli, linkmetrics, raytracer, receivers, scene
from owcsim.linkmetrics import NoiseParams

PUBLIC = {
    # scene
    "PodConfig", "RackRow", "Scene", "SurfacePanel", "Luminaire", "build_pod",
    "discretize", "lambertian_order", "validate_scene",
    # raytracer
    "C_LIGHT", "ArrivalField", "ImpulseResponse", "TraceConfig", "compute_field",
    "trace_fields",
    # receivers
    "DetectorSpec", "ReceiverSpec", "make_adr", "make_imaging", "make_wfov",
    # linkmetrics
    "DelayStats", "EyePowers", "LinkReport", "NoiseBudget", "NoiseParams",
    "UNBOUNDED", "bandwidth_3db", "ber_from_snr", "combine_mrc", "combine_sc",
    "delay_stats", "eye_powers", "link_report", "max_data_rate", "noise_budget",
    "q_function", "snr_ook",
    # cli
    "RunConfig", "parse_config",
}

# Every field is a value a caller can set; the paper's fixed hardware
# (detector area and responsivity, the imaging lens and its 50-pixel ring
# layout, downward luminaires) is module constants, not fields.
FIELDS = {
    # scene
    "PodConfig": ("luminaire_power_w", "room", "wall_reflectance",
                  "ceiling_reflectance", "floor_reflectance", "semi_angle_deg",
                  "rack_top_m", "row_y_span", "rack_depth_m", "rack_occluding"),
    "RackRow": ("centre_x", "y_span", "top_height", "occluding", "depth"),
    "Scene": ("room", "panels", "luminaires", "rows", "mounts"),
    "SurfacePanel": ("origin", "u", "v", "normal", "reflectance", "kind"),
    "Luminaire": ("position", "semi_angle_deg", "power_w"),
    # raytracer
    "ArrivalField": ("mount", "cfg", "nbins", "point_bins", "b2_bins",
                     "totals"),
    "ImpulseResponse": ("bin_width", "bins"),
    "TraceConfig": ("max_order", "first_edge", "second_edge", "bin_width"),
    # receivers
    "DetectorSpec": ("boresight", "fov_deg"),
    "ReceiverSpec": ("kind", "branches"),
    # linkmetrics
    "DelayStats": ("mean_delay", "rms_spread"),
    "EyePowers": ("ps1", "ps0"),
    "LinkReport": ("mount", "receiver_kind", "bitrate", "branch_power_w",
                   "branch_snr", "branch_snr_db", "sc_branch", "snr_sc",
                   "snr_sc_db", "snr_mrc", "snr_mrc_db", "ber", "delay",
                   "bandwidth_hz", "max_rate_bps"),
    "NoiseBudget": ("sigma_preamp", "sigma_background", "sigma_signal",
                    "sigma_total"),
    "NoiseParams": ("preamp_density", "background_current", "bandwidth_factor"),
    # cli
    "RunConfig": ("pod", "receiver_kind", "bitrate", "noise", "trace", "sweep"),
}


def test_public_names_are_the_listed_ones():
    names = {name for name, value in vars(owcsim).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_public_dataclass_fields_are_the_listed_ones():
    fields = {name: tuple(f.name for f in dataclasses.fields(value))
              for name, value in vars(owcsim).items()
              if name in PUBLIC and dataclasses.is_dataclass(value)}
    assert fields == FIELDS


# Every parameter with a default of a public function or method of the five
# modules, with that default: each is a value a caller can set.  Dataclass
# field defaults are fields, listed above.
DEFAULTS = {
    "scene.Luminaire.make": {"semi_angle_deg": 70.0},
    "raytracer.compute_field": {"threads": 1},
    "raytracer.trace_fields": {"threads": 1},
    "linkmetrics.link_report": {"noise": NoiseParams()},
    "cli.main": {"argv": None},
    "cli.run_simulate": {"threads": 1, "gnuplot": False},
    "cli.run_sweep": {"threads": 1},
}


def public_callables(module):
    """(dotted name, callable) of the module's own public functions and of
    the public methods of its classes."""
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr in vars(value):
                if not attr.startswith("_") and callable(getattr(value, attr)):
                    yield f"{name}.{attr}", getattr(value, attr)


def test_parameter_defaults_are_the_listed_ones():
    defaults = {}
    for module in (scene, raytracer, receivers, linkmetrics, cli):
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in public_callables(module):
            params = {p.name: p.default
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not p.empty}
            if params:
                defaults[f"{short}.{name}"] = params
    assert defaults == DEFAULTS
