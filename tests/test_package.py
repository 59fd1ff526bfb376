"""The package's public surface is an explicit list: adding or removing a
top-level name has to be a deliberate edit here."""

import types

import owcsim

PUBLIC = {
    # scene
    "PodConfig", "RackRow", "Scene", "SurfacePanel", "Luminaire", "build_pod",
    "discretize", "lambertian_order", "validate_scene",
    # raytracer
    "C_LIGHT", "ArrivalField", "ImpulseResponse", "TraceConfig", "compute_field",
    # receivers
    "DetectorSpec", "LensModel", "Orientation", "ReceiverSpec",
    "default_pixel_layout", "load_pixel_layout", "make_adr", "make_imaging",
    "make_wfov",
    # linkmetrics
    "DelayStats", "EyePowers", "LinkReport", "NoiseBudget", "NoiseParams",
    "UNBOUNDED", "bandwidth_3db", "ber_from_snr", "combine_mrc", "combine_sc",
    "delay_stats", "eye_powers", "link_report", "max_data_rate", "noise_budget",
    "q_function", "snr_ook",
    # cli
    "RunConfig", "parse_config",
}


def test_public_names_are_the_listed_ones():
    names = {name for name, value in vars(owcsim).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
