"""owcsim: deterministic ray-traced simulator for visible-light downlinks
inside a data-centre pod.

The package traces the indoor optical channel (line of sight plus first-
and second-order diffuse reflections) from ceiling laser-diode light units
to wide-FOV, angle-diversity and imaging receivers, and evaluates delay
spread, 3-dB bandwidth, OOK SNR/BER and the achievable data rate.
"""

from .scene import (
    PodConfig,
    RackRow,
    Scene,
    SurfacePanel,
    Luminaire,
    build_pod,
    discretize,
    lambertian_order,
    validate_scene,
)
from .raytracer import (
    C_LIGHT,
    ArrivalField,
    ImpulseResponse,
    TraceConfig,
    compute_field,
    trace_fields,
)
from .receivers import (
    DetectorSpec,
    ReceiverSpec,
    make_adr,
    make_imaging,
    make_wfov,
)
from .linkmetrics import (
    DelayStats,
    EyePowers,
    LinkReport,
    NoiseBudget,
    NoiseParams,
    UNBOUNDED,
    bandwidth_3db,
    ber_from_snr,
    combine_mrc,
    combine_sc,
    delay_stats,
    eye_powers,
    link_report,
    max_data_rate,
    noise_budget,
    q_function,
    snr_ook,
)
from .cli import RunConfig, parse_config

__version__ = "0.1.0"
