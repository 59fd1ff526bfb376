"""One-branch probes: a bare detector element read through the receiver path.

The package applies every detector through `ReceiverSpec` assemblies
(`sparse_capture`, `capture_matrix`, `ArrivalField.receiver_irs`); these
helpers wrap one element in a one-branch receiver so that tests can read
a single element's gain or impulse response from that same path.
"""

import numpy as np

from owcsim.receivers import DetectorSpec, LensModel, ReceiverSpec, capture_matrix


def detector_ir(field, detector, lens=None):
    """Impulse response of one bare detector element at the field's mount."""
    return field.receiver_irs(ReceiverSpec("detector", (detector,), lens))[0]


def lens_transmission(angles, lens=None) -> np.ndarray:
    """Lens transmission at incidence angles (radians from the lens axis), as
    the capture path applies it.

    The probe is a unit-area, face-up element with a 90 deg FOV under the
    lens, so its capture is cos(angle) times the transmission; dividing by
    the cosine leaves the transmission (exact at normal incidence).  Only
    angles below 90 deg can be read: the element gates out the rest."""
    y = np.atleast_1d(np.asarray(angles, dtype=float))
    probe = ReceiverSpec(
        "detector", (DetectorSpec(1.0, 0.4, np.array([0.0, 0.0, 1.0]), 90.0),),
        LensModel() if lens is None else lens)
    toward = np.stack([np.sin(y), np.zeros_like(y), np.cos(y)], axis=1)
    captured = capture_matrix(probe, -toward)[0]
    return np.divide(captured, np.cos(y), out=np.zeros_like(y),
                     where=captured != 0.0)
