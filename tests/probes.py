"""One-branch probes: a bare detector element read through the receiver path.

The package applies every detector through `ReceiverSpec` assemblies
(`sparse_capture`, `capture_matrix`, `ArrivalField.receiver_irs`); these
helpers wrap one element in a one-branch receiver so that tests can read
a single element's gain or impulse response from that same path.  A
one-branch "imaging" receiver is that element under the collection lens.
A field serves only the receivers it was traced for, so a test traces it
with `receivers=[probe(det)]` and reads it with `detector_ir`.
"""

import numpy as np

from owcsim.receivers import (DetectorSpec, ReceiverSpec, capture_matrix,
                              make_imaging)


def probe(detector, lens=False) -> ReceiverSpec:
    """One detector element as a one-branch receiver, bare or under the
    lens."""
    return ReceiverSpec("imaging" if lens else "detector", (detector,))


def detector_ir(field, detector, lens=False):
    """Impulse response of one detector element at the field's mount, bare
    or under the lens; the field must be traced for its `probe`."""
    return field.receiver_irs(probe(detector, lens))[0]


def all_around() -> ReceiverSpec:
    """Six bare elements facing +-x, +-y and +-z, each with a 90 deg FOV.
    Every arrival direction has a component of at least 1/sqrt(3) against
    one of them, so a field traced for it traces every second-order
    element and reports the full `second_bounce_coarse_w`."""
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    return ReceiverSpec("detector", tuple(DetectorSpec(a, 90.0) for a in axes))


def lens_transmission(angles) -> np.ndarray:
    """Lens transmission at incidence angles (radians from the lens axis), as
    the capture path applies it.

    The probe is a face-up element with a 90 deg FOV under the lens, so its
    capture is its area times cos(angle) times the transmission; dividing
    by the same element's capture without the lens leaves the transmission.
    Only angles below 90 deg can be read: the element gates out the rest."""
    y = np.atleast_1d(np.asarray(angles, dtype=float))
    element = (DetectorSpec(np.array([0.0, 0.0, 1.0]), 90.0),)
    toward = np.stack([np.sin(y), np.zeros_like(y), np.cos(y)], axis=1)
    lensed = capture_matrix(ReceiverSpec("imaging", element), -toward)[0]
    bare = capture_matrix(ReceiverSpec("detector", element), -toward)[0]
    return np.divide(lensed, bare, out=np.zeros_like(y), where=lensed != 0.0)


def tied_imaging() -> ReceiverSpec:
    """The imaging receiver with pixel 7 given pixel 3's boresight, so that
    an arrival can tie exactly between two pixels."""
    branches = list(make_imaging().branches)
    branches[7] = branches[3]
    return ReceiverSpec("imaging", tuple(branches))
