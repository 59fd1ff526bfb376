"""One measured child process of the owcsim benchmark (run.py starts it).

    child.py env
        print the interpreter, numpy and BLAS versions as JSON
    child.py setup CONFIG
        import owcsim, parse CONFIG, build the pod and both element grids,
        print the element counts as JSON
    child.py run SPANS -- CLI-ARGS...
        call owcsim.cli.main(CLI-ARGS); unless SPANS is '-', trace the
        layer boundaries and write the spans to SPANS at exit
    child.py calib
        time a fixed numpy kernel shaped like the second-order pair kernel
        and print the median of its passes as JSON; it measures the host's
        speed, not owcsim, and never changes with the workload or seed

The package is imported from the checkout's `src/`, which goes first on
the path; `owcsim.cli.main` is called directly, not through `python -m`.
"""

import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def env() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def setup(config_path: str) -> dict:
    from owcsim.cli import parse_config
    from owcsim.scene import build_pod

    with open(config_path) as f:
        cfg = parse_config(f.read())
    scene = build_pod(cfg.pod)
    return {"first": len(scene.surface_elements(cfg.trace.first_edge)),
            "second": len(scene.surface_elements(cfg.trace.second_edge))}


def calib() -> dict:
    import time

    import numpy as np

    rng = np.random.default_rng(20190326)
    points = rng.random((5600, 3)) * 8.0           # one second-order grid's size
    normals = rng.standard_normal((5600, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    hist = np.zeros(2344 * 64)
    passes = []
    for _ in range(5):
        t0 = time.perf_counter()
        for start in range(0, 1024, 256):
            src = points[start:start + 256]
            dvec = points[None, :, :] - src[:, None, :]
            d2 = np.einsum("cek,cek->ce", dvec, dvec) + 1e-3
            d = np.sqrt(d2)
            cos_out = np.einsum("cek,ck->ce", dvec, normals[start:start + 256]) / d
            cos_in = -np.einsum("cek,ek->ce", dvec, normals) / d
            w = np.clip(cos_out, 0.0, None) * np.clip(cos_in, 0.0, None) / d2
            idx = (d * 100.0).astype(np.int64) % hist.size
            hist += np.bincount(idx.ravel(), weights=w.ravel(), minlength=hist.size)
        passes.append(time.perf_counter() - t0)
    return {"calib_s": sorted(passes)[len(passes) // 2]}


def run(spans_path: str, cli_args: list) -> int:
    recorder = None
    if spans_path != "-":
        import tracer
        recorder = tracer.install()
    from owcsim.cli import main
    try:
        return main(cli_args)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "env":
        print(json.dumps(env()))
    elif mode == "setup":
        print(json.dumps(setup(sys.argv[2])))
    elif mode == "calib":
        print(json.dumps(calib()))
    elif mode == "run" and sys.argv[3] == "--":
        sys.exit(run(sys.argv[2], sys.argv[4:]))
    else:
        sys.exit(f"usage: {sys.argv[0]} env | setup CONFIG | calib | run SPANS -- ARGS...")
