"""The seed-0 outputs of both benchmark workloads, byte for byte.

Each workload's seed-0 config is built with `perfbench/inputs.make_config`
and run through `owcsim.cli.main`; the digest of every file it writes
(`perfbench/checks.digest`) must equal the one recorded in
`perfbench/reference.json`, at the workload's own thread count and at the
other of 1 and 2.  Only perfbench's files are read.

The committed digests hold only on hosts with AVX-512, because the bits
rest on two paths picked for the CPU at run time:

- OpenBLAS's gemv grouping.  Each branch's second-order sum is a gemv over
  histogram rows, and OpenBLAS adds the row axis into the output in aligned
  groups of 4 or 8.  All four cases fail under `OPENBLAS_CORETYPE=Haswell`.
- numpy's AVX-512 paths for `np.power` and `np.arccos`, whose last bits
  differ from glibc's `pow` and `acos`.  All four cases fail under
  `NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`.

On a host without AVX-512 this test fails with no change to owcsim.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from owcsim import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402
import inputs  # noqa: E402


def thread_cases():
    """Each workload at 1 and 2 threads: at its own count under its own
    name, at the other under `<name>-threads<N>`.  The bins must not depend
    on the thread count."""
    for name, workload in sorted(inputs.WORKLOADS.items()):
        for threads in (1, 2):
            own = threads == workload.threads
            yield pytest.param(name, threads,
                               id=name if own else f"{name}-threads{threads}")


@pytest.mark.parametrize("name, threads", thread_cases())
def test_seed0_digest_matches_reference(name, threads, tmp_path):
    workload = dataclasses.replace(inputs.WORKLOADS[name], threads=threads)
    config = tmp_path / "config.ini"
    config.write_text(inputs.make_config(
        (ROOT / inputs.REFERENCE_INI).read_text(), workload, 0))
    out = tmp_path / "out"
    assert cli.main(workload.cli_args(str(config), str(out))) == 0
    want = json.loads((PERFBENCH / "reference.json").read_text())["digests"]
    assert checks.digest(str(out)) == want[name]
