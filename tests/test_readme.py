"""The README's Python examples run against the package as it is."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the library example prints the MRC SNR, delay spread and data rate
    snr_db, spread, rate = map(float, capsys.readouterr().out.split())
    assert not math.isnan(snr_db + spread + rate)
