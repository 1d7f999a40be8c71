"""Write z_prime_oracle.json: mpmath's Z'(t) (siegelz, 30 digits) at the 1000
published ordinates of zeros_1000.txt and at 300 seeded heights in (0.5, 1400].

The values are frozen: mpmath takes about 0.08 s a point, 110 s in all on a
2-vCPU x86 virtual machine.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_z_prime_oracle.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

from rzspec.zeta import ingest_zeros

HERE = Path(__file__).parent


def main():
    zeros = ingest_zeros(HERE / "zeros_1000.txt").ordinates().tolist()
    off = np.sort(np.random.default_rng(16).uniform(0.5, 1400.0, 300)).tolist()
    with mp.workdps(30):
        doc = {
            "zeros": [float(mp.siegelz(t, derivative=1)) for t in zeros],
            "off_zero_t": off,
            "off_zero": [float(mp.siegelz(t, derivative=1)) for t in off],
        }
    (HERE / "z_prime_oracle.json").write_text(json.dumps(doc, indent=0) + "\n")


if __name__ == "__main__":
    main()
