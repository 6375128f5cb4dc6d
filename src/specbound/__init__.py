"""specbound: spectral bounds, colorings, matchings, and limit checks for
bounded-degree graphs under the uniform vertex measure."""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: see spectral's tolerance policy

__version__ = "0.1.0"
