"""specbound: spectral bounds, colorings, matchings, and limit checks for
bounded-degree graphs under the uniform vertex measure.

Importing ``specbound`` pins OpenBLAS to one thread, so that printed digits
do not move with the thread count, but only if numpy is not loaded yet: a
program that imported numpy first keeps its own thread count, and its
eigenvalues may differ in the last printed digits.  The tolerance policy,
stated once in :mod:`specbound.spectral`, gives the reasons and the limits.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: see spectral's tolerance policy

__version__ = "0.1.0"
