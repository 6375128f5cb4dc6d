"""specbound: spectral bounds, colorings, matchings, and limit checks for
bounded-degree graphs under the uniform vertex measure."""

__version__ = "0.1.0"
