"""Fixed matroid fixtures shipped as data files.

Names: u12, u23, u24 (uniform), free3 (free on three elements), loop_u12
(U_{1,2} plus a loop), mk4 (cycle matroid of the complete graph K4), and
fano (the Fano plane).  The files are genuine matroid JSON documents, so
loading them also exercises the parser and the exchange validation.
"""

from __future__ import annotations

import json
from importlib import resources

from .matroids import Matroid, matroid_from_bases

NAMES = ("u12", "u23", "u24", "free3", "loop_u12", "mk4", "fano")


def load(name: str) -> Matroid:
    if name not in NAMES:
        raise KeyError(f"unknown catalog matroid {name!r}; available: {', '.join(NAMES)}")
    text = resources.files("lorentz.data").joinpath(f"{name}.json").read_text()
    obj = json.loads(text)
    return matroid_from_bases(obj["n"], obj["bases"])

