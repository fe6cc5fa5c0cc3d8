"""Convolution specs and the lattice limits, shared by the parameter layer and
the numeric layer.

Nothing here imports numpy: the harness and the command line read specs and
decide the parameter order with this module alone, and load the numeric
layer (and numpy with it) only where a lattice, a grid or a scenario is
built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from stochord.majorization import Vector, as_vector, json_vector

DEFAULT_TAIL_CAP = 1e-12
MAX_LATTICE = 2_000_000


class LatticeLimitError(Exception):
    """An input asks for a lattice, or lattice work, past the limits that
    ``_nb_rows``, ``convolve`` and ``deconvolve`` enforce, or a gamma grid
    or total shape past the largest float: the input is at fault, not the
    program."""


@dataclass(frozen=True)
class ConvolutionSpec:
    """Independent sum of ``n`` gamma or negative binomial components.

    ``scales`` holds success probabilities for the negbin family and rates for
    the gamma family.
    """

    family: str
    shapes: Vector
    scales: Vector

    def __post_init__(self):
        # tuples of floats, so a spec built from lists or arrays hashes and
        # equals the same spec built by ``spec``
        object.__setattr__(self, "shapes", tuple(float(a) for a in self.shapes))
        object.__setattr__(self, "scales", tuple(float(b) for b in self.scales))
        if self.family not in ("negbin", "gamma"):
            raise ValueError(f"family must be 'negbin' or 'gamma', got {self.family!r}")
        if len(self.shapes) != len(self.scales):
            raise ValueError("shapes and scales must have equal length")
        if not self.shapes:
            raise ValueError("a spec needs at least one component")
        for a, b in zip(self.shapes, self.scales):
            if not (a > 0 and math.isfinite(a)):
                raise ValueError(f"shape must be positive, got {a}")
            if self.family == "negbin":
                if not 0 < b < 1:
                    raise ValueError(f"success probability must be in (0,1), got {b}")
            elif not (b > 0 and math.isfinite(b)):
                raise ValueError(f"rate must be positive, got {b}")

    @property
    def n(self) -> int:
        return len(self.shapes)

    def to_dict(self) -> dict:
        return {"family": self.family, "shapes": list(self.shapes), "scales": list(self.scales)}

    @staticmethod
    def from_dict(data) -> "ConvolutionSpec":
        return ConvolutionSpec(
            data["family"], json_vector(data["shapes"]), json_vector(data["scales"])
        )


def spec(family: str, shapes, scales) -> ConvolutionSpec:
    return ConvolutionSpec(family, as_vector(shapes), as_vector(scales))
