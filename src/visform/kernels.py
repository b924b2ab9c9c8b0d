"""Radial jump-kernel profiles.

In dimension d = 2 a kernel is k(x, y) = profile(|x-y|) / |x-y|^2 for a
radial profile from one of four families:

* ``power``      profile(r) = r^(-s*p), s in (0,1), p >= 1
* ``power-log``  profile(r) = r^(-2s) * ln(1 + 1/r)^(+-1)
* ``constant``   profile(r) = 1          (k = 1/r^2)
* ``truncated``  profile(r) = 1 on (0, rho), 0 beyond

The hypothesis 1 <= p < d/s of the scaling theorem is enforced where it
is used: by ``spectral.predicted_exponent`` and by the experiment
configuration (``cli.ExperimentConfig.validate``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("power", "power-log", "constant", "truncated")


@dataclass(frozen=True)
class KernelSpec:
    """One radial profile; ``k(r)`` evaluates profile(r) / r^2."""

    family: str
    s: float = 0.5
    p: float = 2.0
    sign: int = 1
    rho: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "power":
            if not 0.0 < self.s < 1.0:
                raise ValueError("power profile needs s in (0, 1)")
            if self.p < 1:
                raise ValueError("integrability exponent p must be >= 1")
        if self.family == "power-log":
            if not 0.0 < self.s < 1.0:
                raise ValueError("power-log profile needs s in (0, 1)")
            if self.sign not in (1, -1):
                raise ValueError("power-log sign must be +1 or -1")
        if self.family == "truncated" and self.rho <= 0:
            raise ValueError("truncation radius must be positive")

    def profile(self, r):
        """The radial profile as a function of r > 0 (vectorized)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("kernel profile is defined for r > 0 only")
        if self.family == "power":
            return r ** (-self.s * self.p)
        if self.family == "power-log":
            return r ** (-2.0 * self.s) * np.log1p(1.0 / r) ** self.sign
        if self.family == "constant":
            return np.ones_like(r)
        return np.where(r < self.rho, 1.0, 0.0)

    def k(self, r):
        """Jump density profile(r) / r^2."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("kernel is defined for r > 0 only")
        if self.family == "power":
            # single power law, evaluated fused for speed in the hot loops
            return r ** (-(2 + self.s * self.p))
        return self.profile(r) / r ** 2

    def label(self):
        if self.family == "power":
            return f"power:s={self.s:g},p={self.p:g}"
        if self.family == "power-log":
            return f"powerlog:s={self.s:g},sign={self.sign:+d}"
        if self.family == "constant":
            return "constant"
        return f"truncated:rho={self.rho:g}"


def parse_kernel(text):
    """Parse a CLI kernel name.

    Accepted: ``power:s=<s>,p=<p>``, ``powerlog:s=<s>,sign=<+-1>``,
    ``constant``, ``truncated:rho=<rho>``.
    """
    head, _, rest = text.partition(":")
    kv = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"malformed kernel parameter {item!r} in {text!r}")
            kv[key] = float(val)
    try:
        if head == "power":
            return KernelSpec("power", s=kv["s"], p=kv.get("p", 2.0))
        if head == "powerlog":
            return KernelSpec("power-log", s=kv["s"],
                              sign=int(kv.get("sign", 1)))
        if head == "constant":
            return KernelSpec("constant")
        if head == "truncated":
            return KernelSpec("truncated", rho=kv["rho"])
    except KeyError as exc:
        raise ValueError(f"kernel {text!r} is missing parameter {exc}") from exc
    raise ValueError(f"unknown kernel {text!r}")
