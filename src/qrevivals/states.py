"""Initial-state families: Bell states, x/y/z Bell mixtures, extended Werner-like states.

Canonical basis ordering is {|00>, |01>, |10>, |11>} everywhere.
"""
from __future__ import annotations

import numpy as np

from .linalg import DensityOperator
from .records import Record

# One-excitation Bell states |1+->=(|01>+-|10>)/sqrt2, two-excitation |2+->=(|00>+-|11>)/sqrt2.
BELL_LABELS = ("1+", "1-", "2+", "2-")

_SQ2 = np.sqrt(2.0)
_BELL_VECTORS = {
    "1+": np.array([0, 1, 1, 0], dtype=complex) / _SQ2,
    "1-": np.array([0, 1, -1, 0], dtype=complex) / _SQ2,
    "2+": np.array([1, 0, 0, 1], dtype=complex) / _SQ2,
    "2-": np.array([1, 0, 0, -1], dtype=complex) / _SQ2,
}


def bell_state(label: str) -> np.ndarray:
    """Unit 4-vector for one of the four Bell states ('1+', '1-', '2+', '2-')."""
    if label not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell label {label!r}; expected one of {BELL_LABELS}")
    return _BELL_VECTORS[label].copy()


class XYZParams(Record):
    """Parameters of the two-term Bell-superposition mixture family."""

    def __init__(self, x: float, y: float, z: float):
        vars(self).update(x=x, y=y, z=z)
        self.__post_init__()

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def xyz_state(p: XYZParams) -> DensityOperator:
    """y |x+><x+| + (1-y) |z-><z-| with
    |x+> = x|2+> + sqrt(1-x^2)|1+>,  |z-> = z|2-> + sqrt(1-z^2)|1->."""
    psi_x = p.x * _BELL_VECTORS["2+"] + np.sqrt(1.0 - p.x**2) * _BELL_VECTORS["1+"]
    psi_z = p.z * _BELL_VECTORS["2-"] + np.sqrt(1.0 - p.z**2) * _BELL_VECTORS["1-"]
    m = p.y * np.outer(psi_x, psi_x.conj()) + (1.0 - p.y) * np.outer(psi_z, psi_z.conj())
    return DensityOperator(m, (2, 2))


class EWLParams(Record):
    """Extended Werner-like state parameters: purity r, amplitude a, excitation kind.

    The second amplitude b = sqrt(1-|a|^2) is derived (real, nonnegative).
    """

    def __init__(self, r: float, a: complex, kind: str = "one-excitation"):
        vars(self).update(r=r, a=a, kind=kind)
        self.__post_init__()

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r={self.r} outside [0, 1]")
        if abs(self.a) > 1.0 + 1e-12:
            raise ValueError(f"|a|={abs(self.a)} exceeds 1")
        if self.kind not in ("one-excitation", "two-excitation"):
            raise ValueError(f"kind must be 'one-excitation' or 'two-excitation', got {self.kind!r}")

    @property
    def b(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - abs(self.a) ** 2)))


def ewl_state(p: EWLParams) -> DensityOperator:
    """r |psi><psi| + (1-r)/4 * I4 with |psi> = a|01> + b|10> (one-excitation)
    or a|00> + b|11> (two-excitation)."""
    psi = np.zeros(4, dtype=complex)
    if p.kind == "one-excitation":
        psi[1], psi[2] = p.a, p.b
    else:
        psi[0], psi[3] = p.a, p.b
    m = p.r * np.outer(psi, psi.conj()) + (1.0 - p.r) / 4.0 * np.eye(4)
    return DensityOperator(m, (2, 2))
