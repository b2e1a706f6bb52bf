"""Exponent multi-indices with an explicit plain/shifted convention.

Every power function in this package takes an n-vector of real exponents.
The closed forms mix two conventions for such vectors: the plain one, and a
shifted one whose first n-1 entries carry an extra (n-2)/2.  Passing one
where the other is expected is the single easiest way to get silently wrong
answers at n >= 3, so :class:`MultiIndex` carries its convention as data and
conversions are explicit.  A function that takes an index in a declared
convention reads it through :func:`read_index`, the one reader of that
declaration.

For n = 1 and n = 2 the offset (n-2)/2 vanishes or there are no shifted
coordinates, so the two conventions coincide numerically; the tag is still
enforced so that code paths do not fork on n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConventionError, InvalidInputError


class Convention(Enum):
    PLAIN = "plain"
    SHIFTED = "shifted"


def shift_offset(n: int) -> float:
    """Offset added to the first n-1 entries by the shifted convention."""
    return (n - 2) / 2.0


@dataclass(frozen=True)
class MultiIndex:
    """Real exponent vector of length n plus its convention tag."""

    entries: tuple
    convention: Convention = Convention.PLAIN

    def __post_init__(self):
        ent = tuple(float(v) for v in np.atleast_1d(np.asarray(self.entries, dtype=float)))
        if len(ent) < 1:
            raise InvalidInputError("MultiIndex needs at least one entry")
        object.__setattr__(self, "entries", ent)
        if not isinstance(self.convention, Convention):
            object.__setattr__(self, "convention", Convention(self.convention))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)

    def __len__(self) -> int:
        return len(self.entries)


def shift_index(s: MultiIndex) -> MultiIndex:
    """Convert a plain index to the shifted convention.

    Adds (n-2)/2 to entries 1..n-1 and leaves the last entry alone.
    Shifting an already shifted index is an error rather than a double shift.
    """
    if s.convention is Convention.SHIFTED:
        raise ConventionError("index is already in the shifted convention")
    vals = s.values.copy()
    vals[: s.n - 1] += shift_offset(s.n)
    return MultiIndex(tuple(vals), Convention.SHIFTED)


def unshift_index(s: MultiIndex) -> MultiIndex:
    """Inverse of :func:`shift_index`."""
    if s.convention is Convention.PLAIN:
        raise ConventionError("index is already in the plain convention")
    vals = s.values.copy()
    vals[: s.n - 1] -= shift_offset(s.n)
    return MultiIndex(tuple(vals), Convention.PLAIN)


def plain_values(s, n: int | None = None) -> np.ndarray:
    """Plain-convention values of ``s``.

    Accepts a MultiIndex in either convention (converting if shifted) or a
    bare array-like, which is taken to already hold plain values.
    """
    if isinstance(s, MultiIndex):
        if s.convention is Convention.SHIFTED:
            s = unshift_index(s)
        vals = s.values
    else:
        vals = np.atleast_1d(np.asarray(s, dtype=float))
    if n is not None and vals.shape != (n,):
        raise InvalidInputError(f"expected an index of length {n}, got shape {vals.shape}")
    return vals


def bold_values(s, n: int | None = None) -> np.ndarray:
    """Shifted-convention values of ``s`` (bare arrays are read as plain)."""
    if isinstance(s, MultiIndex) and s.convention is Convention.SHIFTED:
        vals = s.values.copy()
        if n is not None and vals.shape != (n,):
            raise InvalidInputError(f"expected an index of length {n}, got shape {vals.shape}")
        return vals
    vals = plain_values(s, n).copy()
    vals[: len(vals) - 1] += shift_offset(len(vals))
    return vals


def read_index(s, convention: Convention, name: str = "index") -> np.ndarray:
    """Plain values of an index declared in ``convention``.

    This is the one reader of a declared convention.  A bare array-like is
    read in the declared convention; a MultiIndex must carry it, or
    ConventionError is raised.
    """
    if isinstance(s, MultiIndex):
        if s.convention is not convention:
            raise ConventionError(
                f"{name} must be in the {convention.value} convention, got "
                f"{s.convention.value}")
    elif convention is Convention.SHIFTED:
        vals = np.atleast_1d(np.asarray(s, dtype=float)).copy()
        vals[:-1] -= shift_offset(len(vals))
        return vals
    return plain_values(s)
