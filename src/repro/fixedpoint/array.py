"""Vectorised saturating fixed-point operations on numpy arrays.

Raw fixed-point values travel through this module as ``int64`` arrays so a
full 16x16-bit product plus a long accumulation chain never overflows the
intermediate type; only the explicit :func:`saturate` step clamps back into
the storage format, mirroring the hardware's saturating datapath.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.qformat import Q_1_7_8, QFormat

RawArray = np.ndarray


def saturate(raw: RawArray, fmt: QFormat = Q_1_7_8) -> RawArray:
    """Clamp raw integer values into the representable range of ``fmt``."""
    return np.clip(raw, fmt.min_raw, fmt.max_raw)


def _rounded(values: np.ndarray | float, fmt: QFormat) -> np.ndarray:
    """``values`` as a fresh float64 array of raw values: scaled,
    rounded to nearest (ties to even) and clipped to the raw range, all
    in place.  Clipping comes before any integer cast, which would wrap
    beyond ±2^63.  ``fmax`` returns its non-NaN operand, so NaN becomes
    ``fmt.min_raw``."""
    raw = np.array(values, dtype=np.float64)
    raw *= fmt.scale
    np.rint(raw, out=raw)
    np.fmax(raw, fmt.min_raw, out=raw)
    return np.fmin(raw, fmt.max_raw, out=raw)


def from_float(values: np.ndarray | float, fmt: QFormat = Q_1_7_8) -> RawArray:
    """Quantise real values to raw fixed-point integers (round-to-nearest).

    Values outside the representable range saturate, as the hardware
    would, however large (infinities included); NaN maps to
    ``fmt.min_raw``.
    """
    raw = _rounded(values, fmt).astype(np.int64)
    return raw if raw.ndim else raw[()]


def to_float(raw: RawArray, fmt: QFormat = Q_1_7_8) -> np.ndarray:
    """Convert raw fixed-point integers back to float64 real values."""
    return np.asarray(raw, dtype=np.float64) / fmt.scale


def quantize_float(values: np.ndarray | float,
                   fmt: QFormat = Q_1_7_8) -> np.ndarray:
    """Round real values to the nearest representable value of ``fmt``.

    Convenience for "simulate fixed-point error while staying in floats",
    which is how the training path models quantisation.  Equal to
    ``to_float(from_float(values, fmt), fmt)``, but built in one fresh
    float64 array (the caller's is never changed), which matters for
    the hundred-megabyte weight matrices of paper-scale layers.
    """
    raw = _rounded(values, fmt)
    raw /= fmt.scale
    return raw if raw.ndim else raw[()]


def add(a: RawArray, b: RawArray, fmt: QFormat = Q_1_7_8) -> RawArray:
    """Saturating fixed-point addition of two raw arrays."""
    return saturate(np.asarray(a, np.int64) + np.asarray(b, np.int64), fmt)


def multiply(a: RawArray, b: RawArray, fmt: QFormat = Q_1_7_8) -> RawArray:
    """Saturating fixed-point multiply.

    The double-width product is rescaled by ``fmt.scale`` (arithmetic shift
    with truncation toward negative infinity, matching a hardware
    right-shift) and then saturated.
    """
    product = np.asarray(a, np.int64) * np.asarray(b, np.int64)
    return saturate(product >> fmt.fraction_bits, fmt)


def mac(acc: RawArray, a: RawArray, b: RawArray,
        fmt: QFormat = Q_1_7_8) -> RawArray:
    """One multiply-accumulate step: ``saturate(acc + (a*b) >> frac)``.

    This is the per-cycle operation of a Neurocube MAC unit (Eq. 1 term).
    """
    product = np.asarray(a, np.int64) * np.asarray(b, np.int64)
    term = product >> fmt.fraction_bits
    return saturate(np.asarray(acc, np.int64) + term, fmt)
