"""Crush-gradient readout: doublet amplitudes and probability estimates.

A crush gradient dephases the register, so everything the readout sees is
the four basis-state populations. The proton spectrum taken through a
90-degree y observation pulse then reduces to two signed line amplitudes,
one per doublet component. The population difference across each proton
transition sets the line height: the sign encodes the state of qubit 1
(positive for 0) and the component encodes qubit 2 (left, the
higher-frequency line, for 0). Line amplitudes are handled analytically;
Lorentzian traces exist only for rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import SpinSystem
from .search import OracleSpec


class ReadoutError(ValueError):
    """Readout chain misuse, such as a reference with no signal."""


class NoSignalOracleError(ReadoutError):
    """The oracle's matching set produces no net spectral signal."""


@dataclass(frozen=True)
class Spectrum:
    """Signed doublet amplitudes, normalized to the reference preparation.

    ``left_amp`` belongs to the higher-frequency component at +J/2, drawn
    leftmost under the convention that frequency increases right to left.
    """

    left_amp: float
    right_amp: float


def crush(psi: np.ndarray) -> np.ndarray:
    """Populations ``|psi_i|^2`` left by dephasing the state ``psi``."""
    return (psi * psi.conj()).real


def spectrum_from_populations(p: np.ndarray) -> Spectrum:
    """Doublet amplitudes of the two-qubit populations ``p``.

    left = p(00) - p(10) and right = p(01) - p(11): the population
    difference across each proton transition, with the carbon state
    selecting the component.
    """
    return Spectrum(left_amp=float(p[0] - p[2]), right_amp=float(p[1] - p[3]))


def invert_fractional_signal(f: float, k: int) -> float:
    """Success probability p of the fractional signal ``f = (4p - 1)/3`` of
    one matching state or ``f = 2p - 1`` of two."""
    if k == 1:
        return (3.0 * f + 1.0) / 4.0
    if k == 2:
        return (f + 1.0) / 2.0
    raise ValueError(f"fractional signal defined for k in {{1, 2}}, got {k}")


def signal_weights(oracle: OracleSpec) -> tuple[float, float]:
    """Weights (wl, wr) so that wl*left + wr*right estimates the signal.

    Each matching state adds one signed unit: qubit 1 sets the sign
    (positive for 0) and qubit 2 picks the component (left for 0). For one
    matching state a single signed component carries the result; for two,
    the sum or difference of the components does. The two k=2 sets whose
    members differ only in qubit 1 cancel to (0, 0): they put the whole
    population difference on the unobserved carbon channel and are
    flagged instead.
    """
    if oracle.k not in (1, 2):
        raise ValueError("signal pattern defined for k in {1, 2}")
    weights = [0.0, 0.0]
    for s in oracle.matching:
        weights[int(s[1])] += 1.0 if s[0] == "0" else -1.0
    if weights == [0.0, 0.0]:
        raise NoSignalOracleError(
            f"matching set {oracle.label()} produces no net proton signal"
        )
    return weights[0], weights[1]


def is_signal_visible(oracle: OracleSpec) -> bool:
    try:
        signal_weights(oracle)
    except NoSignalOracleError:
        return False
    return True


def target_populations(oracle: OracleSpec) -> np.ndarray:
    """Populations of the directly prepared target superposition."""
    p = np.zeros(4)
    p[list(oracle.indices)] = 1.0 / oracle.k
    return p


def reference_spectrum(oracle: OracleSpec) -> Spectrum:
    """Spectrum of the direct target preparation, used for normalization."""
    return spectrum_from_populations(target_populations(oracle))


def estimate_probability(
    spectrum: Spectrum, reference: Spectrum, oracle: OracleSpec
) -> float:
    """Success probability recovered from a spectrum and its reference.

    Forms the signed component combination dictated by the oracle, divides
    by the same combination of the reference, and inverts the fractional
    signal relation. The result is clamped to [0, 1].
    """
    wl, wr = signal_weights(oracle)
    ref = wl * reference.left_amp + wr * reference.right_amp
    if abs(ref) < 1e-15:
        raise ReadoutError("reference spectrum has no signal in the used combination")
    f = (wl * spectrum.left_amp + wr * spectrum.right_amp) / ref
    return float(min(1.0, max(0.0, invert_fractional_signal(f, oracle.k))))


def lorentzian_trace(
    spectrum: Spectrum, system: SpinSystem, freqs: np.ndarray
) -> np.ndarray:
    """Rendered lineshape: two Lorentzians with T2-limited width.

    Returns the intensity at each frequency of ``freqs``. The lines sit at
    +J/2 (left) and -J/2 (right) and their peak heights equal the line
    amplitudes; the full width at half maximum is 1/(pi*T2) of the
    observed proton.
    """
    if not np.all(np.diff(freqs) > 0):
        raise ValueError("frequency grid must be strictly increasing")
    hwhm = 1.0 / (2.0 * np.pi * system.T2_H)
    y = np.zeros_like(freqs)
    half_j = system.J / 2.0
    for amp, f0 in ((spectrum.left_amp, half_j), (spectrum.right_amp, -half_j)):
        y += amp * hwhm**2 / ((freqs - f0) ** 2 + hwhm**2)
    return y


def trace_template(freqs: np.ndarray) -> str:
    """Text of a trace on the grid ``freqs``, with a ``%.12g`` slot per intensity."""
    return ("%.12g %%.12g\n" * len(freqs)) % tuple(freqs.tolist())


def format_trace(template: str, intensities: np.ndarray) -> str:
    """One trace's text (frequency Hz, intensity): its grid's template, filled."""
    return template % tuple(intensities.tolist())
