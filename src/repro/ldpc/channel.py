"""Channel models for exercising the LDPC decoder.

The decoder itself (and the traffic it generates on the NoC) is independent
of the channel, but the decoder's bit-error-rate behaviour is checked on a
binary-input AWGN channel, and the unit tests also use the simpler binary
symmetric channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class BpskAwgnChannel:
    """BPSK modulation over an additive white Gaussian noise channel.

    Bits are mapped 0 -> +1, 1 -> -1; the receiver observes ``x + noise`` and
    produces per-bit log-likelihood ratios ``LLR = 2 y / sigma^2`` with the
    convention that positive LLR favours bit 0.
    """

    snr_db: float
    rate: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("code rate must be in (0, 1]")
        self._rng = np.random.default_rng(self.seed)

    @property
    def noise_sigma(self) -> float:
        """Noise standard deviation for the configured Eb/N0."""
        ebn0 = 10.0 ** (self.snr_db / 10.0)
        # Es = 1 for BPSK; Eb = Es / rate; N0 = Eb / ebn0; sigma^2 = N0 / 2.
        n0 = 1.0 / (self.rate * ebn0)
        return float(np.sqrt(n0 / 2.0))

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map bits {0,1} to BPSK symbols {+1,-1}."""
        bits = np.asarray(bits, dtype=np.uint8)
        return 1.0 - 2.0 * bits.astype(np.float64)

    def transmit(self, bits: np.ndarray) -> np.ndarray:
        """Return noisy channel observations for a bit vector."""
        symbols = self.modulate(bits)
        noise = self._rng.normal(0.0, self.noise_sigma, size=symbols.shape)
        return symbols + noise

    def llr(self, observations: np.ndarray) -> np.ndarray:
        """Per-bit log-likelihood ratios from channel observations."""
        sigma2 = self.noise_sigma**2
        return 2.0 * np.asarray(observations, dtype=np.float64) / sigma2

    def transmit_llr(self, bits: np.ndarray) -> np.ndarray:
        """Convenience: bits -> noisy observations -> LLRs."""
        return self.llr(self.transmit(bits))


@dataclass
class BinarySymmetricChannel:
    """Flips each bit independently with probability ``crossover``."""

    crossover: float
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.crossover < 0.5:
            raise ValueError("crossover probability must be in [0, 0.5)")
        self._rng = np.random.default_rng(self.seed)

    def transmit(self, bits: np.ndarray) -> np.ndarray:
        """Return the received (possibly flipped) bit vector."""
        bits = np.asarray(bits, dtype=np.uint8)
        flips = self._rng.random(bits.shape) < self.crossover
        return (bits ^ flips.astype(np.uint8)).astype(np.uint8)

    def llr(self, received_bits: np.ndarray) -> np.ndarray:
        """LLRs for received hard bits (positive favours bit value 0)."""
        received_bits = np.asarray(received_bits, dtype=np.uint8)
        if self.crossover == 0.0:
            magnitude = 20.0  # effectively infinite confidence
        else:
            magnitude = float(np.log((1.0 - self.crossover) / self.crossover))
        return np.where(received_bits == 0, magnitude, -magnitude).astype(np.float64)

    def transmit_llr(self, bits: np.ndarray) -> np.ndarray:
        return self.llr(self.transmit(bits))


def count_bit_errors(reference: np.ndarray, decoded: np.ndarray) -> int:
    """Number of positions where two bit vectors differ."""
    reference = np.asarray(reference, dtype=np.uint8)
    decoded = np.asarray(decoded, dtype=np.uint8)
    if reference.shape != decoded.shape:
        raise ValueError("bit vectors must have the same shape")
    return int(np.sum(reference != decoded))
