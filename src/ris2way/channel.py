"""Channel generation and exact SINR evaluation for two-way links via a passive
reflecting surface.

Conventions: powers are linear milliwatts, SINR thresholds linear, phases in
[0, 2*pi).  A fading coefficient h = a * exp(-j*phi) is stored as the complex
number itself; the coherent combining kernel works directly on products of
coefficients, so amplitude/phase splits never have to round-trip through
trigonometry.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np


class Scheme(enum.Enum):
    ONE = "one"  # single-slot bidirectional exchange, loop interference present
    TWO = "two"  # two orthogonal one-way slots, interference-free, half rate


class Reciprocity(enum.Enum):
    RECIPROCAL = "reciprocal"
    NON_RECIPROCAL = "non-reciprocal"


@dataclass(frozen=True)
class UniformPhaseError:
    """Per-element phase jitter, i.i.d. uniform on (-delta, delta]."""

    delta: float

    def __post_init__(self):
        if not 0 < self.delta <= math.pi:
            raise ValueError("delta must lie in (0, pi]")


@dataclass(frozen=True)
class VonMisesPhaseError:
    """Per-element phase jitter, i.i.d. von Mises with location mu, concentration kappa."""

    mu: float
    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")


PhaseErrorModel = Union[UniformPhaseError, VonMisesPhaseError]


@dataclass(frozen=True)
class SystemConfig:
    """Full experiment description.  The transmit power is not part of it: a
    sweep passes the powers, both users sending at each, to `sweep_rho`."""

    L: int
    sigma2: float = 1.0
    noise_mw: float = 1e-7
    omega: float = 1e-4
    nu: float = 0.0
    scheme: Scheme = Scheme.ONE
    reciprocity: Reciprocity = Reciprocity.RECIPROCAL
    gamma_th: float = 1.0
    phase_error: Optional[PhaseErrorModel] = None

    def __post_init__(self):
        # every message starts with the field's name; the checks are written
        # so that NaN fails them
        if self.L < 1:
            raise ValueError("L must be >= 1")
        for name in ("sigma2", "noise_mw"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("omega", "gamma_th"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.omega == math.inf:
            raise ValueError("omega must be finite, got inf")
        if not 0 <= self.nu <= 1:
            raise ValueError(f"nu must lie in [0, 1], got {self.nu}")


def loop_interference_mw(p_mw: float, omega: float, nu: float) -> float:
    """Residual loop-interference variance omega * P^nu (P in mW)."""
    return omega * p_mw**nu


def _rho(cfg: SystemConfig, p_mw: float) -> float:
    """SINR coefficient of either user when both send at p_mw."""
    if cfg.scheme is Scheme.TWO:
        # orthogonal slots: no loop interference, plain SNR
        return p_mw / cfg.noise_mw
    return p_mw / (loop_interference_mw(p_mw, cfg.omega, cfg.nu) + cfg.noise_mw)


def sweep_rho(cfg: SystemConfig, p_mw: Iterable[float]) -> np.ndarray:
    """rho at each transmit power of `p_mw`, with both users sending at it:
    both users' SINRs are gamma_p = rho * |coherent sum_p|^2.

    Raises ValueError for a negative or NaN power, and for a rho that is not
    finite: a subnormal noise power (or an infinite transmit power) makes
    P / (interference + noise) overflow, and no law is defined there."""
    p_mw = list(p_mw)
    for p in p_mw:
        if not p >= 0:
            raise ValueError(f"transmit powers must be >= 0, got {p}")
    rho = np.array([_rho(cfg, p) for p in p_mw], dtype=float)
    for p, r in zip(p_mw, rho):
        if not math.isfinite(r):
            raise ValueError(f"rho = P / (interference + noise) is {r} at P = {p:g} mW "
                             f"with noise_mw = {cfg.noise_mw:g}: it must be finite")
    return rho


@dataclass(frozen=True)
class ReciprocalChannel:
    """Draws of the forward==backward coefficients h (user 1) and g (user 2).

    Arrays are (L,) for a single realization or (n, L) for a block.
    """

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.g.shape or self.h.ndim not in (1, 2):
            raise ValueError("h and g must be matching (L,) or (n, L) arrays")

    @property
    def L(self) -> int:
        return self.h.shape[-1]


@dataclass(frozen=True)
class NonReciprocalChannel:
    """Draws of the four independent coefficient vectors, shaped like ReciprocalChannel."""

    h_t: np.ndarray
    h_r: np.ndarray
    g_t: np.ndarray
    g_r: np.ndarray

    def __post_init__(self):
        shapes = {v.shape for v in (self.h_t, self.h_r, self.g_t, self.g_r)}
        if len(shapes) != 1 or self.h_t.ndim not in (1, 2):
            raise ValueError("all four vectors must be matching (L,) or (n, L) arrays")

    @property
    def L(self) -> int:
        return self.h_t.shape[-1]


ChannelRealization = Union[ReciprocalChannel, NonReciprocalChannel]


def _cn_matrix(z: np.ndarray, sigma2: float) -> np.ndarray:
    # scaled straight into the real and imaginary views: the same bits as
    # sqrt(sigma2/2) * (re + 1j*im), without its complex temporaries
    half = z.shape[-1] // 2
    scale = math.sqrt(sigma2 / 2.0)
    out = np.empty(z.shape[:-1] + (half,), dtype=complex)
    np.multiply(z[..., :half], scale, out=out.real)
    np.multiply(z[..., half:], scale, out=out.imag)
    return out


def sample_channels(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one realization; every coefficient ~ CN(0, sigma2)."""
    block = sample_channel_block(cfg, rng, 1)
    if isinstance(block, ReciprocalChannel):
        return ReciprocalChannel(block.h[0], block.g[0])
    return NonReciprocalChannel(block.h_t[0], block.h_r[0], block.g_t[0], block.g_r[0])


def sample_channel_block(cfg: SystemConfig, rng: np.random.Generator, n: int) -> ChannelRealization:
    """Draw n realizations at once; fields become (n, L) arrays.

    The draw layout (rows filled in order from one sequential standard_normal
    stream, vectors in a fixed column order) is part of the reproducibility
    contract: trial i of a block is row i no matter how many trials the block
    holds, and consecutive calls on one generator continue that stream, so a
    block drawn as row chunks is the same rows as one call.
    """
    L = cfg.L
    if cfg.reciprocity is Reciprocity.RECIPROCAL:
        z = rng.standard_normal((n, 4 * L))
        return ReciprocalChannel(
            h=_cn_matrix(z[:, 0:2 * L], cfg.sigma2),
            g=_cn_matrix(z[:, 2 * L:4 * L], cfg.sigma2),
        )
    z = rng.standard_normal((n, 8 * L))
    return NonReciprocalChannel(
        h_t=_cn_matrix(z[:, 0:2 * L], cfg.sigma2),
        h_r=_cn_matrix(z[:, 2 * L:4 * L], cfg.sigma2),
        g_t=_cn_matrix(z[:, 4 * L:6 * L], cfg.sigma2),
        g_r=_cn_matrix(z[:, 6 * L:8 * L], cfg.sigma2),
    )


def sample_phase_errors(model: Optional[PhaseErrorModel], rng: np.random.Generator,
                        shape) -> Optional[np.ndarray]:
    """Per-element phase errors for one or more trials; None when error-free.

    Uniform errors are drawn as delta * U(-1, 1) so that sweeps over delta can
    share the underlying uniforms (common random numbers); `mc` draws them once
    per block for every width of a group.
    """
    if model is None:
        return None
    if isinstance(model, UniformPhaseError):
        return model.delta * rng.uniform(-1.0, 1.0, size=shape)
    return rng.vonmises(model.mu, model.kappa, size=shape)


def coherent_gain(terms: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """|sum_l terms_l * e^{j phi_l}|^2, batched over leading axes of `terms`.

    Each row of a stack gets the bits of its own one-row call: rot is a
    variable, not a temporary numpy may reuse by reversing the (not bitwise
    commutative) complex product's operands, and the square is np.square,
    correctly rounded for one row and for a stack alike.
    """
    if terms.shape[-1] != np.shape(phases)[-1]:
        raise ValueError(f"phase vector length {np.shape(phases)[-1]} does not match "
                         f"element count {terms.shape[-1]}")
    rot = np.exp(1j * np.asarray(phases))
    return np.square(np.abs(np.sum(terms * rot, axis=-1)))[()]


def sinr_reciprocal(ch: ReciprocalChannel, phases: np.ndarray, rho: float) -> float:
    """The instantaneous SINR both users see; self-interference is perfectly
    cancelled."""
    return rho * coherent_gain(ch.h * ch.g, phases)


def sinr_nonreciprocal(ch: NonReciprocalChannel, phases: np.ndarray,
                       rho: float) -> tuple[float, float]:
    """(gamma_1, gamma_2): user 1 combines h_r with g_t, user 2 g_r with h_t."""
    return tuple(rho * coherent_gain(z, phases) for z in (ch.h_r * ch.g_t, ch.g_r * ch.h_t))


def wrap_phases(phases: np.ndarray) -> np.ndarray:
    """Wrap angles into [0, 2*pi)."""
    return np.mod(phases, 2.0 * np.pi)
