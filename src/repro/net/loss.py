"""Packet-loss models.

§3.2 motivates parity with losses that are "lost with (H−h) channels in a
bursty manner"; :class:`GilbertElliottLoss` provides exactly that two-state
bursty process, while :class:`BernoulliLoss` covers independent loss.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class LossModel(ABC):
    """Per-message drop decision (stateful models keep burst state)."""

    #: whether :meth:`drops` may consume the channel's generator.  The
    #: overlay opens a channel's named RNG stream only when one of its
    #: models draws; subclasses that never draw may declare ``False``.
    draws = True

    @abstractmethod
    def drops(self, rng: np.random.Generator) -> bool:
        """True if the next message on this channel is lost."""

    def drops_batch(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Drop fate for ``k`` consecutive messages (batched media plane).

        Returns a boolean array of length ``k``.  The default draws
        sequentially so stateful (bursty) models keep their exact
        per-message state evolution; memoryless models override with a
        single vectorized draw.
        """
        return np.fromiter(
            (self.drops(rng) for _ in range(k)), dtype=bool, count=k
        )


class NoLoss(LossModel):
    """Reliable channel — the headline figures' regime (10 Gbps Ethernet)."""

    draws = False

    def drops(self, rng: np.random.Generator) -> bool:
        return False

    def drops_batch(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return np.zeros(k, dtype=bool)

    def __repr__(self) -> str:
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Independent loss with probability ``p`` per message."""

    def __init__(self, p: float) -> None:
        if not 0 <= p <= 1:
            raise ValueError("p must be in [0, 1]")
        self.p = float(p)

    def drops(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.p)

    def drops_batch(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.random(k) < self.p

    def __repr__(self) -> str:
        return f"BernoulliLoss({self.p})"


class GilbertElliottLoss(LossModel):
    """Two-state (good/bad) bursty loss.

    In the *good* state messages drop with ``loss_good`` (usually 0); in the
    *bad* state with ``loss_bad`` (usually near 1).  After each message the
    state flips good→bad with ``p_gb`` and bad→good with ``p_bg``; the mean
    burst length is ``1/p_bg`` messages.
    """

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        for name, v in (
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        self.p_gb = float(p_gb)
        self.p_bg = float(p_bg)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self.bad = False

    @property
    def stationary_loss(self) -> float:
        """Long-run loss probability of the chain."""
        if self.p_gb == 0 and self.p_bg == 0:
            return self.loss_bad if self.bad else self.loss_good
        pi_bad = self.p_gb / (self.p_gb + self.p_bg)
        return pi_bad * self.loss_bad + (1 - pi_bad) * self.loss_good

    def drops(self, rng: np.random.Generator) -> bool:
        p = self.loss_bad if self.bad else self.loss_good
        lost = bool(rng.random() < p)
        flip = self.p_bg if self.bad else self.p_gb
        if rng.random() < flip:
            self.bad = not self.bad
        return lost

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(p_gb={self.p_gb}, p_bg={self.p_bg}, "
            f"loss_good={self.loss_good}, loss_bad={self.loss_bad})"
        )


#: the default loss of every channel without a loss model; ``NoLoss`` is
#: stateless, so one instance serves them all
NO_LOSS = NoLoss()
