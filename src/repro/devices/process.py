"""Process parameter sets for a representative 1.2 um CMOS technology.

The paper evaluates a 1.2 um implementation at VDD = 5 V.  The exact foundry
deck is proprietary and long gone; the values below are textbook level-1
parameters for that node (see e.g. Weste & Eshraghian, 2nd ed.).  The Monte
Carlo experiment (Fig. 5 / Tab. 1) perturbs every parameter uniformly by a
relative amount (the paper uses +/-15 %).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class TransistorParams:
    """Level-1 model card for one device polarity.

    Attributes
    ----------
    vt0:
        Zero-bias threshold voltage in volts.  Positive for NMOS, negative
        for PMOS (standard SPICE convention).
    kp:
        Transconductance parameter (``u0 * Cox``) in A/V^2.
    lam:
        Channel-length modulation coefficient in 1/V.
    cox_per_area:
        Gate-oxide capacitance per unit gate area, F/m^2.  Used for the
        lumped gate/drain parasitic estimate.
    cj_per_width:
        Junction (drain/source) capacitance per unit device width, F/m.
    """

    vt0: float
    kp: float
    lam: float
    cox_per_area: float = 1.4e-3
    cj_per_width: float = 0.4e-9


@dataclass(frozen=True)
class ProcessParams:
    """A full process corner: NMOS + PMOS cards and the supply voltage."""

    nmos: TransistorParams
    pmos: TransistorParams
    vdd: float = 5.0
    name: str = "cmos12"

    def polarity(self, is_pmos: bool) -> TransistorParams:
        """Return the model card for the requested device polarity."""
        return self.pmos if is_pmos else self.nmos


_NOMINAL = ProcessParams(
    nmos=TransistorParams(vt0=0.75, kp=80e-6, lam=0.02),
    pmos=TransistorParams(vt0=-0.85, kp=27e-6, lam=0.05),
    vdd=5.0,
    name="cmos12-nominal",
)


def nominal_process() -> ProcessParams:
    """The nominal 1.2 um process corner used for all non-Monte-Carlo runs
    (one shared frozen instance)."""
    return _NOMINAL


def corner_process(corner: str, spread: float = 0.1) -> ProcessParams:
    """A classic four-corner model: SS / FF / SF / FS.

    The first letter is the NMOS speed, the second the PMOS speed; a
    "slow" device has its threshold raised and its transconductance
    lowered by ``spread`` (and vice versa for "fast").  TT is the nominal
    corner (:func:`nominal_process`).
    """
    corner = corner.lower()
    if corner == "tt":
        return nominal_process()
    if len(corner) != 2 or any(c not in "sf" for c in corner):
        raise ValueError(f"unknown corner {corner!r} (use tt/ss/ff/sf/fs)")
    base = nominal_process()

    def shift(card: TransistorParams, speed: str) -> TransistorParams:
        sign = 1.0 if speed == "s" else -1.0
        return replace(
            card,
            vt0=card.vt0 * (1.0 + sign * spread),
            kp=card.kp * (1.0 - sign * spread),
        )

    return ProcessParams(
        nmos=shift(base.nmos, corner[0]),
        pmos=shift(base.pmos, corner[1]),
        vdd=base.vdd,
        name=f"cmos12-{corner}",
    )


def perturbed_process(
    rng: np.random.Generator,
    relative_variation: float = 0.15,
    base: Optional[ProcessParams] = None,
) -> ProcessParams:
    """Sample a process instance with uniform relative parameter variation.

    Every electrical parameter of both model cards is independently drawn
    from ``U[nominal * (1 - r), nominal * (1 + r)]`` — the distribution the
    paper states for its Monte Carlo analysis ("uniform distribution with
    0.15 as relative variation from the nominal value").

    Parameters
    ----------
    rng:
        Source of randomness; pass a seeded generator for reproducibility.
    relative_variation:
        The half-width ``r`` of the uniform relative window.
    base:
        Corner to perturb; defaults to :func:`nominal_process`.
    """
    if relative_variation < 0:
        raise ValueError("relative_variation must be non-negative")
    base = base or nominal_process()

    def vary(value: float) -> float:
        return value * (1.0 + rng.uniform(-relative_variation, relative_variation))

    def vary_card(card: TransistorParams) -> TransistorParams:
        return replace(
            card,
            vt0=vary(card.vt0),
            kp=vary(card.kp),
            lam=vary(card.lam),
            cox_per_area=vary(card.cox_per_area),
            cj_per_width=vary(card.cj_per_width),
        )

    return ProcessParams(
        nmos=vary_card(base.nmos),
        pmos=vary_card(base.pmos),
        vdd=base.vdd,
        name=base.name + "-mc",
    )
