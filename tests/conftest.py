"""Shared fixtures: the reference test condition and oscillation specs."""

import pytest

from dynderiv import (
    FlightCondition,
    OscillationMode,
    QuasiSteadyPlant,
    agard_ct2_preset,
)


@pytest.fixture
def condition() -> FlightCondition:
    # fighter-model reference geometry at 100 m/s
    return FlightCondition(
        freestream_speed=100.0,
        density=1.225,
        ref_chord=0.2299,
        ref_span=0.6096,
        ref_area=0.1238,
    )


@pytest.fixture
def agard_alpha_spec():
    return agard_ct2_preset(mode=OscillationMode.ALPHA)


@pytest.fixture
def agard_q_spec(agard_alpha_spec):
    return agard_alpha_spec.with_mode(OscillationMode.Q)


@pytest.fixture
def linear_plant() -> QuasiSteadyPlant:
    return QuasiSteadyPlant(
        CL0=0.2, CL_alpha=5.0, CL_q=4.0, CL_alphadot=6.0,
        CD0=0.02, CD_alpha=0.3, CD_q=0.1,
        Cm0=-0.05, Cm_alpha=-1.2, Cm_q=-3.0, Cm_alphadot=-1.2,
    )
