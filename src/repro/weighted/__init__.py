"""The weighted-model layer: quorum policies, virtual users, and the
paper's transformations (Sections 4-5)."""

from .quorum import NominalQuorums, QuorumPolicy, Tally, WeightedQuorums
from .transform import (
    BlackBoxSetup,
    BluntSetup,
    ErrorCorrectionSetup,
    QualificationSetup,
    black_box_setup,
    blunt_setup,
    error_correction_setup,
    qualification_setup,
)
from .virtual import VirtualUserMap

__all__ = [
    "QuorumPolicy",
    "NominalQuorums",
    "WeightedQuorums",
    "Tally",
    "VirtualUserMap",
    "BluntSetup",
    "BlackBoxSetup",
    "QualificationSetup",
    "ErrorCorrectionSetup",
    "blunt_setup",
    "black_box_setup",
    "qualification_setup",
    "error_correction_setup",
]
