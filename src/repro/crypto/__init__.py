"""Cryptographic substrate: fields, groups, the Feldman dealing, DLEQ
proofs, unique threshold signatures, and common coins (paper, Sections 4
and 6)."""

from .common_coin import CommonCoin, WeightedCoin
from .dleq import DleqProof, prove_dleq, verify_dleq, verify_dleq_batch
from .feldman import FeldmanCommitment, FeldmanDealing, FeldmanVSS, Share
from .field import PrimeField
from .group import RFC3526_GROUP_2048, TEST_GROUP_256, GroupEngine, SchnorrGroup
from .polynomial import Polynomial, interpolate_at, lagrange_coefficients_at
from .threshold_sig import SignatureShare, ThresholdKeys, ThresholdSignatureScheme

__all__ = [
    "PrimeField",
    "SchnorrGroup",
    "GroupEngine",
    "TEST_GROUP_256",
    "RFC3526_GROUP_2048",
    "Polynomial",
    "lagrange_coefficients_at",
    "interpolate_at",
    "Share",
    "FeldmanVSS",
    "FeldmanCommitment",
    "FeldmanDealing",
    "DleqProof",
    "prove_dleq",
    "verify_dleq",
    "verify_dleq_batch",
    "ThresholdSignatureScheme",
    "ThresholdKeys",
    "SignatureShare",
    "CommonCoin",
    "WeightedCoin",
]
