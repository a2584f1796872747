"""Golden records: the sim record of every registry scenario, and the
records of one fuzz campaign, pinned by sha256.

A sim record is a pure function of the spec (see ``test_determinism.py``),
so a refactor of the harness, the fault plan or the protocols that is
meant to change no behaviour must leave these bytes alone.  A digest that
moves is a behaviour change: say so where the change is described, and
regenerate the digest with the function below that computes it.
"""

import hashlib
import json

import pytest

from repro.adversary.fuzz import FuzzConfig, run_campaign
from repro.scenarios import get_scenario, run_scenario, scenario_names

#: sha256 of ``run_scenario(spec, backend="sim").record_json()``
SCENARIO_DIGESTS = {
    "uniform-rbc": "7b3f04c5b2905c1e26a591f69b9bd37dd323a267edac63c51e13664303def466",
    "zipf-stake-smr": "81434ba61456d374c022e31e8ba845025edbd6f2bdf68220b9ccb59431b0fafe",
    "real-chain-rbc": "ca1b30695d585c1d60dcef377aa23dd9e0e36ff626a5087b3072f6db07be7edc",
    "crash-f-rbc": "e8aa2f03b3f08d4a0171ab95e7e2dfb48063da4a0a322fc1bd2ff45aba7a9e00",
    "partition-heal-smr": "a86058cd58680407095438a8c65d58ec849cbda863d20b746963aadee2d7a633",
    "link-delay-rbc": "1a65350801eabb34c8f89f0d1fb51ba85ab03c22716ee9f98fb00a14fccee606",
    "large-batch-smr": "eea023b7fba8a30dc6cfb0caa24d28cf31f731b3ec431be72b8f46f4c3980621",
    "skewed-quorum-rbc": "4b420d83784a364014351e54891163a8fa06c37bcaa51af369073cba7697b8bf",
    "vaba-blackbox": "413987bcb661de21c959d254073469babefb05e0eef7ce5f22a86712b827423e",
    "checkpoint-tight": "945bc4194575e43acbdbebea165b0f0dd4db91bb6aae69e3ea9110900107ceb6",
    "epoch-service": "824d8ae859ad86b17551ab7a44067c3b7324f6903943111988cdb8180b1af7c5",
    "crash-restart-smr": "2383394a45ab56212ef1b68257702d785df15b446fe83432c3428db5fd0827ef",
    "crash-restart-mixed-smr": "5915b54cfb0f123db20312c89b603be97e3fbec4b2d38f36606c1a0d8f610c15",
    "equivocate-smr": "20c0ebcb8aec475725ebef2f8a5a2b3213a0dfa78bb87bd6d82b8886704832f3",
    "garble-rbc": "b537aa3ee2d68f502df7c2ccee6b698567b1e0469285e983777d90279e3832dd",
    "pivot-delay-smr": "b4701483005c1b9cb8e9d750cc3cbf033d0c60bd73321473ec45fe707484aa91",
    "adaptive-silence-smr": "600919b635f6aec1cc1cba53a5356106a15044b5792d8eb5ff23ce420f0bdb2b",
    "share-flood-checkpoint": "cbf2c09a3fa09568ae2fa7bf93f477f58eb02aabe5417b5127a4131db6208dcd",
    "partition-heal-corrupt-smr": "b60856f15fc3daff68c2499c889e96ce4596e07fcc58e6c233f9eb38306e89e8",
    "weather-storm-smr": "3cc4ca0012e7ec0c01effda86b79ecc62dea925c7479bf775da9758be0c855b9",
    "rolling-restart-under-load": "fd47aa1842542fcd4e875585892595010eb631be1b01240045f13bd935742c2f",
    "bad-handover-service": "e5485ab302f5cb7daf0f8a5d5d3067b02220eeeda641d0267446f51f093db9cf",
}

#: :func:`campaign_digest` of ``FuzzConfig(episodes=50, seed=0)``
CAMPAIGN_DIGEST = "f37c46855362189bf283e49477a2c5cfd73e80bff714df3ae3138f2252ca0daf"


def scenario_digest(name: str) -> str:
    record = run_scenario(get_scenario(name), backend="sim").record_json()
    return hashlib.sha256(record.encode()).hexdigest()


def campaign_digest(config: FuzzConfig) -> str:
    """One sha256 over every episode's record (canonical JSON, ``null``
    for an episode without one), in episode order."""
    digest = hashlib.sha256()
    for outcome in run_campaign(config).outcomes:
        digest.update(
            json.dumps(outcome.record, sort_keys=True, separators=(",", ":")).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def test_every_registry_scenario_is_pinned():
    assert sorted(SCENARIO_DIGESTS) == sorted(scenario_names())


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_sim_record_matches_golden(name):
    assert scenario_digest(name) == SCENARIO_DIGESTS[name], name


def test_fuzz_campaign_records_match_golden():
    assert campaign_digest(FuzzConfig(episodes=50, seed=0)) == CAMPAIGN_DIGEST
