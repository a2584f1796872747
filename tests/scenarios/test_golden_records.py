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
    "uniform-rbc": "ef25399ac41d68c32446159cb8a1685c491cdccdf4eb4effbb816317bea74f46",
    "zipf-stake-smr": "4366dda378f7298b846da598be91e462b4439b42e9442d770e87ec67776640a6",
    "real-chain-rbc": "eb173697edba2544196ecb14efda2b677ccafdb3445d424039b072325d6cf321",
    "crash-f-rbc": "a4d9356cabb8d7d65bfa774f00d5209369951748cc18fa38f3ba0821d7028e8d",
    "partition-heal-smr": "b1912b471501ca194045d187f77034b67b2c27e38cb97c7579f63a5374327ba7",
    "link-delay-rbc": "c47efd574c6a868ff5cc2574419afcb5401e865ad075decdc54eacb92a25a241",
    "large-batch-smr": "8f74fbd8ba1fc0139897945066505f9f845d89a1c91bc56986fbad1c4ecc8a43",
    "skewed-quorum-rbc": "0ba0bf3578327cbe5b6d344c2996c3c73185de6745c248e4aa75191701b8ccfc",
    "vaba-blackbox": "8ae360edfa22045d900d6dbbcd325ffe0a43159234ce9cf400c4869871244465",
    "checkpoint-tight": "8be9c8989073176ad674a8bddf53a471f9fda49769b659044cdb3c43a81964dc",
    "epoch-service": "75f6d50aefc0ca01da22a35e7bb0453a783cfd8b92fdc51554998e416d594849",
    "crash-restart-smr": "16a684d8c68f1fba0b41340abc37d981ae60ca4e6bd6604b17f25a8abb4cab50",
    "crash-restart-mixed-smr": "5e19655d18d015d9922c0985515692f21695b6777de1bd5f420025bfa4428f7f",
    "equivocate-smr": "7bd71d63b423da95c2a82b70ad2fab4d2970a8de2f40c74cbd1f95ce1fc68357",
    "garble-rbc": "5758238c8b42bb55a712f4d39739ee8d3dadbe5f4b9096c549edc9bbc7be0ed0",
    "pivot-delay-smr": "732bb36a7c2baea91431ea575ca3dbc7b336847f0a36ada3ae9905b5589e0437",
    "adaptive-silence-smr": "0e6b54791bc8d2865a2d34532cb22584ce688a0eaccedd4ce6a526c878608955",
    "share-flood-checkpoint": "3896f8620ced2c13b234badc1f18b335b9b7aa730d1fb00f8af520d55b618c14",
    "partition-heal-corrupt-smr": "a659e1e9ebf09a8fdcb6cb6493664ebd67ee511bf984c76c3b0e7d6a5216036b",
    "weather-storm-smr": "a07cc8150675a708d31684a45bb83fcbe24b2d1cf48503a5c51de9f865cd9f7a",
    "rolling-restart-under-load": "b10790d573d74fb17d15d1b68fb4a54828551b08b3a360e8df5417b9d704d582",
    "bad-handover-service": "f9d2b7c68c18783afa20087afc99176484efc3d08805879774e6a23647e4796a",
}

#: :func:`campaign_digest` of ``FuzzConfig(episodes=50, seed=0)``
CAMPAIGN_DIGEST = "476ebe322792fb6d7220d57e665a491b0b350bd05b77a64fcb19f1fe54f32b88"


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
