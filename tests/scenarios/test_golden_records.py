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
    "uniform-rbc": "3c62627812920f951f636548f9e6e8f86d6ed65ea85a15148efd132dd4586ee4",
    "zipf-stake-smr": "8106606914f2ab972a3105390559159e13c9565aacf468323481f2ebe5d85d6a",
    "real-chain-rbc": "67aee53cd01e85cf29e63262f6d3998caf68d288ce774480c599fdbd1575be81",
    "crash-f-rbc": "fa709eccb0cfc7770ca63def0ec130f7c6fa4a19e6fecf7319c30bab09cb8fd0",
    "partition-heal-smr": "fc686855b532468bfd67ab84c87eedd212672b073627f7ba38d5bab1930b660d",
    "link-delay-rbc": "d4f1af22f8e313d483d22c2f29b8b84bb921217721d63f5ae11d94d5bd64abe0",
    "large-batch-smr": "3589c25aedbc35ce30dba4a56652c9f250bf82d4e4bf9d2f3364877becf54f8d",
    "skewed-quorum-rbc": "0459399ec34a1cc93e60fd69eb1216c845bd585eb991caef002402fd0b2c5f86",
    "vaba-blackbox": "8ae360edfa22045d900d6dbbcd325ffe0a43159234ce9cf400c4869871244465",
    "checkpoint-tight": "8be9c8989073176ad674a8bddf53a471f9fda49769b659044cdb3c43a81964dc",
    "epoch-service": "0cd9f4048ed48a91b1408a386562c48ff0e176354fb33cf93f89ee32b529a206",
    "crash-restart-smr": "33d24cfc0973118b771e69b6ac3c0541a39df79d6e83c5b72aa22fc1c41b74dd",
    "crash-restart-mixed-smr": "6cbba7527e405d24036428ad386ae7d04b953cef3fe72f5ab71122e5b6aa9877",
    "equivocate-smr": "6004281a361979728bb71cd93b9dd5cf4a623c0dd88217a85e518835a0773d48",
    "garble-rbc": "fca74855fe88e17cbfe11fc30cbe29231d755bd7effe7789b9339095001e368e",
    "pivot-delay-smr": "8b7609226add1515a2d6688e2c2153c72454ec390935ac692e640121a710341a",
    "adaptive-silence-smr": "cf2a254cc0709e4faa3ac361ed68778fabe4ca11ee299f44eda63361a9d51fb9",
    "share-flood-checkpoint": "3896f8620ced2c13b234badc1f18b335b9b7aa730d1fb00f8af520d55b618c14",
    "partition-heal-corrupt-smr": "5e290a4ca22abd470c590f09afee6cc6b0ea6a357a1abac17ed068b81f9cdc37",
    "weather-storm-smr": "9f40254faa4899131516125c1f6e4c545d6b9dcb27a778af7f1cadebda48d89d",
    "rolling-restart-under-load": "5783372561495aad48620fc076dfa5f1199e12689acbf89a305203e8510c7f70",
    "bad-handover-service": "dd1a3f797b2bda32999975d9f184359d960456f62e92aaad101af0f3a968f154",
}

#: :func:`campaign_digest` of ``FuzzConfig(episodes=50, seed=0)``
CAMPAIGN_DIGEST = "a459473e107a9a648c3f751b834e1120bc2100a4b8e77f8f994122063a725909"


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
