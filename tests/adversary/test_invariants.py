"""Unit tests for the record-level safety invariants the fuzz campaign
checks on every episode.

These run :func:`check_record` against synthetic records -- each test
plants exactly one violation shape and asserts the checker names it --
so a silent checker regression cannot hide behind a healthy campaign.
"""

from repro.adversary import EMPTY_DIGEST, check_record
from repro.scenarios import (
    ByzantineSpec,
    FaultSpec,
    ScenarioSpec,
    WeightSpec,
)


def _spec(protocol="smr", byzantine=(), crashes=()):
    return ScenarioSpec(
        name="inv-test",
        protocol=protocol,
        weights=WeightSpec(kind="explicit", values=(4, 3, 2, 1)),
        faults=FaultSpec(
            byzantine=tuple(ByzantineSpec(s) for s in byzantine),
            crashes=crashes,
        ),
    )


def _record(**overrides):
    record = {
        "completed": True,
        "n_real": 4,
        "decided": {str(p): "aaaa" for p in range(4)},
        "adversary": None,
    }
    record.update(overrides)
    return record


class TestAgreement:
    def test_clean_record_has_no_violations(self):
        assert check_record(_spec(), _record()) == []

    def test_two_decided_values_violate_agreement(self):
        record = _record(decided={"0": "aaaa", "1": "aaaa", "2": "bbbb"})
        violations = check_record(_spec(), record)
        assert any(v.startswith("agreement") for v in violations)

    def test_empty_digest_is_not_a_decision(self):
        # A party that delivered nothing does not disagree with one that
        # did -- RBC under a Byzantine sender may deliver at a subset.
        record = _record(decided={"0": "aaaa", "1": EMPTY_DIGEST})
        assert check_record(_spec(), record) == []


class TestLiveness:
    def test_incomplete_run_without_byzantine_plan_violates(self):
        violations = check_record(_spec(), _record(completed=False))
        assert any(v.startswith("liveness") for v in violations)

    def test_incomplete_run_is_allowed_when_strategy_breaks_liveness(self):
        record = _record(
            completed=False,
            decided={str(p): EMPTY_DIGEST for p in range(4)},
            adversary={
                "strategies": ["equivocate"],
                "corrupted": [0],
                "expect_liveness": False,
            },
        )
        assert check_record(_spec("rbc", byzantine=("equivocate",)), record) == []


class TestRbcValidity:
    def test_delivering_a_non_sender_payload_violates_validity(self):
        from repro.scenarios.drivers import digest, payload

        spec = _spec("rbc")
        honest = digest(payload(spec, 0, 0))
        assert check_record(spec, _record(decided={"0": honest})) == []
        violations = check_record(spec, _record(decided={"0": "ffff"}))
        assert any(v.startswith("validity") for v in violations)

    def test_corrupted_sender_makes_no_validity_claim(self):
        spec = _spec("rbc", byzantine=("equivocate",))
        record = _record(
            decided={"1": "ffff", "2": "ffff", "3": "ffff"},
            adversary={
                "strategies": ["equivocate"],
                "corrupted": [0],
                "expect_liveness": False,
            },
            completed=False,
        )
        assert check_record(spec, record) == []


class TestServiceLog:
    def _service(self, epochs, **extra):
        service = {
            "epochs": epochs,
            "requests_submitted": 10,
            "requests_committed": 10,
            "rotations": len(epochs) - 1 if epochs else 0,
        }
        service.update(extra)
        return service

    def test_contiguous_epochs_pass(self):
        epochs = [
            {"epoch": 0, "first_slot": 0, "last_slot": 3},
            {"epoch": 1, "first_slot": 3, "last_slot": 5},
        ]
        record = _record(service=self._service(epochs))
        assert check_record(_spec(), record) == []

    def test_slot_gap_is_a_violation(self):
        epochs = [
            {"epoch": 0, "first_slot": 0, "last_slot": 3},
            {"epoch": 1, "first_slot": 4, "last_slot": 6},
        ]
        record = _record(service=self._service(epochs))
        violations = check_record(_spec(), record)
        assert any("gap in committed log" in v for v in violations)

    def test_request_loss_is_a_violation(self):
        epochs = [{"epoch": 0, "first_slot": 0, "last_slot": 3}]
        record = _record(
            service=self._service(epochs, requests_committed=7)
        )
        violations = check_record(_spec(), record)
        assert any("request loss" in v for v in violations)

    def test_rotation_count_mismatch_is_a_violation(self):
        epochs = [
            {"epoch": 0, "first_slot": 0, "last_slot": 3},
            {"epoch": 1, "first_slot": 3, "last_slot": 5},
        ]
        record = _record(service=self._service(epochs, rotations=3))
        violations = check_record(_spec(), record)
        assert any("rotation count" in v for v in violations)
