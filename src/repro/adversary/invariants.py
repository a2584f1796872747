"""Safety invariants machine-checked on every scenario record.

The campaign runner (:mod:`repro.adversary.fuzz`) applies these to each
episode's unified record; a non-empty return is a violation and becomes
a one-line replay spec.  The invariants are the paper's correctness
claims, stated over the record shape:

* **agreement** -- honest parties that decided decided the same value.
  For SMR the decided digest is computed over the ordered log, so equal
  digests are simultaneously the *total order* check.
* **validity** -- with an honest RBC sender, anything delivered is the
  sender's payload.
* **liveness** -- when no strategy in the fault plan breaks liveness,
  the run completed.
* **gap-free committed log** (service workloads) -- epoch slot ranges
  are contiguous from slot 0 and every submitted request committed.
* **recovery** (crash-restart fault plans) -- every restarted party
  decided in a completed run; a recovered party stuck at the empty
  digest means rejoin silently failed.

Beacon unpredictability is checked by a direct probe
(:func:`repro.adversary.fuzz.run_coin_probe`) rather than from records:
no scenario driver exposes the coin's coalition structure.
"""

from __future__ import annotations

import hashlib

__all__ = ["EMPTY_DIGEST", "check_record"]

#: the digest every driver emits for "no output yet" (sha256 of nothing)
EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()[:16]


def _expected_rbc_digest(spec, record) -> str | None:
    """The honest sender's payload digest, or ``None`` when the sender is
    corrupted (no validity claim to check)."""
    from ..scenarios.drivers import digest, payload

    adversary = record.get("adversary") or {}
    corrupted = set(adversary.get("corrupted", ()))
    live = [
        pid for pid in range(record["n_real"]) if pid not in spec.faults.crashes
    ]
    honest = [pid for pid in live if pid not in corrupted]
    if not honest:
        return None
    sender = min(honest)
    # An equivocation strategy takes over the sender role entirely.
    if "equivocate" in adversary.get("strategies", ()):
        return None
    return digest(payload(spec, sender, 0))


def _check_service(record: dict) -> list[str]:
    violations: list[str] = []
    service = record.get("service") or {}
    epochs = service.get("epochs", ())
    cursor = 0
    for ep in epochs:
        if ep["first_slot"] != cursor:
            violations.append(
                f"gap in committed log: epoch {ep['epoch']} starts at slot "
                f"{ep['first_slot']}, expected {cursor}"
            )
        if ep["last_slot"] < ep["first_slot"]:
            violations.append(
                f"epoch {ep['epoch']} slot range inverted: "
                f"[{ep['first_slot']}, {ep['last_slot']})"
            )
        cursor = ep["last_slot"]
    if record.get("completed"):
        submitted = service.get("requests_submitted", 0)
        committed = service.get("requests_committed", 0)
        if committed != submitted:
            violations.append(
                f"request loss: {committed}/{submitted} committed in a "
                "completed run"
            )
        if epochs and service.get("rotations") != len(epochs) - 1:
            violations.append(
                f"rotation count {service.get('rotations')} does not match "
                f"{len(epochs)} epoch records"
            )
    return violations


def check_record(spec, record: dict) -> list[str]:
    """All safety-invariant violations of one scenario ``record`` (the
    dict from ``ScenarioResult.record()``) executed from ``spec``.
    Empty list = the record is safe."""
    violations: list[str] = []
    adversary = record.get("adversary") or {}
    expect_liveness = adversary.get("expect_liveness", True)

    if expect_liveness and not record.get("completed"):
        violations.append("liveness: run did not complete with no "
                          "liveness-breaking strategy in the fault plan")

    decided = record.get("decided") or {}
    values = {v for v in decided.values() if v != EMPTY_DIGEST}
    if len(values) > 1:
        violations.append(
            f"agreement: honest parties decided {len(values)} distinct "
            f"values: {sorted(values)}"
        )

    if spec.protocol == "rbc" and values:
        expected = _expected_rbc_digest(spec, record)
        if expected is not None and values != {expected}:
            violations.append(
                f"validity: delivered {sorted(values)} but the honest "
                f"sender broadcast {expected}"
            )

    # Crash-restarted parties must come all the way back: a completed run
    # where a recovered party never decided means rejoin silently failed
    # (agreement alone would not catch it -- EMPTY_DIGEST is filtered).
    restarts = getattr(spec.faults, "restarts", ())
    if restarts and record.get("completed"):
        for pid, _crash_at, _restart_at in restarts:
            digest = decided.get(str(pid), EMPTY_DIGEST)
            if digest == EMPTY_DIGEST:
                violations.append(
                    f"recovery: restarted party {pid} decided nothing in a "
                    "completed run"
                )

    if record.get("service") is not None:
        violations.extend(_check_service(record))
    if record.get("chaos") is not None:
        violations.extend(_check_chaos(spec, record))
    return violations


def _check_chaos(spec, record: dict) -> list[str]:
    """Chaos-plan invariants over the record's ``chaos`` section.

    * **delivery idempotence** -- duplicated/reordered delivery must
      never commit the same proposer twice in one epoch's log.
    * **progress after heal** -- on the sim backend a completed run whose
      partitions all healed must have converged within a bounded virtual
      time after the last heal (a run that limps to completion through
      retries long after the heal is a liveness regression).
    """
    violations: list[str] = []
    chaos = record["chaos"]
    duplicates = chaos.get("duplicate_commits", 0)
    if duplicates:
        violations.append(
            f"idempotence: {duplicates} duplicate commit(s) in ordered "
            "logs under duplication/reordering"
        )
    heal = spec.chaos.heal_time() if spec.chaos is not None else None
    if (
        record.get("backend") == "sim"
        and record.get("completed")
        and heal is not None
    ):
        bound = heal + 5.0
        sim_time = record.get("sim_time", 0.0)
        if sim_time > bound:
            violations.append(
                f"progress: healed run converged at t={sim_time:.3f}, "
                f"past the bound {bound:.3f} (heal at {heal:.3f})"
            )
    return violations
