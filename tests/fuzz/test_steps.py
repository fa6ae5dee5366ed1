"""The serializable step schema (repro.fuzz.steps).

The serialization contract the replay gate rests on: dumps() is
canonical (byte-identity ⇔ value equality), loads() validates every
step against the op catalog, and a Step round-trips losslessly.
"""

import json

import pytest

from repro.fuzz.steps import (
    FORMAT_VERSION,
    OPS,
    Step,
    dumps,
    from_jsonable,
    loads,
    step,
)


class TestStepConstruction:
    def test_step_helper_builds_validated_step(self):
        one = step("spawn", memory_mb=128, lightvm=True)
        assert one.op == "spawn"
        assert dict(one.args) == {"memory_mb": 128, "lightvm": True}

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown step op"):
            step("teleport", where="dom0")

    def test_missing_arg_rejected(self):
        with pytest.raises(ValueError, match="spawn"):
            step("spawn", memory_mb=128)  # lightvm missing

    def test_extra_arg_rejected(self):
        with pytest.raises(ValueError, match="spawn"):
            step("spawn", memory_mb=128, lightvm=True, color="red")

    def test_non_scalar_arg_rejected(self):
        with pytest.raises(ValueError):
            step("destroy", index=[1, 2])

    def test_steps_are_hashable_and_comparable(self):
        a = step("destroy", index=3)
        b = step("destroy", index=3)
        assert a == b and hash(a) == hash(b)
        assert a != step("destroy", index=4)

    def test_describe_is_deterministic(self):
        one = step("net_burst", count=2, size=100, batched=False)
        assert one.describe() == "net_burst(batched=False count=2 size=100)"

    def test_every_op_has_a_schema(self):
        assert len(OPS) >= 8  # the acceptance floor on rule kinds
        for op, names in OPS.items():
            assert isinstance(op, str) and isinstance(names, tuple)


class TestSerialization:
    def _sample(self):
        return (
            step("spawn", memory_mb=64, lightvm=False),
            step("inject_fault", name="net-kill", mode="every", n=3, limit=2),
            step("fleet_drain"),
        )

    def test_round_trip(self):
        steps = self._sample()
        seed, back = loads(dumps(steps, world_seed=42))
        assert seed == 42
        assert back == steps

    def test_dumps_is_canonical(self):
        steps = self._sample()
        text = dumps(steps, world_seed=5)
        assert text.endswith("\n")
        # Canonical form: parsing and re-dumping is byte-identical.
        seed, back = loads(text)
        assert dumps(back, world_seed=seed) == text

    def test_version_envelope(self):
        payload = json.loads(dumps(self._sample()))
        assert payload["version"] == FORMAT_VERSION

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            from_jsonable({"version": 99, "world_seed": 0, "steps": []})

    def test_malformed_steps_rejected(self):
        with pytest.raises(ValueError):
            from_jsonable(
                {"version": FORMAT_VERSION, "world_seed": 0, "steps": "nope"}
            )

    def test_bool_world_seed_rejected(self):
        with pytest.raises(ValueError, match="world_seed"):
            from_jsonable(
                {"version": FORMAT_VERSION, "world_seed": True, "steps": []}
            )

    def test_string_world_seed_survives(self):
        seed, back = loads(dumps((), world_seed="ci-run"))
        assert seed == "ci-run" and back == ()
