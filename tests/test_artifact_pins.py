"""Pinned bytes of the deterministic outputs.

Campaign artifacts and conformance verdicts must stay byte-identical for
a fixed (seed, run count) unless a change says why they move.  These
digests were recorded from the code before the mode/signal refactor;
when a change alters the outputs on purpose, record the new digests
together with the reason.
"""

import hashlib

import numpy as np

from hdsf.config import Configuration
from hdsf.drone import (ControllerVariant, DroneParams, build_full_system,
                        build_surrogate_system, conformance_check, default_config_space,
                        phi_for)
from hdsf.falsify import campaign, generate
from hdsf.hybrid import simulate, trace_to_jsonl

CAMPAIGN_DIGESTS = {
    "summary.json": "73a90fa15b70c0ccebf8d6f2d87bda27658e1dcc08735d0bf54988745c54478c",
    "violations.jsonl": "78b390beb2d47ed11df7685a6dafa6cd30b62c7b51318ca8380f4b0d0a51c8f3",
    "margins.csv": "108297f7b4b5896dd3b12cb995057a03ed562e3c6f8996c51c34b0bd70e44fe7",
}
# 14 trace files, one per failure class, hashed as name, NUL, bytes in
# sorted name order; summary.json, violations.jsonl and the traces were
# re-recorded when violations were keyed by failure class (side and 10 m
# altitude-margin bucket) instead of the configuration on a unit grid, and
# summary.json gained raw_violations; margins.csv did not move
TRACES_DIGEST = "7c2f67a785848839b842efe19cd866d125ea58c3dba5a36cfb2cf4feccf67798"
# one "<full> <surrogate>" verdict line per configuration
CONFORMANCE_DIGESTS = {
    ControllerVariant.BUGGY:
        "51f2d5a122b2cdbae96a919ec870d6d46f1ac206748415e671f4ac024c82c46d",
    ControllerVariant.PATCHED:
        "1259df7da0dbd6eb821f748b4bed02d14a9c76ad1536b9098a6956f6f9699a44",
}
# full-model traces at the trace step, each hashed as index, NUL, bytes:
# entered in GOTO, the whole mission from IDLE (the first configuration
# never starts it), and GOTO with a waypoint 100 m away, so LAND is reached;
# recorded before simulate settled signals one by one
FULL_TRACE_DIGESTS = {
    (ControllerVariant.BUGGY, "goto"):
        "cae374aa60e36927f91f5952e4527e7c95bbe29f864f29b59089556cde3c15d4",
    (ControllerVariant.BUGGY, "idle"):
        "f8d4ea5189fca458514c381b2bd38851c4ed4f8894989ec017643ecf73c8e538",
    (ControllerVariant.BUGGY, "land"):
        "10e1fd3890760eb94bff87f742e7feae3c02a5c24ba65c82ad684477731622df",
    (ControllerVariant.PATCHED, "goto"):
        "20f84299bc83f85c7e8582b5b2102e8261e95adc26b7a97a0b8a4bf707a6fb05",
    (ControllerVariant.PATCHED, "idle"):
        "55eacefe4bc60278ed410da4205ff1a2374906cc48b7730d33577dcee50df0fe",
    (ControllerVariant.PATCHED, "land"):
        "38cfb5a967e973601ddbcd0e9cd3f7e4b4e09b6c4d717fa9f5b1e25fa5eb3b0b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_buggy_campaign_artifacts_pinned(tmp_path):
    params = DroneParams()
    surrogate = build_surrogate_system(params, ControllerVariant.BUGGY)
    campaign(surrogate, phi_for, surrogate.parameter_space, 60,
             dt=params.dt, horizon=params.horizon, seed=7, out_dir=tmp_path)
    for name, digest in CAMPAIGN_DIGESTS.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name
    traces = sorted((tmp_path / "traces").iterdir())
    assert len(traces) == 14
    joined = b"".join(f"traces/{p.name}".encode() + b"\0" + p.read_bytes()
                      for p in traces)
    assert sha256(joined) == TRACES_DIGEST


def test_conformance_verdicts_pinned():
    params = DroneParams()
    space = default_config_space(params)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=1))
    configs = [generate(space, rng) for _ in range(20)]
    for variant, digest in CONFORMANCE_DIGESTS.items():
        report = conformance_check(params, variant, configs, params.dt, params.horizon)
        assert report.faults == []
        text = "".join(f"{p.full.value} {p.surrogate.value}\n" for p in report.pairs)
        assert sha256(text.encode()) == digest, variant


def full_model_traces(variant, scenario):
    params = DroneParams(waypoint=(100.0, 0.0, 70.0)) if scenario == "land" else DroneParams()
    system = build_full_system(params, variant)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5))
    configs = [generate(default_config_space(params), rng) for _ in range(8)]
    if scenario == "idle":
        configs = [configs[0]] + [Configuration(c, altitude_init=0.0, mission_start=1.0)
                                  for c in configs[1:]]
    else:
        system = system.with_entry("GOTO")
    return [simulate(system, None, c, params.dt, params.horizon) for c in configs]


def test_full_model_traces_pinned():
    for (variant, scenario), digest in FULL_TRACE_DIGESTS.items():
        traces = full_model_traces(variant, scenario)
        joined = b"".join(f"{i}".encode() + b"\0" + trace_to_jsonl(t).encode()
                          for i, t in enumerate(traces))
        assert sha256(joined) == digest, (variant, scenario)
