"""Pins the generated netlists to their text, byte for byte.

Every adder and both datapath carry-save stages are built from one TSG
full-adder helper and one Feynman copy helper; these texts were captured
before that refactor, so a change in wire names, constant order, gate
order or garbage order shows here first.
"""

import hashlib

import pytest

import revalu.montgomery as mg
from revalu import (
    build_cpa,
    build_csa42,
    build_csa52,
    build_full_adder,
    build_irreversible_cpa,
    serialize_rnl,
)

GOLDEN_LENGTH = 48746
GOLDEN_SHA256 = "8aaae91e69d40033f4ee0ec32e997c68779e6290c88897c4392826863448d043"


def _golden_netlists():
    nets = [build_full_adder()]
    for w in range(1, 9):
        nets += [build(w) for build in
                 (build_cpa, build_csa42, build_csa52, build_irreversible_cpa)]
    for n in range(1, 10):
        w = n + 2
        nets.append(mg._csa_stage(w, n, bus="y", tap_lsb=False, name="csa_stage1"))
        nets.append(mg._csa_stage(w, n, bus="m", tap_lsb=True, name="csa_stage2"))
    return nets


def test_golden_digest_of_every_generator():
    text = "".join(serialize_rnl(netlist) for netlist in _golden_netlists())
    assert len(text) == GOLDEN_LENGTH
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256


def test_golden_names():
    names = ["fa"]
    for w in range(1, 9):
        names += [f"cpa{w}", f"csa42_{w}", f"csa52_{w}", f"icpa{w}"]
    names += ["csa_stage1", "csa_stage2"] * 9
    assert [netlist.name for netlist in _golden_netlists()] == names


def test_full_adder_text():
    assert serialize_rnl(build_full_adder()) == (
        "input a b cin\n"
        "const z = 0\n"
        "gate TSG a b z cin -> g0 g1 sum cout\n"
        "output sum cout\n"
        "garbage g0 g1\n"
    )


def test_csa42_width_2_text():
    assert serialize_rnl(build_csa42(2)) == (
        "input a0 a1 b0 b1 c0 c1 d0 d1 cin\n"
        "const za0 = 0\n"
        "const za1 = 0\n"
        "const zb0 = 0\n"
        "const zb1 = 0\n"
        "gate TSG a0 b0 za0 c0 -> p0a p0b t0 k1\n"
        "gate TSG t0 d0 zb0 cin -> q0a q0b s0 carry0\n"
        "gate TSG a1 b1 za1 c1 -> p1a p1b t1 cout\n"
        "gate TSG t1 d1 zb1 k1 -> q1a q1b s1 carry1\n"
        "output s0 s1 carry0 carry1 cout\n"
        "garbage p0a p0b q0a q0b p1a p1b q1a q1b\n"
    )


_STAGE_CONSTANTS = (
    "const tz0 = 0\n"
    "const tz1 = 0\n"
    "const tz2 = 0\n"
    "const az0 = 0\n"
    "const az1 = 0\n"
    "const az2 = 0\n"
    "const az3 = 0\n"
    "const pz3 = 0\n"
    "const az4 = 0\n"
    "const pz4 = 0\n"
)
_STAGE_UPPER_ROW = (
    "gate TSG si1 ci1 az1 p1 -> fa1a fa1b sum1 car1\n"
    "gate TSG si2 ci2 az2 p2 -> fa2a fa2b sum2 car2\n"
    "gate TSG si3 ci3 az3 pz3 -> fa3a fa3b sum3 car3\n"
    "gate TSG si4 ci4 az4 pz4 -> fa4a fa4b sum4 car4\n"
    "output sum0 sum1 sum2 sum3 sum4 car0 car1 car2 car3 car4\n"
    "garbage tg0a tg0b tg1a tg1b tg2a tg2b fa0a fa0b fa1a fa1b fa2a fa2b fa3a fa3b"
    " fa4a fa4b\n"
)


@pytest.mark.parametrize(
    "bus, tap_lsb, name, text",
    [
        (
            "y", False, "csa_stage1",
            "input si0 si1 si2 si3 si4 ci0 ci1 ci2 ci3 ci4 y0 y1 y2 x\n"
            "const fz0 = 0\n"
            "const fz1 = 0\n"
            + _STAGE_CONSTANTS
            + "gate FG x fz0 -> ft0 fc0\n"
            "gate FG ft0 fz1 -> ft1 fc1\n"
            "gate TG fc0 y0 tz0 -> tg0a tg0b p0\n"
            "gate TG fc1 y1 tz1 -> tg1a tg1b p1\n"
            "gate TG ft1 y2 tz2 -> tg2a tg2b p2\n"
            "gate TSG si0 ci0 az0 p0 -> fa0a fa0b sum0 car0\n"
            + _STAGE_UPPER_ROW,
        ),
        (
            "m", True, "csa_stage2",
            "input si0 si1 si2 si3 si4 ci0 ci1 ci2 ci3 ci4 m0 m1 m2\n"
            "const fz0 = 0\n"
            "const fz1 = 0\n"
            "const fz2 = 0\n"
            + _STAGE_CONSTANTS
            + "gate FG si0 fz0 -> ft0 fc0\n"
            "gate FG ft0 fz1 -> ft1 fc1\n"
            "gate FG ft1 fz2 -> ft2 fc2\n"
            "gate TG fc0 m0 tz0 -> tg0a tg0b p0\n"
            "gate TG fc1 m1 tz1 -> tg1a tg1b p1\n"
            "gate TG fc2 m2 tz2 -> tg2a tg2b p2\n"
            "gate TSG ft2 ci0 az0 p0 -> fa0a fa0b sum0 car0\n"
            + _STAGE_UPPER_ROW,
        ),
    ],
)
def test_csa_stage_text(bus, tap_lsb, name, text):
    stage = mg._csa_stage(5, 3, bus=bus, tap_lsb=tap_lsb, name=name)
    assert stage.name == name
    assert serialize_rnl(stage) == text
