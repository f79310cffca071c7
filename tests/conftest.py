import json
import re
from importlib import resources

import pytest
from oracles import tuple_variants

from gridrisk.attack import perturb_model
from gridrisk.network import build_model, load_bundled_case, load_case
from gridrisk.risk import tuple_attack_variants

# The two equally sparse critical tuples of ieee14 measurement 9 (alpha =
# 11).  TUPLE14_9 is the one the MILP reports on the bare matrix, where
# the pick among equally sparse supports is HiGHS's tie choice; the tests
# that pin figures of the seed-7 attacker model name it.  CUT_TUPLE14_9
# is the one the minimum cut reports on every ieee14 model, true or
# perturbed: the rows its smallest minimum cut touches.
TUPLE14_9 = (9, 10, 15, 29, 30, 35, 44, 45, 46, 47, 49)
CUT_TUPLE14_9 = (8, 9, 10, 28, 29, 30, 44, 45, 46, 47, 49)

# ieee14 restricted to 35 of its 54 measurements (numbers in the bundled
# case).  The plan is not cut-exact.  The first support HiGHS offers for
# rows 6 and 17 has 7 rows and fails the stealth check; alpha is 8 there.
PLAN35_ROWS = [1, 2, 3, 5, 6, 7, 10, 12, 14, 15, 17, 19, 22, 23, 24, 26, 27, 29,
               30, 31, 32, 33, 35, 38, 39, 40, 43, 45, 46, 47, 49, 51, 52, 53, 54]


# Two buses, one line metered at both ends, and the injection at bus 2:
# every row is a multiple of the one free angle, so target 1's tuple is
# all three rows, and combined_1_2 withdraws both flows and keeps the
# injection alone, which fixes the angle with nothing to spare (dof 0).
TWO_BUS_DOC = {
    "base_mva": 100,
    "buses": [{"id": 1, "reference": True}, {"id": 2}],
    "lines": [{"id": 1, "from": 1, "to": 2, "reactance": 0.1}],
    "measurements": [
        {"kind": "flow_from", "element": 1, "sigma": 0.01},
        {"kind": "flow_to", "element": 1, "sigma": 0.01},
        {"kind": "injection", "element": 2, "sigma": 0.01},
    ],
}


def plan35_doc() -> dict:
    """The ieee14 case document restricted to PLAN35_ROWS."""
    doc = json.loads((resources.files("gridrisk") / "cases" / "ieee14.json").read_text())
    doc["measurements"] = [doc["measurements"][i - 1] for i in PLAN35_ROWS]
    return doc


@pytest.fixture(scope="session")
def chain3():
    return build_model(load_bundled_case("chain3"))


@pytest.fixture(scope="session")
def ring4():
    return build_model(load_bundled_case("ring4"))


@pytest.fixture(scope="session")
def ieee14():
    return build_model(load_bundled_case("ieee14"))


@pytest.fixture(scope="session")
def two_bus_variant():
    """(model, combined_1_2) on TWO_BUS_DOC, target 1, as `detect` and
    `risk` build it at their default seed and perturbation."""
    model = build_model(load_case(TWO_BUS_DOC))
    variants = dict(tuple_attack_variants(perturb_model(model, 0.2, seed=0), 1))
    return model, variants["combined_1_2"]


@pytest.fixture(scope="session")
def variants14(ieee14):
    """attack_id -> variant on ieee14 target 9 at mu 0.1, built as
    tuple_attack_variants specifies from the seed-7 attacker model on
    TUPLE14_9."""
    return dict(tuple_variants(perturb_model(ieee14, 0.2, seed=7), TUPLE14_9, 9, 0.1))


@pytest.fixture(scope="session")
def reported_variants14(ieee14):
    """seed -> (attacker model, tuple_attack_variants on ieee14 target 9 at
    mu 0.1) for attacker seeds 0-12."""
    out = {}
    for seed in range(13):
        perturbed = perturb_model(ieee14, 0.2, seed=seed)
        out[seed] = perturbed, tuple_attack_variants(perturbed, target_j=9)
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, printed after the run."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_criterion_(\d+)", getattr(report, "nodeid", ""))
            if match:
                num = int(match.group(1))
                name = report.nodeid.split("::")[-1]
                word = "PASS" if status == "passed" else "FAIL"
                outcomes[num] = (word, name)
    if outcomes:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(outcomes):
            word, name = outcomes[num]
            terminalreporter.write_line(f"CRITERION {num:02d}: {word} - {name}")
