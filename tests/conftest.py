import re

import pytest
from oracles import tuple_variants

from gridrisk.attack import perturb_model
from gridrisk.network import build_model, load_bundled_case
from gridrisk.risk import tuple_attack_variants

# One of the equally sparse critical tuples of ieee14 measurement 9 (alpha
# = 11).  Which one the index program reports is the solver's tie choice,
# so the tests that pin figures of the seed-7 attacker model name it.
TUPLE14_9 = (9, 10, 15, 29, 30, 35, 44, 45, 46, 47, 49)


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
