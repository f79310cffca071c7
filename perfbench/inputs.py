"""Seeded workload inputs and an independent DC measurement matrix.

Nothing here imports gridrisk: the matrix builder and the parallel-row
grouping are re-derived from the case format so the output checks do not
rest on the code under test.
"""

from __future__ import annotations

import json

import numpy as np

IEEE14 = "src/gridrisk/cases/ieee14.json"
PLAN_KEEP = 40
# The kept measurement set is fixed: index-sweep cost varies from 4 s to
# 46 s across kept sets (heavy-tailed per-class branch and bound), far
# more than the run-to-run bound allows.  The benchmark seed instead
# permutes the measurement order and jitters line reactances, which keeps
# the combinatorial structure and moves node counts by about 3%.
PLAN_SEED = 10
BINARY_CAP = 128  # the solver's binary limit
RANK_RTOL = 1e-9


def load_case(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0])) if s[0] > 0 else 0


def dc_matrix(case: dict) -> np.ndarray:
    """H of the DC model: a flow row is (e_from - e_to) / x, flow_to its
    negative, an injection row the signed sum of the incident flow rows;
    the reference bus column is dropped."""
    states = [b["id"] for b in case["buses"] if not b.get("reference")]
    col = {bus: k for k, bus in enumerate(states)}
    flow = {}
    for ln in case["lines"]:
        row = np.zeros(len(states))
        if ln["from"] in col:
            row[col[ln["from"]]] += 1.0 / ln["reactance"]
        if ln["to"] in col:
            row[col[ln["to"]]] -= 1.0 / ln["reactance"]
        flow[ln["id"]] = (ln["from"], ln["to"], row)
    rows = []
    for ms in case["measurements"]:
        if ms["kind"] == "flow_from":
            rows.append(flow[ms["element"]][2])
        elif ms["kind"] == "flow_to":
            rows.append(-flow[ms["element"]][2])
        else:
            bus = ms["element"]
            inj = np.zeros(len(states))
            for f, t, row in flow.values():
                if f == bus:
                    inj += row
                elif t == bus:
                    inj -= row
            rows.append(inj)
    return np.array(rows)


def parallel_groups(h: np.ndarray, atol: float = 1e-8) -> list:
    """Rows equal up to a nonzero scale, as lists of 0-based row ids."""
    units = h / np.linalg.norm(h, axis=1)[:, None]
    lead = np.argmax(np.abs(units) > atol, axis=1)
    units *= np.sign(units[np.arange(len(units)), lead])[:, None]
    groups, reps = [], []
    for i, u in enumerate(units):
        for g, v in zip(groups, reps):
            if np.max(np.abs(u - v)) <= atol:
                g.append(i)
                break
        else:
            groups.append([i])
            reps.append(u)
    return groups


def make_plan(base: dict, plan_seed: int, keep: int = PLAN_KEEP) -> dict:
    """Seeded measurement plan keeping `keep` of the base case's rows.

    Draws are rejected until the plan is observable (rank n) and its
    largest index program (one binary per parallel class plus one per
    row) stays within the solver's binary cap.  Returns the plan case and
    its provenance: kept ids (1-based in the base order), m, class count.
    """
    rng = np.random.default_rng(plan_seed)
    total = len(base["measurements"])
    n = len(base["buses"]) - 1
    for draw in range(1000):
        ids = np.sort(rng.choice(total, keep, replace=False))
        case = dict(base, measurements=[base["measurements"][i] for i in ids])
        h = dc_matrix(case)
        classes = len(parallel_groups(h))
        if rank(h) == n and classes + keep <= BINARY_CAP:
            info = {"plan_seed": plan_seed, "draw": draw,
                    "kept_ids": [int(i) + 1 for i in ids], "m": keep,
                    "classes": classes}
            return case, info
    raise RuntimeError(f"no observable plan within the binary cap for seed {plan_seed}")


def index_case(base: dict, seed: int):
    """The index workload's case for one benchmark seed: the fixed plan,
    with its measurements in a seeded order and every line reactance
    scaled by a seeded factor in [0.9, 1.1]."""
    plan, info = make_plan(base, PLAN_SEED)
    rng = np.random.default_rng([seed, PLAN_KEEP])
    order = rng.permutation(len(plan["measurements"]))
    lines = [dict(ln, reactance=ln["reactance"] * float(rng.uniform(0.9, 1.1)))
             for ln in plan["lines"]]
    case = dict(plan, lines=lines,
                measurements=[plan["measurements"][i] for i in order])
    h = dc_matrix(case)
    if rank(h) != len(case["buses"]) - 1:
        raise RuntimeError("jittered plan lost observability")
    info = dict(info, order=[int(info["kept_ids"][i]) for i in order],
                classes=len(parallel_groups(h)))
    return case, info
