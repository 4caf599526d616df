"""Seeded job lists for the three workloads, their runners and their output checks.

Each workload is a fixed list of job shapes (the sizes that set a job's cost)
crossed with content drawn from the seed (keys, sampling seeds, control rounds,
tolerances, job order).  Fixing the shapes keeps runs at different seeds
comparable; drawing the content keeps the program from seeing one input only.

Jobs call into qkdsim only through module attributes (``cli.main``,
``adversary.eve_conditional_states``), so the traced run can swap those
attributes for wrappers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qkdsim import adversary, analysis, cli, protocol

DIAGNOSTIC_STAGES = ["post_encode", "round_end"]
NON_MEASURING = ("none", "persistent_entangle", "reply_odd_stop_restart")
SEARCH_TOLS = ("1e-7", "1e-8", "1e-9", "1e-10")

# (d, preset, rounds, eve_registers, diagnostics): d in {2,3,5} crossed with
# the four presets twice, 100-400 rounds, eve_registers weighted to 1 and
# capped at 2 for d=5 (3,125 amplitudes), diagnostics on 7 of 24 jobs.
SESSION_SHAPES = (
    (2, "none", 400, 1, False),
    (2, "persistent_entangle", 150, 2, True),
    (2, "reply_odd_stop_restart", 300, 1, False),
    (2, "intercept_resend", 250, 1, False),
    (2, "none", 100, 3, False),
    (2, "persistent_entangle", 350, 1, False),
    (2, "reply_odd_stop_restart", 200, 1, True),
    (2, "intercept_resend", 400, 3, False),
    (3, "none", 250, 1, True),
    (3, "persistent_entangle", 300, 1, False),
    (3, "reply_odd_stop_restart", 100, 2, False),
    (3, "intercept_resend", 350, 1, False),
    (3, "none", 200, 1, False),
    (3, "persistent_entangle", 400, 1, False),
    (3, "reply_odd_stop_restart", 150, 3, True),
    (3, "intercept_resend", 200, 2, False),
    (5, "none", 300, 1, False),
    (5, "persistent_entangle", 100, 1, True),
    (5, "reply_odd_stop_restart", 400, 1, False),
    (5, "intercept_resend", 150, 1, True),
    (5, "none", 150, 2, False),
    (5, "persistent_entangle", 250, 1, False),
    (5, "reply_odd_stop_restart", 250, 1, False),
    (5, "intercept_resend", 100, 2, True),
)

# (d, rounds, preset, eve_registers, bases): d^R kept small.  intercept_resend,
# the only branching preset, draws a measurement basis per round from the
# config seed, and its cost grows with each Fourier-basis round (F) and with how
# early it comes, so the basis pattern is part of the shape: the seed only
# draws a config seed that compiles to it.
EXACT_SHAPES = (
    (2, 4, "intercept_resend", 1, "CFCF"),
    (2, 5, "intercept_resend", 1, "CCFCF"),
    (3, 3, "intercept_resend", 1, "CFC"),
    (2, 7, "none", 1, None),
    (2, 7, "persistent_entangle", 1, None),
    (2, 6, "reply_odd_stop_restart", 1, None),
    (3, 4, "persistent_entangle", 1, None),
    (3, 4, "reply_odd_stop_restart", 2, None),
    (3, 3, "none", 2, None),
)

# (template, d, depth): both templates, d in {2,3,5}, depth 1-3 under the
# enumeration caps; d=7 at depth 2 (9 s) is left out.
SEARCH_SHAPES = (
    ("stage5_round1", 2, 3),
    ("stage5_round1", 3, 3),
    ("stage5_round1", 5, 1),
    ("stage5_round1", 5, 2),
    ("post_round1_round2", 2, 3),
    ("post_round1_round2", 3, 2),
    ("post_round1_round2", 3, 3),
    ("post_round1_round2", 5, 1),
    ("post_round1_round2", 5, 2),
)


@dataclass
class Job:
    """One unit a user waits for; `work` counts what each throughput metric counts."""

    index: int
    kind: str
    scenario: dict
    scenario_path: Path
    out_path: Path
    params: dict
    work: dict

    def argv(self) -> list[str]:
        if self.kind == "session":
            return ["run", str(self.scenario_path), "--out", str(self.out_path)]
        return ["search", str(self.scenario_path), "--depth", str(self.params["depth"]),
                "--tol", self.params["tol"], "--out", str(self.out_path)]


def _session_scenario(rng: random.Random, d, preset, rounds, eve, diag) -> dict:
    scenario = {"schema_version": "scenario/1", "d": d, "rounds": rounds}
    if rng.random() < 0.5:
        scenario["keys"] = [rng.randrange(d) for _ in range(rounds)]
    else:
        scenario["keys"] = {"seed": rng.randrange(1 << 30)}
    scenario["control_rounds"] = sorted(rng.sample(range(1, rounds + 1), rounds // 8))
    scenario["eve_registers"] = eve
    scenario["attack"] = {"preset": preset}
    if diag:
        scenario["diagnostics"] = list(DIAGNOSTIC_STAGES)
    scenario["seed"] = rng.randrange(1 << 30)
    return scenario


def _seed_for_bases(rng: random.Random, d: int, bases: str) -> int:
    """A config seed whose intercept_resend schedule has this basis pattern."""
    rounds = len(bases)
    while True:
        seed = rng.randrange(1 << 30)
        config = protocol.ProtocolConfig(d=d, rounds=rounds, key_seed=0, seed=seed)
        script = adversary.compile_schedule("intercept_resend", config)
        drawn = "".join("F" if any(a.gate is not None for a in script.rounds[r]) else "C"
                        for r in range(1, rounds + 1))
        if drawn == bases:
            return seed


def _shapes_and_scenarios(workload: str, rng: random.Random):
    if workload == "session":
        for d, preset, rounds, eve, diag in SESSION_SHAPES:
            scenario = _session_scenario(rng, d, preset, rounds, eve, diag)
            work = {"rounds": rounds, "key_assignments": 1, "sequences": 1}
            yield scenario, {"preset": preset}, work
    elif workload == "exact":
        for d, rounds, preset, eve, bases in EXACT_SHAPES:
            seed = rng.randrange(1 << 30) if bases is None else _seed_for_bases(rng, d, bases)
            scenario = {"schema_version": "scenario/1", "d": d, "rounds": rounds,
                        "keys": {"seed": rng.randrange(1 << 30)}, "eve_registers": eve,
                        "attack": {"preset": preset}, "seed": seed}
            # each key assignment runs one R-round branched session
            work = {"rounds": rounds * d ** rounds, "key_assignments": d ** rounds,
                    "sequences": 1}
            yield scenario, {"preset": preset}, work
    elif workload == "search":
        for template, d, depth in SEARCH_SHAPES:
            scenario = {"schema_version": "scenario/1", "d": d, "template": template}
            sequences = enumeration_count(d, depth)
            arity = analysis.get_template(template).key_arity
            # each (sequence, key tuple) evaluation runs Eve's gates and one decode
            evaluations = sequences * d ** arity
            work = {"rounds": evaluations, "key_assignments": evaluations,
                    "sequences": sequences}
            yield scenario, {"template": template, "depth": depth,
                             "tol": rng.choice(SEARCH_TOLS)}, work
    else:
        raise ValueError(f"unknown workload {workload!r}")


def make_jobs(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """The workload's job list for this seed; writes each scenario file."""
    rng = random.Random(f"{workload}:{seed}")
    drawn = list(_shapes_and_scenarios(workload, rng))
    rng.shuffle(drawn)
    work_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for index, (scenario, params, work) in enumerate(drawn):
        path = work_dir / f"{workload}-{index:02d}.scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        jobs.append(Job(index, workload, scenario, path,
                        work_dir / f"{workload}-{index:02d}.out.json", params, work))
    return jobs


def enumeration_count(d: int, depth: int) -> int:
    """Closed form: sum of |family|^n for n <= depth, |family| = 3(d-1)."""
    return sum((3 * (d - 1)) ** n for n in range(depth + 1))


class JobFailed(Exception):
    pass


def exact_config(job: Job) -> protocol.ProtocolConfig:
    s = job.scenario
    return protocol.ProtocolConfig(d=s["d"], rounds=s["rounds"], key_seed=s["keys"]["seed"],
                                   eve_registers=s["eve_registers"], seed=s["seed"])


def execute(job: Job):
    """The timed part of a job: exactly what its user waits for."""
    if job.kind == "exact":
        config = exact_config(job)
        script = adversary.compile_schedule(job.params["preset"], config)
        return adversary.eve_conditional_states(config, script)
    code = cli.main(job.argv())
    if code != 0:
        raise JobFailed(f"qkdsim {job.argv()[0]} exited with code {code}")
    return None


def collect(job: Job, result) -> dict:
    """Untimed: reduce a job's output to what the checks compare."""
    if job.kind != "exact":
        data = job.out_path.read_bytes()
        return {"digest": hashlib.sha256(data).hexdigest(), "text": data}
    blocks = result.blocks
    weight_error = max(abs(float(sum(np.trace(b).real for b in per_key.values())) - 1.0)
                       for per_key in blocks.values())
    return {
        "key_tuples": len(blocks),
        "records": sum(len(per_key) for per_key in blocks.values()),
        "pairs": len(result.pairwise_distances),
        "max_distance": result.max_pairwise_distance,
        "per_round": list(result.per_round_max_distance),
        "distance_sum": math.fsum(result.pairwise_distances.values()),
        "weight_error": weight_error,
    }


def comparable(output: dict) -> dict:
    """The part of an output that must repeat exactly between executions."""
    return {k: v for k, v in output.items() if k != "text"}


def exact_branch_count(job: Job) -> int:
    """Branches of the all-zero key tuple, counted by a separate untimed call."""
    config = exact_config(job)
    script = adversary.compile_schedule(job.params["preset"], config)
    zero = replace(config, keys=(0,) * config.rounds, key_seed=None)
    return len(protocol.run_session_branches(zero, script))


def invariant_errors(job: Job, output: dict) -> list[str]:
    """Seed-independent properties every output must have."""
    if job.kind == "session":
        return _session_errors(job, json.loads(output["text"]))
    if job.kind == "search":
        return _search_errors(job, json.loads(output["text"]))
    return _exact_errors(job, output)


def _session_errors(job: Job, doc: dict) -> list[str]:
    s = job.scenario
    errors = []
    rounds = doc["transcripts"]
    if len(rounds) != s["rounds"]:
        errors.append(f"{len(rounds)} transcripts for {s['rounds']} rounds")
    if isinstance(s["keys"], list) and [t["key_sent"] for t in rounds] != s["keys"]:
        errors.append("sent keys differ from the scenario keys")
    if job.params["preset"] in NON_MEASURING:
        if any(t["key_sent"] != t["key_decoded"] for t in rounds):
            errors.append(f"{job.params['preset']} left a key undecoded")
        if doc["control_check"]["mismatches"]:
            errors.append("control check mismatches without a measuring attack")
    else:
        if any(len(t["eve_records"]) != 1 for t in rounds):
            errors.append("intercept_resend must record one outcome per round")
    stages = s.get("diagnostics", [])
    if any(sorted(t.get("diagnostics", {})) != sorted(stages) for t in rounds):
        errors.append("diagnostic stages differ from the requested ones")
    if doc["control_check"]["checked"] != len(s["control_rounds"]):
        errors.append("control check counted the wrong rounds")
    return errors


def _search_errors(job: Job, doc: dict) -> list[str]:
    d, depth = job.scenario["d"], job.params["depth"]
    template = job.params["template"]
    errors = []
    if doc["enumeration_count"] != enumeration_count(d, depth):
        errors.append(f"enumeration_count {doc['enumeration_count']} differs from the "
                      f"closed form {enumeration_count(d, depth)}")
    if not doc["exhaustive"] or doc["depth"] != depth or doc["template"] != template:
        errors.append("report header does not match the job")
    for candidate in doc["candidates"]:
        sequence = [adversary.gate_from_obj(g) for g in candidate["sequence"]]
        verdict = analysis.verify_candidate(template, d, sequence,
                                            rank_tol=float(job.params["tol"]))
        if not verdict.verified:
            errors.append(f"candidate {candidate['sequence']} fails verify_candidate")
    return errors


def _exact_errors(job: Job, output: dict) -> list[str]:
    d, rounds = job.scenario["d"], job.scenario["rounds"]
    tuples = d ** rounds
    errors = []
    if output["key_tuples"] != tuples:
        errors.append(f"{output['key_tuples']} key tuples, expected {tuples}")
    if output["pairs"] != tuples * (tuples - 1) // 2:
        errors.append("pairwise distances do not cover every key pair")
    if output["weight_error"] > 1e-9:
        errors.append(f"block weights miss 1 by {output['weight_error']:.3g}")
    distances = [output["max_distance"], *output["per_round"]]
    if any(not -1e-12 <= x <= 1 + 1e-12 for x in distances):
        errors.append("a trace distance lies outside [0, 1]")
    if job.params["preset"] in NON_MEASURING and output["records"] != tuples:
        errors.append("a non-measuring preset produced eavesdropper records")
    if job.params["preset"] == "none" and output["max_distance"] > 1e-12:
        errors.append("no attack, yet the eavesdropper's states differ")
    return errors


def pin_of(job: Job, output: dict) -> object:
    """What the pinned file stores for a job at the default seed."""
    if job.kind != "exact":
        return output["digest"]
    pin = {k: output[k] for k in ("key_tuples", "records", "max_distance", "per_round",
                                  "distance_sum")}
    pin["branches"] = exact_branch_count(job)
    return pin


def pin_errors(job: Job, output: dict, pinned) -> list[str]:
    """Compare an output with its pin: bytes for reports, 1e-12 for distances."""
    if job.kind != "exact":
        if output["digest"] != pinned:
            return [f"{job.kind} job {job.index}: output bytes differ from the pinned digest"]
        return []
    got = pin_of(job, output)
    errors = [f"exact job {job.index}: {key} {got[key]} != pinned {pinned[key]}"
              for key in ("key_tuples", "records", "branches") if got[key] != pinned[key]]
    # the sum over all pairs may drift by 1e-12 per pair
    floats = [("max_distance", got["max_distance"], pinned["max_distance"], 1e-12),
              ("distance_sum", got["distance_sum"], pinned["distance_sum"],
               1e-12 * output["pairs"])]
    floats += [("per_round", a, b, 1e-12) for a, b in zip(got["per_round"], pinned["per_round"])]
    if len(got["per_round"]) != len(pinned["per_round"]):
        errors.append(f"exact job {job.index}: per_round length differs from the pin")
    errors += [f"exact job {job.index}: {name} {a!r} != pinned {b!r}"
               for name, a, b, tol in floats if abs(a - b) > tol]
    return errors
