"""Command-line front end: validate scenarios, run sessions, search for exits.

Every command runs the same scenario check: load_scenario, then
_checked_session.  Exit codes: 0 success, 1 bad command line or any
errors.InputError (configuration, scenario or size), 2 internal invariant
failure during a run, 3 I/O or unexpected internal error.  The tolerance used
for Schmidt-rank cutoffs is the --tol flag, else qudit.SCHMIDT_TOL (1e-8); the
scenario file and the command line are the only inputs, so the same ones give
the same report bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

from . import __version__
from .adversary import PRESETS, compile_schedule, script_from_obj
from .analysis import TEMPLATES, StageDiagnostics, _entry, feasibility_search, render_report
from .errors import ConfigError, InputError, InvariantViolation
from .protocol import (
    STAGES,
    ProtocolConfig,
    RoundTranscript,
    _validate_script,
    control_check,
    run_session,
)
from .qudit import SCHMIDT_TOL, _check_tol
from .serialize import Raw, _string, dumps, flat, format_float, nested, scalar, template

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_INTERNAL = 3


def _is_int(value, low: int, high: float = math.inf) -> bool:
    """A JSON integer (not a bool, not a float such as 2.0) in low..high."""
    return type(value) is int and low <= value <= high


def _ints(value, low: int) -> bool:
    return isinstance(value, list) and all(_is_int(v, low) for v in value)


def _only(value, key: str) -> bool:
    """An object holding exactly one field, key."""
    return isinstance(value, dict) and value.keys() == {key}


# every scenario field: the check its value must pass, and what the check wants
_FIELDS = {
    "schema_version": (lambda v: v == "scenario/1", 'exactly "scenario/1"'),
    "d": (lambda v: _is_int(v, 2, 16), "an integer in 2..16"),
    "rounds": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "keys": (lambda v: _ints(v, 0) or (_only(v, "seed") and _is_int(v["seed"], 0)),
             'a list of integers >= 0 or {"seed": <integer >= 0>}'),
    "control_rounds": (lambda v: _ints(v, 1), "a list of integers >= 1"),
    "eve_registers": (lambda v: _is_int(v, 0, 5), "an integer in 0..5"),
    "seed": (lambda v: _is_int(v, 0), "an integer >= 0"),
    "attack": (lambda v: (_only(v, "preset") and v["preset"] in PRESETS)
               or (_only(v, "script") and isinstance(v["script"], dict)),
               f'{{"preset": <one of {", ".join(PRESETS)}>}} or {{"script": <object>}}'),
    "diagnostics": (lambda v: isinstance(v, list) and all(s in STAGES for s in v),
                    f"a list of names from {', '.join(STAGES)}"),
    "template": (lambda v: isinstance(v, str) and v in TEMPLATES,
                 f"one of {', '.join(TEMPLATES)}"),
    "output": (lambda v: isinstance(v, str), "a string"),
}


def load_scenario(path: str) -> dict:
    """Parse a scenario file and check each field against _FIELDS; integers must be
    JSON integers (2, not 2.0).  Raises ConfigError naming every bad field, and the
    file when it is not UTF-8 JSON: NaN, Infinity and a field named twice in one
    object are refused, not read as a number or the last value."""
    def unique(pairs: list) -> dict:
        fields = dict(pairs)
        if len(fields) < len(pairs):
            names = [name for name, _ in pairs]
            twice = next(name for i, name in enumerate(names) if name in names[:i])
            raise ConfigError(f"{path}: field {twice!r} appears more than once")
        return fields

    def constant(name: str):
        raise ConfigError(f"{path}: {name} is not a JSON number")

    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        scenario = json.loads(raw.decode("utf-8"), object_pairs_hook=unique,
                              parse_constant=constant)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte {exc.start} "
                          f"(0x{raw[exc.start]:02x}) is {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(scenario, dict):
        raise ConfigError(f"{path}: a scenario must be a JSON object")
    problems = [f"{name}: required" for name in ("schema_version", "d") if name not in scenario]
    for name, value in scenario.items():
        if name not in _FIELDS:
            problems.append(f"{name}: unknown field")
        elif not _FIELDS[name][0](value):
            problems.append(f"{name}: must be {_FIELDS[name][1]}, got {value!r}")
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))
    return scenario


def _resolve_tol(flag_value: float | None) -> float:
    """The Schmidt-rank cutoff, refused unless it is a finite number above 0."""
    if flag_value is None:
        return SCHMIDT_TOL
    try:
        _check_tol(flag_value)
    except ValueError as exc:
        raise ConfigError(f"--tol = {flag_value!r} is not a finite number above 0") from exc
    return flag_value


def _checked_session(scenario: dict, seed_flag: int | None = None,
                     needed: bool = False) -> tuple | None:
    """The session check of every command: when any session field is present, or run
    needs one, build the session run would build and check its script.  Returns
    (config, script, attack name), or None when there is no session to check."""
    if not needed and not scenario.keys() & {"rounds", "keys", "control_rounds", "attack"}:
        return None
    for name in ("rounds", "keys"):
        if name not in scenario:
            raise ConfigError(f'scenario needs "{name}" to run a session')
    keys = scenario["keys"]
    config = ProtocolConfig(
        d=scenario["d"],
        rounds=scenario["rounds"],
        keys=tuple(keys) if isinstance(keys, list) else None,
        key_seed=keys["seed"] if isinstance(keys, dict) else None,
        control_rounds=frozenset(scenario.get("control_rounds", [])),
        eve_registers=scenario.get("eve_registers", 1),
        seed=seed_flag if seed_flag is not None else scenario.get("seed", 0),
    )
    attack = scenario.get("attack", {"preset": "none"})
    if "preset" in attack:
        attack_name = attack["preset"]
        script = compile_schedule(attack_name, config)
    else:
        attack_name = "script"
        script = script_from_obj(attack["script"])
    _validate_script(config, script)
    return config, script, attack_name


def _write_output(text: str, args, scenario: dict) -> None:
    path = args.out or scenario.get("output")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    _checked_session(scenario)
    if "template" in scenario:  # the search's entry check, so validate refuses what it does
        _entry(scenario["template"], scenario["d"], None, SCHMIDT_TOL)
    print(f"{args.scenario}: ok")
    return EXIT_OK


def _text_report(config, attack_name, tol, transcripts, check) -> str:
    lines = [
        f"d={config.d} rounds={config.rounds} seed={config.seed} "
        f"attack={attack_name} tol={format_float(tol)}",
        "round  mode     sent  decoded  rank_e  entropy_k",
    ]
    for t in transcripts:
        rank = t.diagnostics["round_end"].schmidt_ranks.get("e|ab")
        entropy = t.diagnostics["post_encode"].entropy_k
        rank_text = "-" if rank is None else str(rank)
        # + 0.0 folds -0.0 so a collapsed carrier prints 0.000000
        entropy_text = "-" if entropy is None else f"{entropy + 0.0:.6f}"
        lines.append(
            f"{t.round_index:5d}  {t.mode:<7s}  {t.key_sent:4d}  {t.key_decoded:7d}  "
            f"{rank_text:>6}  {entropy_text}")
    lines.append(
        f"control: checked={check.checked} mismatches={check.mismatches} "
        f"rate={check.rate:.6f}")
    return "\n".join(lines) + "\n"


def _json_rows(transcripts) -> Raw:
    """The report's transcript list, as dumps writes [t.to_json_dict() for t in
    transcripts] at level 1, one template per row.  The templates take their keys
    from those reference documents.  A stage entry is rendered once per (stage,
    spectrum, entropy, decode_ok, ranks) and keeps a slot for its round: rounds whose
    stage is on the same step-table row share one stored snapshot."""
    probe = StageDiagnostics(0, "", None, None, {}, None)
    plain, full = (template(tuple(RoundTranscript(0, "", 0, 0, (), diag).to_json_dict()), 2)
                   for diag in ({}, {"": probe}))
    entry = template(tuple(probe.to_json_dict()), 4)
    entries, rows = {}, []
    for r, mode, sent, decoded, records, diagnostics in transcripts:
        records = nested([flat((str(i), _string(reg), str(v))) for i, reg, v in records], 3)
        if not diagnostics:
            rows.append(plain % (r, _string(mode), sent, decoded, records))
            continue
        stages = []
        for i, stage, spectrum, entropy, ranks, ok in diagnostics.values():
            key = stage, spectrum, entropy, ok, *ranks.items()
            text = entries.get(key)
            if text is None:
                texts = (_string(stage),
                         scalar(None) if spectrum is None else flat(map(format_float, spectrum)),
                         scalar(entropy), template(tuple(ranks), 5) % tuple(ranks.values()),
                         scalar(ok))
                text = entries[key] = entry % ("%s", *(t.replace("%", "%%") for t in texts))
            stages.append(text % i)
        rows.append(full % (r, _string(mode), sent, decoded, records,
                            template(tuple(diagnostics), 3) % tuple(stages)))
    return Raw(nested(rows, 1))


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    tol = _resolve_tol(args.tol)
    config, script, attack_name = _checked_session(scenario, args.seed, needed=True)
    requested = tuple(scenario.get("diagnostics", []))
    stages = requested
    if args.format == "text":
        stages = tuple(dict.fromkeys(requested + ("post_encode", "round_end")))
    transcripts = run_session(config, script, diagnostics=stages, schmidt_tol=tol)
    check = control_check(transcripts, config.control_rounds)

    if args.format == "text":
        text = _text_report(config, attack_name, tol, transcripts, check)
    else:
        doc = {
            "schema_version": "transcript/1",
            "d": config.d,
            "rounds": config.rounds,
            "seed": config.seed,
            "tolerance": tol,
            "attack": attack_name,
            "transcripts": _json_rows(transcripts),
            "control_check": {
                "checked": check.checked,
                "mismatches": check.mismatches,
                "rate": check.rate,
            },
        }
        text = dumps(doc)
    _write_output(text, args, scenario)
    return EXIT_OK


def cmd_search(args) -> int:
    scenario = load_scenario(args.scenario)
    tol = _resolve_tol(args.tol)
    if "template" not in scenario:
        raise ConfigError('scenario needs a "template" to search')
    _checked_session(scenario)
    report = feasibility_search(
        scenario["template"], scenario["d"], max_depth=args.depth, rank_tol=tol)
    _write_output(render_report(report), args, scenario)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, a bad command line; 2 is a broken invariant."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkdsim",
        description="Simulate a reusable-carrier qudit QKD protocol and probe attacks on it.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario")
    p_validate.set_defaults(handler=cmd_validate)

    p_run = sub.add_parser("run", help="run a protocol session")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="overrides the scenario seed")
    p_run.add_argument("--out", default=None, help="report path (default: scenario output or stdout)")
    p_run.add_argument("--format", choices=("json", "text"), default="json")
    p_run.add_argument("--tol", type=float, default=None, help="Schmidt-rank cutoff")
    p_run.set_defaults(handler=cmd_run)

    p_search = sub.add_parser("search", help="search for eavesdropper exit sequences")
    p_search.add_argument("scenario")
    p_search.add_argument("--depth", type=int, default=1, help="max gate-sequence length")
    p_search.add_argument("--out", default=None)
    p_search.add_argument("--tol", type=float, default=None, help="Schmidt-rank cutoff")
    p_search.set_defaults(handler=cmd_search)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call of a process, not at
    import, and reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last resort, keep the exit contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
