"""Command-line interface.

Subcommands: ``check``, ``explore``, ``simulate``, ``converge``,
``repro``, ``replay``. Data (reports, summaries, traces) goes to stdout
in JSON/JSON-lines form; diagnostics go to stderr. Exit codes are a
stable contract:

    0  success
    1  property violation (invalid network, invariant counterexample,
       replay mismatch, or a flaw reproduction that unexpectedly passed)
    2  not converged
    3  state cap hit (inconclusive exploration)
    4  scenario or trace schema error
    5  usage error
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, Sequence, TextIO

from .errors import (
    InvalidInitialStateError,
    ProtocolError,
    ReplayMismatchError,
    ScenarioFormatError,
    TraceFormatError,
)
from .explorer import ExploreConfig, Schedule, Trace, converge, explore, replay, simulate
from .files import Scenario, load_scenario, load_trace, save_trace, write_trace
from .idspace import MAX_BITS
from .properties import check_all, valid_initial
from .protocol import CHURN_POLICIES
from .repro import SCENARIO_NAMES, run_scenario
from .state import GlobalState

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_NOT_CONVERGED = 2
EXIT_CAP_HIT = 3
EXIT_SCHEMA = 4
EXIT_USAGE = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to our exit code
        raise _UsageError(message)


@contextlib.contextmanager
def _stdout() -> Iterator[TextIO]:
    """Stdout for one piece of data, flushed at the end.

    If the reader has gone (``chordcheck repro fig3 | head -1``), the rest
    of the data is dropped: stdout is pointed at the null device, so later
    writes and the flush at interpreter exit do not fail again, and the
    command goes on to return its own exit code.
    """
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # a stdout with no descriptor
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _emit(doc) -> None:
    with _stdout() as out:
        out.write(json.dumps(doc, sort_keys=True) + "\n")


def _diag(message: str) -> None:
    sys.stderr.write(f"chordcheck: {message}\n")


def _output_trace(trace: Trace, out: str | None, scenario_digest: str | None = None) -> None:
    if out:
        save_trace(trace, out, scenario_digest)
        _diag(f"trace written to {out}")
    else:
        with _stdout() as fh:
            write_trace(trace, fh, scenario_digest)


def _load(args) -> Scenario:
    if args.m is not None and not 1 <= args.m <= MAX_BITS:
        raise _UsageError(f"--m must be in 1..{MAX_BITS}, got {args.m}")
    return load_scenario(args.scenario, m_override=args.m)


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--m", type=int, default=None, help="override the identifier bit width")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chordcheck", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate every property of a scenario's network")
    _add_scenario_args(p)

    p = sub.add_parser("explore", help="bounded breadth-first invariant check")
    _add_scenario_args(p)
    p.add_argument("--depth", type=int, default=None, help="maximum interleaving depth")
    p.add_argument("--max-states", type=int, default=None, help="visited-state cap")
    p.add_argument("--churn", choices=CHURN_POLICIES, default=None)
    p.add_argument("--allow-invalid-initial", action="store_true",
                   help="explore even if the scenario is not a valid initial network")
    p.add_argument("--out", default=None, help="write the counterexample trace here")

    p = sub.add_parser("simulate", help="seeded fair simulation under a churn policy")
    _add_scenario_args(p)
    p.add_argument("--steps", type=int, default=None, help="number of scheduler rounds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fairness-window", type=int, default=None)
    p.add_argument("--churn", choices=CHURN_POLICIES, default=None)
    p.add_argument("--out", default=None, help="write the trace here")

    p = sub.add_parser("converge", help="churn-free fair run to the ideal network")
    _add_scenario_args(p)
    p.add_argument("--steps", type=int, default=None, help="step cap before giving up")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fairness-window", type=int, default=None)
    p.add_argument("--out", default=None, help="write the trace here")

    p = sub.add_parser("repro", help="run a scripted flaw reproduction")
    p.add_argument("name", choices=list(SCENARIO_NAMES),
                   help="fig3: size-one initialization strands its appendages; "
                        "fig4: six-property trial invariant broken by one failure")
    p.add_argument("--out", default=None, help="write the trace here")

    p = sub.add_parser("replay", help="re-execute a trace and verify every digest")
    p.add_argument("trace", help="path to a trace file")

    return parser


def cmd_check(args) -> int:
    scenario = _load(args)
    state = scenario.starting_state()
    report = check_all(state)
    ok = valid_initial(state)
    _emit(
        {
            "m": state.space.m,
            "r": state.r,
            "flags": report.flags,
            "witnesses": report.witnesses,
            "valid_initial": ok,
        }
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def _given(block: dict, **flags) -> dict:
    """The settings named by ``flags`` that a flag (any value but None) or
    the scenario's config ``block`` gives, a flag over the block. A
    setting neither gives is left out, so the library's default applies."""
    given = {}
    for name, value in flags.items():
        if value is not None:
            given[name] = value
        elif name in block:
            given[name] = block[name]
    return given


def cmd_explore(args) -> int:
    scenario = _load(args)
    block = scenario.explore_config
    try:
        cfg = ExploreConfig(
            require_valid_initial=not (args.allow_invalid_initial or block.get("allow_invalid_initial", False)),
            **_given(block, max_depth=args.depth, max_states=args.max_states, churn=args.churn),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    result = explore(scenario.starting_state(), cfg)
    if result.trace is not None:
        _output_trace(result.trace, args.out, scenario.digest)
    summary = {
        "verdict": result.verdict,
        "states_visited": result.states_visited,
        "transitions": result.transitions,
        "depth_reached": result.depth_reached,
        "frontier_size": result.frontier_size,
    }
    if args.out or result.trace is None:
        _emit(summary)
    if result.verdict == "ok":
        return EXIT_OK
    if result.verdict == "cap-hit":
        return EXIT_CAP_HIT
    return EXIT_VIOLATION


def _schedule(args, block: dict, state: GlobalState) -> Schedule:
    # a schedule needs a seed, and the library has no default for it
    schedule = Schedule(**{"seed": 0, **_given(block, seed=args.seed, fairness_window=args.fairness_window)})
    try:
        schedule.window_for(state)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return schedule


def cmd_simulate(args) -> int:
    scenario = _load(args)
    block = scenario.simulate_config
    state = scenario.starting_state()
    # a run needs a length, and the library has no default for it
    settings = {"steps": 100, **_given(block, steps=args.steps, churn=args.churn)}
    try:
        trace = simulate(state, _schedule(args, block, state), **settings)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _output_trace(trace, args.out, scenario.digest)
    return EXIT_OK


def cmd_converge(args) -> int:
    scenario = _load(args)
    state = scenario.starting_state()
    if not valid_initial(state):
        _diag("scenario is not a valid initial network; run `chordcheck check` for details")
        return EXIT_VIOLATION
    block = scenario.converge_config
    try:
        trace = converge(state, _schedule(args, block, state), **_given(block, step_cap=args.steps))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _output_trace(trace, args.out, scenario.digest)
    return EXIT_OK if trace.verdict == "converged" else EXIT_NOT_CONVERGED


def cmd_repro(args) -> int:
    trace = run_scenario(args.name)
    _output_trace(trace, args.out)
    if trace.verdict == "ok":
        return EXIT_OK
    _diag(f"{args.name}: the expected violation did not reproduce")
    return EXIT_VIOLATION


def cmd_replay(args) -> int:
    trace = load_trace(args.trace)
    reports = replay(trace)
    _emit(
        {
            "verdict": "replay-ok",
            "records": len(trace.records),
            "prelude_records": len(trace.prelude),
            "final_flags": reports[-1].flags if reports else None,
        }
    )
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "explore": cmd_explore,
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "repro": cmd_repro,
    "replay": cmd_replay,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _diag(f"usage error: {exc}")
        return EXIT_USAGE
    except (ScenarioFormatError, TraceFormatError) as exc:
        _diag(str(exc))
        return EXIT_SCHEMA
    except ReplayMismatchError as exc:
        _diag(f"replay mismatch: {exc}")
        return EXIT_VIOLATION
    except InvalidInitialStateError as exc:
        _diag(str(exc))
        return EXIT_VIOLATION
    except ProtocolError as exc:
        _diag(f"protocol error: {exc}")
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
