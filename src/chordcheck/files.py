"""Scenario and trace file formats.

Both formats are text, line-oriented, and human-diffable. A scenario is a
single JSON document describing an initial network (plus optional
scripted events and per-command configuration blocks). A trace is
line-delimited JSON: a header, one self-describing record per step, and a
closing verdict line, so files can be appended while a run progresses.

Digests are computed over canonical serializations that exclude volatile
header fields (the creation timestamp), so identical runs produce
byte-identical files modulo that field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import IO, Any

from . import __version__
from .errors import ScenarioFormatError, TraceFormatError
from .explorer import Trace, TraceRecord
from .idspace import IdSpace
from .protocol import CHURN_POLICIES, Step, StepKind
from .state import GlobalState, NodeState

TRACE_FORMAT = "chordcheck-trace/1"
SCENARIO_VERSION = "1"

_KIND_NAMES = {
    StepKind.JOIN: "join",
    StepKind.FAIL: "fail",
    StepKind.STABILIZE_FROM_SUCCESSOR: "stabilize_from_successor",
    StepKind.STABILIZE_FROM_PREDECESSOR: "stabilize_from_predecessor",
    StepKind.RECTIFY: "rectify",
}
_KINDS_BY_NAME = {name: kind for kind, name in _KIND_NAMES.items()}


def _dump(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- steps and states --------------------------------------------------------


def step_to_doc(step: Step) -> dict:
    doc: dict[str, Any] = {"kind": _KIND_NAMES[step.kind], "actor": step.actor}
    if step.arg is not None:
        doc["arg"] = step.arg
    if step.kind == StepKind.FAIL and step.forced:
        doc["forced"] = True
    return doc


def _is_int(value: object) -> bool:
    """An integer, and not a JSON true/false (``bool`` subclasses ``int``)."""
    return type(value) is int


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioFormatError(message)


def step_from_doc(doc: dict) -> Step:
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"a step must be an object, got {doc!r}")
    name = doc.get("kind")
    if not isinstance(name, str) or name not in _KINDS_BY_NAME:
        raise ScenarioFormatError(f"unknown step kind {name!r}")
    kind = _KINDS_BY_NAME[name]
    actor = doc.get("actor")
    if not _is_int(actor):
        raise ScenarioFormatError(f"step actor must be an integer, got {actor!r}")
    arg = doc.get("arg")
    if arg is not None and not _is_int(arg):
        raise ScenarioFormatError(f"step arg must be an integer or absent, got {arg!r}")
    if kind in (StepKind.JOIN, StepKind.RECTIFY) and arg is None:
        raise ScenarioFormatError(f"{name} steps require an 'arg' identifier")
    if kind in (StepKind.FAIL, StepKind.STABILIZE_FROM_SUCCESSOR) and arg is not None:
        raise ScenarioFormatError(f"{name} steps take no 'arg'")
    if kind != StepKind.FAIL and "forced" in doc:
        raise ScenarioFormatError(f"{name} steps take no 'forced'")
    forced = doc.get("forced", False)
    if type(forced) is not bool:
        raise ScenarioFormatError(f"step forced must be true or false, got {forced!r}")
    return Step(kind, actor, arg, forced=forced)


def _member_to_doc(node: NodeState) -> dict:
    return {"id": node.ident, "prdc": node.prdc, "succ_list": list(node.succ_list)}


def _members_from_doc(recs: object, where: str, space: IdSpace, r: int) -> tuple[NodeState, ...]:
    """The member records of a scenario's ``init`` list or of a trace
    state, checked field by field; ``where`` names the list in errors."""
    _expect(isinstance(recs, list), f"field {where!r} must be a list of member records")
    nodes = []
    seen: set[int] = set()
    for i, rec in enumerate(recs):
        at = f"{where}[{i}]"
        _expect(isinstance(rec, dict), f"{at} must be an object")
        for key in ("id", "prdc", "succ_list"):
            _expect(key in rec, f"{at} is missing field {key!r}")
        ident, prdc, succ = rec["id"], rec["prdc"], rec["succ_list"]
        _expect(_is_int(ident) and space.contains(ident),
                f"{at}.id {ident!r} outside [0, {space.size})")
        _expect(ident not in seen, f"{at}.id {ident} duplicates an earlier member")
        seen.add(ident)
        _expect(_is_int(prdc) and space.contains(prdc),
                f"{at}.prdc {prdc!r} outside [0, {space.size})")
        _expect(isinstance(succ, list) and len(succ) == r,
                f"{at}.succ_list must have exactly r={r} entries, got {succ!r}")
        for e in succ:
            _expect(_is_int(e) and space.contains(e),
                    f"{at}.succ_list entry {e!r} outside [0, {space.size})")
        nodes.append(NodeState(ident, prdc, tuple(succ)))
    return tuple(nodes)


def state_to_doc(state: GlobalState) -> dict:
    return {
        "members": [_member_to_doc(n) for n in state.members],
        "pending_stabilize": [list(e) for e in state.pending_stabilize],
        "pending_notify": [list(e) for e in state.pending_notify],
    }


def state_from_doc(doc: dict, space: IdSpace, r: int, where: str) -> GlobalState:
    """The snapshot that a trace header's field ``where`` holds."""
    members = _members_from_doc(doc["members"], f"{where}.members", space, r)
    pending_stabilize = tuple(tuple(e) for e in doc.get("pending_stabilize", ()))
    pending_notify = tuple(tuple(e) for e in doc.get("pending_notify", ()))
    for ident in (i for entry in pending_stabilize + pending_notify for i in entry):
        if not _is_int(ident):
            raise ValueError(f"identifiers must be integers, got {ident!r}")
    return GlobalState(space, r, members, pending_stabilize, pending_notify)


# -- scenarios ----------------------------------------------------------------


@dataclass
class Scenario:
    space: IdSpace
    r: int
    initial: GlobalState
    events: list[Step] = field(default_factory=list)
    explore_config: dict = field(default_factory=dict)
    simulate_config: dict = field(default_factory=dict)
    converge_config: dict = field(default_factory=dict)
    digest: str = ""

    def starting_state(self) -> GlobalState:
        """The initial network with any scripted events applied."""
        from .protocol import apply_step

        state = self.initial
        for step in self.events:
            state = apply_step(state, step)
        return state


def scenario_digest(doc: dict) -> str:
    return hashlib.sha256(_dump(doc).encode("ascii")).hexdigest()


# Per-command configuration blocks: setting -> expected JSON type.
# fairness_window may also be null, meaning "default".
_CONFIG_FIELDS = {
    "explore": {"max_depth": int, "max_states": int, "churn": str,
                "allow_invalid_initial": bool},
    "simulate": {"steps": int, "seed": int, "fairness_window": int, "churn": str},
    "converge": {"step_cap": int, "seed": int, "fairness_window": int},
}


def _config_block(doc: dict, name: str) -> dict:
    block = doc.get(name)
    _expect(block is None or isinstance(block, dict), f"field {name!r} must be an object, got {block!r}")
    block = block or {}  # an absent or null block gives no settings
    fields = _CONFIG_FIELDS[name]
    for key, value in block.items():
        _expect(key in fields, f"unknown {name} setting {key!r}")
        # type(...) is, not isinstance: JSON true/false must not pass as integers
        _expect(type(value) is fields[key] or (value is None and key == "fairness_window"),
                f"{name}.{key} must be {fields[key].__name__}, got {value!r}")
        _expect(key != "churn" or value in CHURN_POLICIES,
                f"{name}.churn must be one of {list(CHURN_POLICIES)}, got {value!r}")
    return dict(block)


def scenario_from_doc(doc: dict, m_override: int | None = None, r_override: int | None = None) -> Scenario:
    _expect(isinstance(doc, dict), "scenario must be a JSON object")
    _expect(doc.get("version") == SCENARIO_VERSION,
            f"unsupported scenario version {doc.get('version')!r}")
    m = m_override if m_override is not None else doc.get("m")
    r = r_override if r_override is not None else doc.get("r")
    _expect(_is_int(m), f"field 'm' must be an integer, got {m!r}")
    _expect(_is_int(r) and r >= 1, f"field 'r' must be a positive integer, got {r!r}")
    try:
        space = IdSpace(m)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None

    init = doc.get("init")
    _expect(isinstance(init, list) and init, "field 'init' must be a non-empty list of member records")
    nodes = _members_from_doc(init, "init", space, r)

    allow_forced = doc.get("allow_forced_fail", False)
    _expect(type(allow_forced) is bool,
            f"field 'allow_forced_fail' must be true or false, got {allow_forced!r}")
    raw_events = doc.get("events")
    _expect(raw_events is None or isinstance(raw_events, list),
            f"field 'events' must be a list of steps, got {raw_events!r}")
    events = []
    for i, ev in enumerate(raw_events or []):
        try:
            step = step_from_doc(ev)
        except ScenarioFormatError as exc:
            raise ScenarioFormatError(f"events[{i}]: {exc}") from None
        _expect(space.contains(step.actor), f"events[{i}].actor outside the identifier space")
        _expect(step.arg is None or space.contains(step.arg),
                f"events[{i}].arg outside the identifier space")
        _expect(not step.forced or allow_forced,
                f"events[{i}] is a forced fail but the scenario does not set allow_forced_fail")
        events.append(step)

    return Scenario(
        space=space,
        r=r,
        initial=GlobalState(space, r, nodes),
        events=events,
        explore_config=_config_block(doc, "explore"),
        simulate_config=_config_block(doc, "simulate"),
        converge_config=_config_block(doc, "converge"),
        digest=scenario_digest(doc),
    )


def load_scenario(path: str, m_override: int | None = None, r_override: int | None = None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: not valid JSON ({exc.msg})"
        ) from None
    return scenario_from_doc(doc, m_override, r_override)


# -- traces -------------------------------------------------------------------


def _record_to_doc(rec: TraceRecord) -> dict:
    return {
        "type": "record",
        "index": rec.index,
        "step": step_to_doc(rec.step),
        "state_digest": rec.digest,
        "flags": dict(rec.flags),
        "cumulative_error": rec.cumulative_error,
    }


def _record_from_doc(doc: dict) -> TraceRecord:
    index, digest, flags = doc["index"], doc["state_digest"], doc["flags"]
    cumulative = doc["cumulative_error"]
    where = f"record {index!r}"
    if not _is_int(index):
        raise TraceFormatError(f"{where}: 'index' must be an integer")
    if not isinstance(digest, str):
        raise TraceFormatError(f"{where}: 'state_digest' must be a string")
    if not isinstance(flags, dict) or not all(type(v) is bool for v in flags.values()):
        raise TraceFormatError(f"{where}: 'flags' must be an object of true/false values")
    if not _is_int(cumulative):
        raise TraceFormatError(f"{where}: 'cumulative_error' must be an integer")
    return TraceRecord(
        index=index,
        step=step_from_doc(doc["step"]),
        digest=digest,
        flags=dict(flags),
        cumulative_error=cumulative,
    )


def write_trace(trace: Trace, fh: IO[str], scenario_digest: str | None = None) -> None:
    header: dict[str, Any] = {
        "type": "header",
        "format": TRACE_FORMAT,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool_version": __version__,
        "kind": trace.kind,
        "m": trace.initial.space.m,
        "r": trace.initial.r,
        "initial": state_to_doc(trace.initial),
    }
    if scenario_digest:
        header["scenario_digest"] = scenario_digest
    if trace.seed_state is not None:
        header["seed_state"] = state_to_doc(trace.seed_state)
        header["prelude"] = [_record_to_doc(rec) for rec in trace.prelude]
    fh.write(_dump(header) + "\n")
    for rec in trace.records:
        fh.write(_dump(_record_to_doc(rec)) + "\n")
    fh.write(_dump({"type": "verdict", "verdict": trace.verdict, "meta": trace.meta}) + "\n")


def save_trace(trace: Trace, path: str, scenario_digest: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(trace, fh, scenario_digest)


def read_trace(fh: IO[str]) -> Trace:
    lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise TraceFormatError("trace file is empty")
    docs = []
    for i, line in enumerate(lines, start=1):
        try:
            docs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {i}: not valid JSON ({exc.msg})") from None
        if not isinstance(docs[-1], dict):
            raise TraceFormatError(f"line {i}: not a JSON object")
    header = docs[0]
    if header.get("type") != "header" or header.get("format") != TRACE_FORMAT:
        raise TraceFormatError("first line must be a trace header")
    try:
        m, r = header["m"], header["r"]
        if not (_is_int(m) and _is_int(r)):
            raise TraceFormatError(f"header 'm' and 'r' must be integers, got {m!r} and {r!r}")
        space = IdSpace(m)
        initial = state_from_doc(header["initial"], space, r, "initial")
        seed_state = None
        prelude = []
        if "seed_state" in header or "prelude" in header:
            # converge writes both or neither, and a prelude only when it
            # drained something
            if "seed_state" not in header or not header.get("prelude"):
                raise TraceFormatError("header must carry 'seed_state' and a non-empty "
                                       "'prelude' together, or neither")
            seed_state = state_from_doc(header["seed_state"], space, r, "seed_state")
            prelude = [_record_from_doc(d) for d in header["prelude"]]
        records = []
        closing = None
        for i, doc in enumerate(docs[1:], start=2):
            if closing is not None:
                raise TraceFormatError(f"line {i}: nothing may follow the verdict line")
            if doc.get("type") == "record":
                records.append(_record_from_doc(doc))
            elif doc.get("type") == "verdict":
                closing = doc
            else:
                raise TraceFormatError(f"unknown line type {doc.get('type')!r}")
        if closing is None:
            raise TraceFormatError("trace has no verdict line (truncated?)")
        for where, recs in (("prelude", prelude), ("records", records)):
            for pos, rec in enumerate(recs):
                if rec.index != pos:
                    raise TraceFormatError(f"{where}[{pos}] carries index {rec.index}; "
                                           f"indices must run 0..{len(recs) - 1}")
        verdict = closing.get("verdict")
        meta = closing.get("meta", {})
        kind = header.get("kind")
        if not isinstance(verdict, str):
            raise TraceFormatError(f"the verdict line must carry a string 'verdict', got {verdict!r}")
        if not isinstance(meta, dict):
            raise TraceFormatError(f"the verdict line's 'meta' must be an object, got {meta!r}")
        if not isinstance(kind, str):
            raise TraceFormatError(f"header 'kind' must be a string, got {kind!r}")
    except TraceFormatError:
        raise
    except (KeyError, TypeError, ValueError, ScenarioFormatError) as exc:
        raise TraceFormatError(f"malformed trace: {exc}") from None
    return Trace(
        initial=initial,
        records=records,
        verdict=verdict,
        kind=kind,
        meta=meta,
        seed_state=seed_state,
        prelude=prelude,
    )


def load_trace(path: str) -> Trace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_trace(fh)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
