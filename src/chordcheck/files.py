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
from .protocol import CHURN_POLICIES, Step, StepKind, apply_step
from .state import GlobalState, NodeState

TRACE_FORMAT = "chordcheck-trace/1"
SCENARIO_VERSION = "1"

_KIND_NAMES = {kind: kind.name.lower() for kind in StepKind}
_KINDS_BY_NAME = {name: kind for kind, name in _KIND_NAMES.items()}


def _dump(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- steps and states --------------------------------------------------------


def step_to_doc(step: Step) -> dict:
    doc: dict[str, Any] = {"kind": _KIND_NAMES[step.kind], "actor": step.actor}
    if step.arg is not None:
        doc["arg"] = step.arg
    if step.forced and step.kind == StepKind.FAIL:
        doc["forced"] = True
    return doc


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioFormatError(message)


_NEEDS_ARG = frozenset({StepKind.JOIN, StepKind.STABILIZE_FROM_PREDECESSOR, StepKind.RECTIFY})
_TAKES_NO_ARG = frozenset({StepKind.FAIL, StepKind.STABILIZE_FROM_SUCCESSOR})


def step_from_doc(doc: dict) -> Step:
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"a step must be an object, got {doc!r}")
    name = doc.get("kind")
    kind = _KINDS_BY_NAME.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ScenarioFormatError(f"unknown step kind {name!r}")
    actor = doc.get("actor")
    if type(actor) is not int:
        raise ScenarioFormatError(f"step actor must be an integer, got {actor!r}")
    arg = doc.get("arg")
    if arg is None:
        if kind in _NEEDS_ARG:
            raise ScenarioFormatError(f"{name} steps require an 'arg' identifier")
    elif type(arg) is not int:
        raise ScenarioFormatError(f"step arg must be an integer or absent, got {arg!r}")
    elif kind in _TAKES_NO_ARG:
        raise ScenarioFormatError(f"{name} steps take no 'arg'")
    if "forced" not in doc:
        return Step(kind, actor, arg)
    if kind is not StepKind.FAIL:
        raise ScenarioFormatError(f"{name} steps take no 'forced'")
    forced = doc["forced"]
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
        _expect(type(ident) is int and space.contains(ident),
                f"{at}.id {ident!r} outside [0, {space.size})")
        _expect(ident not in seen, f"{at}.id {ident} duplicates an earlier member")
        seen.add(ident)
        _expect(type(prdc) is int and space.contains(prdc),
                f"{at}.prdc {prdc!r} outside [0, {space.size})")
        _expect(isinstance(succ, list) and len(succ) == r,
                f"{at}.succ_list must have exactly r={r} entries, got {succ!r}")
        for e in succ:
            _expect(type(e) is int and space.contains(e),
                    f"{at}.succ_list entry {e!r} outside [0, {space.size})")
        nodes.append(NodeState(ident, prdc, tuple(succ)))
    return tuple(nodes)


def state_to_doc(state: GlobalState) -> dict:
    return {
        "members": [_member_to_doc(n) for n in state.members],
        "pending_stabilize": [list(e) for e in state.pending_stabilize],
        "pending_notify": [list(e) for e in state.pending_notify],
    }


def _pending_from_doc(entries: object, where: str, space: IdSpace) -> tuple[tuple[int, int], ...]:
    """The pending entries of a trace state's field ``where``, each a list
    of two identifiers of ``space``; ``where`` names the field in errors."""
    _expect(isinstance(entries, list), f"field {where!r} must be a list of pairs, got {entries!r}")
    pairs: dict[tuple[int, int], None] = {}  # in file order; a set lookup finds a repeat
    for i, entry in enumerate(entries):
        _expect(isinstance(entry, list) and len(entry) == 2 and all(type(x) is int for x in entry),
                f"{where}[{i}] must be a list of two integers, got {entry!r}")
        _expect(all(map(space.contains, entry)),
                f"{where}[{i}] holds an identifier outside [0, {space.size}), got {entry!r}")
        pair = (entry[0], entry[1])
        _expect(pair not in pairs, f"{where}[{i}] repeats an earlier entry {entry!r}")
        pairs[pair] = None
    return tuple(pairs)


# -- scenarios ----------------------------------------------------------------


@dataclass
class Scenario:
    initial: GlobalState
    events: list[Step] = field(default_factory=list)
    explore_config: dict = field(default_factory=dict)
    simulate_config: dict = field(default_factory=dict)
    converge_config: dict = field(default_factory=dict)
    digest: str = ""

    def starting_state(self) -> GlobalState:
        """The initial network with any scripted events applied."""
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


def scenario_from_doc(doc: dict, m_override: int | None = None) -> Scenario:
    _expect(isinstance(doc, dict), "scenario must be a JSON object")
    _expect(doc.get("version") == SCENARIO_VERSION,
            f"unsupported scenario version {doc.get('version')!r}")
    m = m_override if m_override is not None else doc.get("m")
    r = doc.get("r")
    _expect(type(m) is int, f"field 'm' must be an integer, got {m!r}")
    _expect(type(r) is int and r >= 1, f"field 'r' must be a positive integer, got {r!r}")
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
        initial=GlobalState(space, r, nodes),
        events=events,
        explore_config=_config_block(doc, "explore"),
        simulate_config=_config_block(doc, "simulate"),
        converge_config=_config_block(doc, "converge"),
        digest=scenario_digest(doc),
    )


def load_scenario(path: str, m_override: int | None = None) -> Scenario:
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
    except (ValueError, RecursionError) as exc:  # an overlong integer, or deep nesting
        raise ScenarioFormatError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_doc(doc, m_override)


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


_BOOL = frozenset({bool})


def _check_record(rec: TraceRecord, pos: int) -> None:
    """Raise ``ValueError`` if :func:`read_trace` would refuse ``rec`` as
    the record at position ``pos``. Every record is checked, since the text
    memos of :func:`write_trace` are keyed by value and ``1 == True``."""
    index, step, digest, flags, cumulative = rec
    if type(index) is not int or index != pos:
        raise ValueError(f"record {pos}: 'index' must be the integer {pos}, got {index!r}")
    if not isinstance(digest, str):
        raise ValueError(f"record {pos}: 'state_digest' must be a string, got {digest!r}")
    if not _BOOL.issuperset(map(type, flags.values())):
        raise ValueError(f"record {pos}: every flag must be true or false, got {flags!r}")
    if type(cumulative) is not int:
        raise ValueError(f"record {pos}: 'cumulative_error' must be an integer, got {cumulative!r}")
    kind, actor, arg, forced = step
    arg_ok = kind not in _NEEDS_ARG if arg is None else type(arg) is int and kind not in _TAKES_NO_ARG
    # step_to_doc writes ``forced`` on a fail only
    if (kind not in _KIND_NAMES or type(actor) is not int or not arg_ok
            or type(forced) is not bool or forced and kind != StepKind.FAIL):
        raise ValueError(f"record {pos}: no trace step reads back as {step!r}")


def _flags_text(flags: dict) -> str:
    if not all(isinstance(name, str) for name in flags):
        raise ValueError(f"flag names must be strings, got {flags!r}")
    return _dump(flags)


def write_trace(trace: Trace, fh: IO[str], scenario_digest: str | None = None) -> None:
    """Write ``trace`` as line-delimited JSON: each line is the text that
    ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` gives.

    A record line is assembled from fragments kept for this call only: the
    text of each distinct flags dict and each distinct step is made once,
    and the integers and the digest are formatted in place. The whole body
    goes out in one ``fh.write``, after every record has been checked, so
    a record that :func:`read_trace` would refuse (a ``true`` or ``1.0``
    index or cumulative error, a digest that is not a string, a flag that
    is not ``true``/``false``, a step of no known shape) raises
    ``ValueError`` and nothing is written.
    """
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
        for pos, rec in enumerate(trace.prelude):
            _check_record(rec, pos)
        header["prelude"] = [_record_to_doc(rec) for rec in trace.prelude]
    lines = [_dump(header)]
    flag_texts: dict[tuple, str] = {}
    step_texts: dict[Step, str] = {}
    encode = json.encoder.encode_basestring_ascii
    for pos, rec in enumerate(trace.records):
        _check_record(rec, pos)
        index, step, digest, flags, cumulative = rec
        key = tuple(flags.items())
        flag_text = flag_texts.get(key)
        if flag_text is None:
            flag_text = flag_texts[key] = _flags_text(flags)
        step_text = step_texts.get(step)
        if step_text is None:
            step_text = step_texts[step] = _dump(step_to_doc(step))
        lines.append(f'{{"cumulative_error":{cumulative},"flags":{flag_text},"index":{index},'
                     f'"state_digest":{encode(digest)},"step":{step_text},"type":"record"}}')
    lines.append(_dump({"type": "verdict", "verdict": trace.verdict, "meta": trace.meta}))
    lines.append("")
    fh.write("\n".join(lines))


def save_trace(trace: Trace, path: str, scenario_digest: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(trace, fh, scenario_digest)


_DECODE = json.JSONDecoder().raw_decode


def _fields(doc: dict, names: tuple[str, ...], line: int, where: str) -> list:
    """The values of ``doc``'s fields ``names``, or a schema error naming
    the first one missing and the line."""
    try:
        return [doc[name] for name in names]
    except KeyError as exc:
        raise TraceFormatError(f"line {line}: {where} is missing field {exc.args[0]!r}") from None


def _record_from_doc(doc: dict, line: int, pos: int, prelude: bool = False) -> TraceRecord:
    """The record that ``doc``, read from the file's line ``line``, holds:
    the ``pos``-th record line, or entry ``pos`` of the header's prelude
    (``prelude``). Its index must be ``pos``."""
    where = f"prelude[{pos}]" if prelude else "record"
    index, step, digest, flags, cumulative = _fields(
        doc, ("index", "step", "state_digest", "flags", "cumulative_error"), line, where)
    if doc.get("type", "record") != "record":  # a prelude entry may leave its type out
        raise _record_error(line, where, f"field 'type' must be 'record', got {doc['type']!r}")
    if type(index) is not int:
        raise _record_error(line, where, f"field 'index' must be an integer, got {index!r}")
    if index != pos:
        raise _record_error(line, where, f"carries index {index}, expected {pos} "
                                         "(indices run from 0 in order)")
    if type(digest) is not str:
        raise _record_error(line, where, f"field 'state_digest' must be a string, got {digest!r}")
    if type(flags) is not dict or not _BOOL.issuperset(map(type, flags.values())):
        raise _record_error(line, where,
                            f"field 'flags' must be an object of true/false values, got {flags!r}")
    if type(cumulative) is not int:
        raise _record_error(line, where,
                            f"field 'cumulative_error' must be an integer, got {cumulative!r}")
    try:
        step = step_from_doc(step)
    except ScenarioFormatError as exc:
        raise _record_error(line, where, f"field 'step': {exc}") from None
    return TraceRecord(index, step, digest, flags, cumulative)


def _record_error(line: int, where: str, message: str) -> TraceFormatError:
    return TraceFormatError(f"line {line}: {where} {message}")


def state_from_doc(doc: object, space: IdSpace, r: int, line: int, where: str) -> GlobalState:
    """The snapshot that the header's field ``where`` holds; the header is
    the file's line ``line``."""
    if not isinstance(doc, dict):
        raise TraceFormatError(f"line {line}: {where} must be an object, got {doc!r}")
    try:
        members, stabilize, notify = doc["members"], doc["pending_stabilize"], doc["pending_notify"]
    except KeyError as exc:
        raise TraceFormatError(f"line {line}: {where}.{exc.args[0]} is missing") from None
    try:
        return GlobalState(space, r, _members_from_doc(members, f"{where}.members", space, r),
                           _pending_from_doc(stabilize, f"{where}.pending_stabilize", space),
                           _pending_from_doc(notify, f"{where}.pending_notify", space))
    except ScenarioFormatError as exc:  # a field's own check, which names its path
        raise TraceFormatError(f"line {line}: {exc}") from None
    except ValueError as exc:  # fields that disagree: a continuation its owner cannot hold
        raise TraceFormatError(f"line {line}: {where}: {exc}") from None


def read_trace(fh: IO[str]) -> Trace:
    """The trace that ``fh`` holds, checked field by field; a malformed
    trace raises :class:`TraceFormatError` naming the field and the file's
    own line (blank lines counted).

    Each line is decoded with one ``JSONDecoder.raw_decode``; only a line
    it cannot decode to its end (blank, padded, or not JSON) goes through
    ``json.loads``, so every line gives the document and the error that
    ``json.loads`` gives it.
    """
    # (the file's own line number, its document) per non-blank line
    docs = []
    for i, line in enumerate(fh.read().splitlines(), start=1):
        try:
            doc, end = _DECODE(line)
        except (ValueError, RecursionError):  # not JSON, an overlong integer, or deep nesting
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {i}: not valid JSON ({exc.msg})") from None
            except (ValueError, RecursionError) as exc:  # an overlong integer, or deep nesting
                raise TraceFormatError(f"line {i}: not valid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise TraceFormatError(f"line {i}: not a JSON object")
        docs.append((i, doc))
    if not docs:
        raise TraceFormatError("trace file is empty")
    first, header = docs[0]
    if header.get("type") != "header":
        raise TraceFormatError(f"line {first}: the first line must be a trace header, "
                               f"got 'type' {header.get('type')!r}")
    if header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(f"line {first}: header 'format' must be {TRACE_FORMAT!r}, "
                               f"got {header.get('format')!r}")
    try:
        m, r, kind, initial = _fields(header, ("m", "r", "kind", "initial"), first, "header")
        if not (type(m) is int and type(r) is int and r >= 1):
            raise TraceFormatError(f"line {first}: header 'm' and 'r' must be integers, 'r' "
                                   f"positive, got {m!r} and {r!r}")
        for name in ("kind", "created_at", "tool_version", "scenario_digest"):
            if type(header.get(name, "")) is not str:
                raise TraceFormatError(f"line {first}: header {name!r} must be a string, "
                                       f"got {header[name]!r}")
        try:
            space = IdSpace(m)
        except ValueError as exc:
            raise TraceFormatError(f"line {first}: header 'm': {exc}") from None
        initial = state_from_doc(initial, space, r, first, "initial")
        seed_state = None
        if "seed_state" in header:
            seed_state = state_from_doc(header["seed_state"], space, r, first, "seed_state")
        prelude = []
        if "prelude" in header:
            entries = header["prelude"]
            if not isinstance(entries, list):
                raise TraceFormatError(f"line {first}: header 'prelude' must be a list of "
                                       f"records, got {entries!r}")
            if not entries:  # converge writes a prelude only when it drained something
                raise TraceFormatError(f"line {first}: header 'prelude' is empty")
            for pos, doc in enumerate(entries):
                if not isinstance(doc, dict):
                    raise _record_error(first, f"prelude[{pos}]",
                                        f"must be an object, got {doc!r}")
                prelude.append(_record_from_doc(doc, first, pos, prelude=True))
        records = []
        closing = None
        for i, doc in docs[1:]:
            if closing is not None:
                raise TraceFormatError(f"line {i}: nothing may follow the verdict line")
            line_type = doc.get("type")
            if line_type == "record":
                records.append(_record_from_doc(doc, i, len(records)))
            elif line_type == "verdict":
                closing = i, doc
            else:
                raise TraceFormatError(f"line {i}: unknown line type {line_type!r}")
        if closing is None:
            raise TraceFormatError(f"line {docs[-1][0]}: trace ends without a verdict line "
                                   "(truncated?)")
        last, closing = closing
        verdict, meta = _fields(closing, ("verdict", "meta"), last, "the verdict line")
        if not isinstance(verdict, str):
            raise TraceFormatError(f"line {last}: the verdict line must carry a string 'verdict', "
                                   f"got {verdict!r}")
        if not isinstance(meta, dict):
            raise TraceFormatError(f"line {last}: the verdict line's 'meta' must be an object, "
                                   f"got {meta!r}")
    except TraceFormatError:
        raise
    except (KeyError, TypeError, ValueError, ScenarioFormatError) as exc:
        raise TraceFormatError(f"malformed trace: {exc}") from None
    try:
        return Trace(initial=initial, records=records, verdict=verdict, kind=kind, meta=meta,
                     seed_state=seed_state, prelude=prelude)
    except ValueError as exc:  # a seed state and a prelude that do not pair
        raise TraceFormatError(f"line {first}: header: {exc}") from None


def load_trace(path: str) -> Trace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_trace(fh)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
