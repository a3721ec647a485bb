"""The trace codec: the text ``write_trace`` assembles from fragments is
the canonical JSON of each document, it refuses what ``read_trace``
would, ``read_trace``'s decoding is per-line ``json.loads``, and a trace
missing any one field is refused with a message naming it."""

import io
import json
import math
import re
from dataclasses import replace

import pytest

from chordcheck import Step, StepKind
from chordcheck.cli import EXIT_OK, EXIT_SCHEMA, EXIT_VIOLATION, main
from chordcheck.errors import TraceFormatError
from chordcheck.files import _record_to_doc, read_trace, save_trace, write_trace

KINDS = ("script", "fig3", "fig4", "explore", "simulate", "converge")


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def written(trace, scenario_digest=None):
    buf = io.StringIO()
    write_trace(trace, buf, scenario_digest)
    return buf.getvalue()


class TestWrite:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_line_is_its_canonical_document(self, every_trace_kind, kind):
        trace = every_trace_kind[kind]
        text = written(trace, "0" * 64)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == len(trace.records) + 2
        for rec, line in zip(trace.records, lines[1:-1]):
            assert line == canonical(_record_to_doc(rec))
        header = json.loads(lines[0])
        assert header.get("prelude", []) == [_record_to_doc(rec) for rec in trace.prelude]
        for line in (lines[0], lines[-1]):
            assert line == canonical(json.loads(line))
        assert json.loads(lines[-1]) == {"type": "verdict", "verdict": trace.verdict,
                                         "meta": json.loads(json.dumps(trace.meta))}

    @pytest.mark.parametrize("kind", KINDS)
    def test_read_back_equals_the_written_trace(self, every_trace_kind, kind):
        trace = every_trace_kind[kind]
        assert read_trace(io.StringIO(written(trace))) == trace

    def test_the_body_goes_out_in_one_write(self, every_trace_kind):
        class Counting(io.StringIO):
            calls = 0

            def write(self, text):
                self.calls += 1
                return super().write(text)

        fh = Counting()
        write_trace(every_trace_kind["simulate"], fh)
        assert fh.calls == 1
        assert fh.getvalue() == written(every_trace_kind["simulate"])

    @pytest.mark.parametrize("where,edit", [
        ("records", lambda recs: {2: recs[2]._replace(index=True)}),
        ("records", lambda recs: {1: recs[1]._replace(index=True)}),
        ("records", lambda recs: {2: recs[2]._replace(index=2.0)}),
        ("records", lambda recs: {2: recs[2]._replace(index=3)}),
        ("records", lambda recs: {2: recs[2]._replace(cumulative_error=True)}),
        ("records", lambda recs: {2: recs[2]._replace(cumulative_error=0.0)}),
        ("records", lambda recs: {2: recs[2]._replace(digest=recs[2].digest.encode())}),
        ("records", lambda recs: {2: recs[2]._replace(digest=None)}),
        ("records", lambda recs: {2: recs[2]._replace(flags={**recs[2].flags, "ideal": None})}),
        ("records", lambda recs: {2: recs[2]._replace(flags={**recs[2].flags, "ideal": 0.0})}),
        # the flags text memo is keyed by value, and 1 == True: a 1 after a
        # true in the same trace must still be refused
        ("records", lambda recs: {3: recs[3]._replace(flags={**recs[2].flags, "invariant": 1})}),
        ("records", lambda recs: {2: recs[2]._replace(flags={**recs[2].flags, 7: True})}),
        # and the step text memo's: a true actor after the integer 1
        ("records", lambda recs: {2: recs[2]._replace(step=Step(StepKind.FAIL, 1)),
                                  3: recs[3]._replace(step=Step(StepKind.FAIL, True))}),
        ("records", lambda recs: {2: recs[2]._replace(step=Step(StepKind.RECTIFY, 3, 1)),
                                  3: recs[3]._replace(step=Step(StepKind.RECTIFY, 3, True))}),
        ("records", lambda recs: {2: recs[2]._replace(step=Step(StepKind.JOIN, 3))}),
        ("records", lambda recs: {2: recs[2]._replace(
            step=Step(StepKind.STABILIZE_FROM_PREDECESSOR, 3))}),
        ("records", lambda recs: {2: recs[2]._replace(step=Step(StepKind.FAIL, 3, 4))}),
        ("records", lambda recs: {2: recs[2]._replace(step=Step(7, 3))}),
        ("prelude", lambda recs: {0: recs[0]._replace(index=False)}),
        ("prelude", lambda recs: {0: recs[0]._replace(flags={**recs[0].flags, "ideal": 1})}),
    ])
    def test_refuses_what_read_trace_refuses_and_writes_nothing(self, every_trace_kind, where,
                                                                edit):
        trace = every_trace_kind["converge" if where == "prelude" else "simulate"]
        recs = list(getattr(trace, where))
        # the memo cases edit a record after one whose invariant flag is true
        assert every_trace_kind["simulate"].records[2].flags["invariant"] is True
        for pos, rec in edit(recs).items():
            recs[pos] = rec
        buf = io.StringIO()
        with pytest.raises(ValueError):
            write_trace(replace(trace, **{where: recs}), buf)
        assert buf.getvalue() == ""


class TestDecode:
    """``read_trace`` gives the documents and the line errors that
    per-line ``json.loads`` gives, blank lines skipped and counted."""

    @staticmethod
    def reference(text):
        """(line number, document) per non-blank line, by ``json.loads``,
        or the ``TraceFormatError`` message of the first line it refuses."""
        docs = []
        for i, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                docs.append((i, json.loads(line)))
            except json.JSONDecodeError as exc:
                return f"line {i}: not valid JSON ({exc.msg})"
        return docs

    @pytest.mark.parametrize("pad", [
        lambda line: "  " + line,
        lambda line: line + " \t",
        lambda line: "\t" + line + "  ",
        lambda line: line.replace(",", ", ").replace(":", ": "),
        lambda line: "\ufeff" + line,
        lambda line: line + " {}",
        lambda line: line + "}",
        lambda line: line[:len(line) // 2],
        lambda line: line[:-1],
        lambda line: line.replace("true", "True", 1),
    ], ids=["leading", "trailing", "both", "spaced", "bom", "trailing-data", "extra-brace",
            "truncated", "unclosed", "python-true"])
    @pytest.mark.parametrize("line", [0, 3, -1], ids=["header", "record", "verdict"])
    def test_padded_or_broken_lines_match_json_loads(self, every_trace_kind, pad, line):
        lines = written(every_trace_kind["simulate"]).splitlines()
        lines[line] = pad(lines[line])
        text = "\n".join(["", *lines[:2], "   ", *lines[2:]]) + "\n"
        expected = self.reference(text)
        if isinstance(expected, str):
            with pytest.raises(TraceFormatError, match=f"^{re.escape(expected)}$"):
                read_trace(io.StringIO(text))
            return
        trace = read_trace(io.StringIO(text))
        assert trace == read_trace(io.StringIO(written(every_trace_kind["simulate"])))
        header = expected[0][1]
        assert (trace.kind, trace.initial.space.m, trace.initial.r) == (
            header["kind"], header["m"], header["r"])
        assert [_record_to_doc(rec) for rec in trace.records] == [doc for _, doc in expected[1:-1]]
        assert {"type": "verdict", "verdict": trace.verdict, "meta": trace.meta} == expected[-1][1]

    def test_nan_decodes_as_json_loads_decodes_it(self, every_trace_kind):
        lines = written(every_trace_kind["simulate"]).splitlines()
        lines[-1] = lines[-1].replace('"meta":{', '"meta":{"spread":NaN,"cap":-Infinity,', 1)
        trace = read_trace(io.StringIO("\n".join(lines) + "\n"))
        assert math.isnan(trace.meta["spread"]) and trace.meta["cap"] == -math.inf
        # NaN where an integer belongs is refused as a float
        record = lines[2].replace('"cumulative_error":', '"cumulative_error":NaN,"x":', 1)
        with pytest.raises(TraceFormatError,
                           match=r"^line 3: record field 'cumulative_error' must be an integer, got nan$"):
            read_trace(io.StringIO("\n".join([*lines[:2], record, *lines[3:]]) + "\n"))

    def test_line_errors_count_blank_lines(self):
        header = canonical({"type": "header"})
        for text, message in [("{} {}", "line 1: not valid JSON (Extra data)"),
                              (header + "\n\n[1] ", "line 3: not a JSON object"),
                              ('\n{"type": "rec', "line 2: not valid JSON (Unterminated string "
                                                 "starting at)")]:
            with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}"):
                read_trace(io.StringIO(text))


class TestNamedFields:
    """The messages of the reader's field checks: the field's path and the
    file's own line."""

    @pytest.mark.parametrize("edit,message", [
        (lambda docs: docs[0].pop("m"), "line 1: header is missing field 'm'"),
        (lambda docs: docs[0].pop("r"), "line 1: header is missing field 'r'"),
        (lambda docs: docs[0]["initial"].pop("members"), "line 1: initial.members is missing"),
        (lambda docs: docs[0]["initial"]["members"][0].pop("id"),
         "line 1: initial.members[0] is missing field 'id'"),
        (lambda docs: docs[0]["initial"].update(pending_notify=[[1]]),
         "line 1: initial.pending_notify[0] must be a list of two integers, got [1]"),
        (lambda docs: docs[0]["initial"].update(pending_notify=[[2, 8]]),
         "line 1: initial.pending_notify[0] holds an identifier outside [0, 8), got [2, 8]"),
        (lambda docs: docs[0]["initial"].update(pending_stabilize=[[1, 2]]),
         "line 1: initial: a stabilize in flight is owned by a non-member"),
        (lambda docs: docs[0].update(m=0),
         "line 1: header 'm': bit width m must be an integer in 1..16, got 0"),
        (lambda docs: docs[0].update(r=0),
         "line 1: header 'm' and 'r' must be integers, 'r' positive, got 3 and 0"),
        (lambda docs: docs[0]["seed_state"].pop("pending_notify"),
         "line 1: seed_state.pending_notify is missing"),
        (lambda docs: docs[0].update(initial=[]), "line 1: initial must be an object, got []"),
        (lambda docs: docs[0].update(seed_state=7), "line 1: seed_state must be an object, got 7"),
        (lambda docs: docs[0]["prelude"].__setitem__(0, "x"),
         "line 1: prelude[0] must be an object, got 'x'"),
        (lambda docs: docs[0].update(prelude={"index": 0}),
         "line 1: header 'prelude' must be a list of records, got {'index': 0}"),
        (lambda docs: docs[0]["prelude"][0].pop("flags"),
         "line 1: prelude[0] is missing field 'flags'"),
        (lambda docs: docs[2].pop("step"), "line 3: record is missing field 'step'"),
        (lambda docs: docs[1].pop("index"), "line 2: record is missing field 'index'"),
        (lambda docs: docs[2].pop("state_digest"), "line 3: record is missing field 'state_digest'"),
        (lambda docs: docs[2].pop("cumulative_error"),
         "line 3: record is missing field 'cumulative_error'"),
        (lambda docs: docs[2]["step"].pop("actor"),
         "line 3: record field 'step': step actor must be an integer, got None"),
        (lambda docs: docs[2].update(type="recrod"), "line 3: unknown line type 'recrod'"),
        (lambda docs: docs[-1].pop("meta"), "the verdict line is missing field 'meta'"),
        (lambda docs: docs[1].update(index=99),
         "line 2: record carries index 99, expected 0 (indices run from 0 in order)"),
        (lambda docs: docs[3].update(index=1),
         "line 4: record carries index 1, expected 2 (indices run from 0 in order)"),
        (lambda docs: docs[0]["prelude"][0].update(index=99),
         "line 1: prelude[0] carries index 99, expected 0 (indices run from 0 in order)"),
        (lambda docs: docs.pop(), "line 7: trace ends without a verdict line (truncated?)"),
    ])
    def test_missing_fields_are_named(self, every_trace_kind, edit, message):
        docs = [json.loads(line) for line in written(every_trace_kind["converge"]).splitlines()]
        edit(docs)
        text = "\n".join(map(json.dumps, docs)) + "\n"
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            read_trace(io.StringIO(text))


# the fields a trace may lack and still read and replay as it did: the
# header's creation time, tool version and scenario digest are written
# for people and never read, and a prelude entry is a record by its place
OPTIONAL = {("header", "created_at"), ("header", "tool_version"), ("header", "scenario_digest"),
            ("prelude[0]", "type")}


def mutants(lines):
    """Each (place, field, lines) with one field deleted: from the header,
    each header state and its first member, one record of each step kind
    that takes an ``arg`` (and a prelude record) with its step, and the
    verdict line."""
    docs = [json.loads(line) for line in lines]
    header = docs[0]

    def without(line, path, name):
        edited = json.loads(lines[line])
        target = edited
        for key in path:
            target = target[key]
        del target[name]
        return lines[:line] + [canonical(edited)] + lines[line + 1:]

    for name in header:
        yield "header", name, without(0, (), name)
    for state in ("initial", "seed_state"):
        if state in header:
            for name in header[state]:
                yield state, name, without(0, (state,), name)
            for name in header[state]["members"][0]:
                yield f"{state}.members[0]", name, without(0, (state, "members", 0), name)
    for pos, rec in enumerate(header.get("prelude", [])[:1]):
        for name in rec:
            yield f"prelude[{pos}]", name, without(0, ("prelude", pos), name)
        for name in rec["step"]:
            yield f"prelude[{pos}].step", name, without(0, ("prelude", pos, "step"), name)
    chosen = {}
    for line, doc in enumerate(docs[1:-1], start=1):
        chosen.setdefault(doc["step"]["kind"], line)
    for kind in ("join", "stabilize_from_predecessor", "rectify"):
        if kind not in chosen:
            continue
        line = chosen[kind]
        for name in docs[line]:
            yield f"record ({kind})", name, without(line, (), name)
        for name in docs[line]["step"]:
            yield f"record ({kind}).step", name, without(line, ("step",), name)
    for name in docs[-1]:
        yield "verdict", name, without(len(docs) - 1, (), name)


def mutation_outcomes(trace, path, capsys):
    """(place, field, exit code, stderr) of every one-field mutant of
    ``trace``'s file, replayed through the command line."""
    save_trace(trace, path, "0" * 64)
    with open(path) as fh:
        lines = fh.read().splitlines()
    outcomes = []
    for place, name, edited in mutants(lines):
        with open(path, "w") as fh:
            fh.write("\n".join(edited) + "\n")
        code = main(["replay", path])
        outcomes.append((place, name, code, capsys.readouterr().err))
    return outcomes


# the records each trace's mutants delete from: the fig3 and fig4 records
# are fails and stabilize_from_successor steps, which take no ``arg`` and
# which ``mutants`` does not pick
MUTATED_RECORDS = {"script": {"record (join)"}, "fig3": set(), "fig4": set(),
                   "explore": {"record (join)"},
                   "simulate": {"record (join)", "record (stabilize_from_predecessor)",
                                "record (rectify)"},
                   "converge": {"record (rectify)"}}


@pytest.mark.parametrize("kind", list(MUTATED_RECORDS))
def test_every_deleted_field_is_refused_by_name_or_optional(every_trace_kind, kind, tmp_path,
                                                            capsys):
    outcomes = mutation_outcomes(every_trace_kind[kind], str(tmp_path / "mutant.trace"), capsys)
    places = {place for place, *_ in outcomes}
    assert {"header", "initial", "initial.members[0]", "verdict"} | MUTATED_RECORDS[kind] <= places
    if kind == "converge":
        assert {"seed_state", "seed_state.members[0]", "prelude[0]", "prelude[0].step"} <= places
    for place, name, code, err in outcomes:
        if (place, name) in OPTIONAL:
            assert code == EXIT_OK, (place, name, err)
        else:
            assert code in (EXIT_SCHEMA, EXIT_VIOLATION), (place, name, err)
            # the field, and the line or the field's whole path
            assert name in err and ("line " in err or place in err), (place, name, err)


# the line mutants that read and replay clean: a script trace, and a repro
# trace whose violation already shows one record earlier, do not record
# their length, so each without its last record is a valid shorter trace
UNREFUSED_LINE_MUTANTS = {("script", "drop", "last"), ("fig4", "drop", "last")}


def line_places(lines):
    """Each (place, index) of the lines that mutants edit: the header, the
    first, middle and last record lines, and the verdict line; a line
    that two places name comes once."""
    last = len(lines) - 1
    places = {"header": 0, "first": 1, "middle": last // 2, "last": last - 1, "verdict": last}
    done = set()
    for place, at in places.items():
        if at not in done and 0 <= at <= last:
            done.add(at)
            yield place, at


def line_mutants(lines):
    """Each (operation, place, lines) with one line of ``line_places``
    dropped or repeated."""
    for place, at in line_places(lines):
        yield "drop", place, lines[:at] + lines[at + 1:]
        yield "repeat", place, lines[:at + 1] + lines[at:]


@pytest.mark.parametrize("kind", KINDS)
def test_every_dropped_or_repeated_line_is_refused(every_trace_kind, kind, tmp_path, capsys):
    path = str(tmp_path / "mutant.trace")
    save_trace(every_trace_kind[kind], path, "0" * 64)
    with open(path) as fh:
        lines = fh.read().splitlines()
    outcomes = []
    for op, place, edited in line_mutants(lines):
        with open(path, "w") as fh:
            fh.write("\n".join(edited) + "\n")
        code = main(["replay", path])
        err = capsys.readouterr().err
        outcomes.append((op, place, code))
        if (kind, op, place) in UNREFUSED_LINE_MUTANTS:
            assert code == EXIT_OK, (op, place, err)
        elif code == EXIT_SCHEMA:
            assert re.match(r"chordcheck: line \d+: ", err), (op, place, err)
        else:
            assert code == EXIT_VIOLATION and "replay mismatch: " in err, (op, place, code, err)
    assert {"header", "first", "verdict"} <= {place for _, place, _ in outcomes}


def retyped(value):
    """``value`` as a JSON value of another type: a boolean as its integer,
    an integer as its float, a float as its integer, a string as its
    length, null as 0."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return float(value)
    if type(value) is float:
        return int(value)
    if type(value) is str:
        return len(value)
    assert value is None
    return 0


def leaf_edits(doc, path=()):
    """Each (operation, path, value) of ``doc``: every list emptied and
    lengthened by a copy of its last entry, and every leaf retyped; a
    list already empty is not emptied again."""
    if isinstance(doc, dict):
        for name in sorted(doc):
            yield from leaf_edits(doc[name], path + (name,))
    elif isinstance(doc, list):
        if doc:
            yield "empty", path, []
            yield "lengthen", path, doc + doc[-1:]
        for i, value in enumerate(doc):
            yield from leaf_edits(value, path + (i,))
    else:
        yield "retype", path, retyped(doc)


def edited_doc(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# the leaf mutants that read and replay clean. The header's creation time,
# tool version and scenario digest, and a prelude entry's type, are
# written for people and never read (see OPTIONAL); a repeated pending
# notification collapses into the one it repeats; and these meta entries
# of the verdict line are never read back: a repro's scenario, m and r, a
# simulate's seed, window and churn, and a converge's seed, and its
# step_cap once it has converged
UNREFUSED_LEAF_MUTANTS = (
    {(kind, "header", "retype", (name,)) for kind in KINDS
     for name in ("created_at", "tool_version", "scenario_digest")}
    | {("converge", "header", "retype", ("prelude", 0, "type")),
       ("converge", "header", "lengthen", ("seed_state", "pending_notify"))}
    | {(kind, "verdict", "retype", ("meta", name)) for kind, names in (
        ("fig3", ("scenario", "m", "r")), ("fig4", ("scenario", "m", "r")),
        ("simulate", ("seed", "fairness_window", "churn")), ("converge", ("seed", "step_cap")))
       for name in names}
)


@pytest.mark.parametrize("kind", KINDS)
def test_every_retyped_emptied_or_lengthened_leaf_is_refused(every_trace_kind, kind, tmp_path,
                                                             capsys):
    path = str(tmp_path / "mutant.trace")
    save_trace(every_trace_kind[kind], path, "0" * 64)
    with open(path) as fh:
        lines = fh.read().splitlines()
    clean = set()
    for place, at in line_places(lines):
        doc = json.loads(lines[at])
        for op, where, value in leaf_edits(doc):
            with open(path, "w") as fh:
                fh.write("\n".join([*lines[:at], canonical(edited_doc(doc, where, value)),
                                    *lines[at + 1:]]) + "\n")
            # an exception other than the refusals fails the test here
            code = main(["replay", path])
            err = capsys.readouterr().err
            if code == EXIT_OK:
                clean.add((kind, place, op, where))
            elif code == EXIT_SCHEMA:
                # the line, and the field by its name or its list's
                name = [key for key in where if isinstance(key, str)][-1]
                assert f"line {at + 1}" in err and name in err, (place, op, where, err)
            else:
                assert code == EXIT_VIOLATION and "replay mismatch: " in err, (
                    place, op, where, code, err)
    assert clean == {mutant for mutant in UNREFUSED_LEAF_MUTANTS if mutant[0] == kind}
