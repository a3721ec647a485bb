"""The CLI's outputs, pinned.

Each case runs ``cli.main`` in process and hashes what a user sees: the
exit code, stdout, stderr and, for a command given ``--out``, the trace
file it wrote. The trace header's ``created_at`` is removed and the
temporary directory's path is replaced by ``<tmp>``, so the hashes do not
depend on the clock or on where the test runs. ``replay`` cases read the
trace that an earlier case wrote.

On a mismatch the test prints each changed case's output and new hash;
after an intended change, check the output and pin the new hash.
"""

import hashlib
import json
import re
from pathlib import Path

from chordcheck.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = ("ideal_ring_m3", "join_lifecycle_m6", "size_one_m6", "stranded_appendages_m6")


def _cases():
    """(case id, argv, trace file that argv writes or None); a path is
    relative to the run's temporary directory."""
    cases = []
    for name in NAMES:
        scenario = str(SCENARIOS / f"{name}.json")
        cases.append((f"check {name}", ["check", scenario], None))
        # the scenario's own depth hits the state cap only after about 45 s
        depth = ["--depth", "2"] if name == "join_lifecycle_m6" else []
        for command, extra in (("explore", depth), ("simulate", []), ("converge", [])):
            out = f"{command}_{name}.trace"
            cases.append((f"{command} {name}", [command, scenario, *extra, "--out", out], out))
    for name in ("fig3", "fig4"):
        out = f"repro_{name}.trace"
        cases.append((f"repro {name}", ["repro", name, "--out", out], out))
    return cases


_CREATED_AT = re.compile(r'"created_at": ?"[^"]*",?')


def _run(argv, tmp: Path, capsys) -> str:
    argv = [str(tmp / a) if a.endswith(".trace") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    return json.dumps({
        "code": code,
        "stdout": _CREATED_AT.sub("", captured.out),
        "stderr": captured.err.replace(str(tmp), "<tmp>"),
    }, indent=1)


def _outputs(tmp: Path, capsys) -> dict[str, str]:
    """Every case's output, including the trace files written and their
    replays, in case order."""
    outputs = {}
    for case, argv, out in _cases():
        outputs[case] = _run(argv, tmp, capsys)
        if out and (tmp / out).exists():
            trace = _CREATED_AT.sub("", (tmp / out).read_text())
            outputs[case] += "\n--- trace file ---\n" + trace
            outputs[f"replay {case}"] = _run(["replay", out], tmp, capsys)
    return outputs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = {
    "check ideal_ring_m3": "2ec72f5588ed83e4a7faa1ba1e9cf4cfac4be7952fc7414640312b144c861ba2",
    "explore ideal_ring_m3": "cf7f3c482ee43fb8bce63a599bf3d3cb225c52a46b107fa38af90b2cd9728ea2",
    "simulate ideal_ring_m3": "49aa731052bc4ace8335862c8c8c88d83a28d78225a1ee019d31bd29a749985e",
    "replay simulate ideal_ring_m3": "321d6867701bcb6ecee17d4c0a32664e0ea1bf49ea60707e25ba2be57591f42b",
    "converge ideal_ring_m3": "72b70b47fda930b4d0987dcc260b4c0211dbab10b63afee13a367ed85e8fbcf2",
    "replay converge ideal_ring_m3": "3c9b98566268af4060c8d6d24f1d2c1b7f4ea498dcc4ca9bbe2df8cb0b7fb5c8",
    "check join_lifecycle_m6": "8f1fa4c2bd89c7a88f8d751e2081698e76ac946dca4a642a58638746455e1f2e",
    "explore join_lifecycle_m6": "79e73e668d126387fd8c5440573ca9c83eddb4aebb4d57c6fe52e0752407c56f",
    "simulate join_lifecycle_m6": "1096a34d41ab0b561004a2d11f282194388baff9e9fad3585d82eb8ea6752422",
    "replay simulate join_lifecycle_m6": "321d6867701bcb6ecee17d4c0a32664e0ea1bf49ea60707e25ba2be57591f42b",
    "converge join_lifecycle_m6": "fcbcbeaf821ff4487b35d70b084667f5a914a363af296c3d53cffcf80a3c607e",
    "replay converge join_lifecycle_m6": "4eab1714c9e6be5f67e29c0da572e86a6de78c4f8d1276be354c8e43e6be9864",
    "check size_one_m6": "a3abb9b0ec0afa39d32c8889bb545ff6612b41de17e0d35f19dd1f12a8ac3d2a",
    "explore size_one_m6": "ba3ea95c151b0452a06e0b53f35b700768fa83f7a497ee2e7a693818a4e86cde",
    "simulate size_one_m6": "b790143c1493cc62a0445226f88c4ff98e6828a56e1866936ae78e082312d7d9",
    "converge size_one_m6": "b41b2c6338e70e8dc0b36e9ce5e3e670071f8193821c6ae785c6ce05bf4a0e41",
    "check stranded_appendages_m6": "5a8d19a35cb63c050431d3d76929b445c31915a5941bfb24c7bdd219d35d9b22",
    "explore stranded_appendages_m6": "77b20f46b4874f7b2e4136d54dba1417704ffd9b68ef133ee0f96f4da5109717",
    "replay explore stranded_appendages_m6": "5a8f5fe9bfe88206716c2820941eafa280741e65b5ee6a0ba24cf7ffff20614b",
    "simulate stranded_appendages_m6": "b790143c1493cc62a0445226f88c4ff98e6828a56e1866936ae78e082312d7d9",
    "converge stranded_appendages_m6": "b41b2c6338e70e8dc0b36e9ce5e3e670071f8193821c6ae785c6ce05bf4a0e41",
    "repro fig3": "fd095780e52b702686a08a5ba231a57707ba93433aa8beb9834fbfb9c2082771",
    "replay repro fig3": "5a8f5fe9bfe88206716c2820941eafa280741e65b5ee6a0ba24cf7ffff20614b",
    "repro fig4": "2b2e2b50fd4d7c195383ea43b6a5a0bddc694d92936e7b71b9d6656c3ddc4a63",
    "replay repro fig4": "bcb53aaf17cb6d51795473b3a10eb2acf1f875ae022af5281ef1641888714e29",
}


def test_cli_outputs_are_pinned(tmp_path, capsys):
    outputs = _outputs(tmp_path, capsys)
    assert list(outputs) == list(GOLDEN)
    changed = [case for case, text in outputs.items() if _sha(text) != GOLDEN[case]]
    for case in changed:
        print(f"=== {case}: sha256 {_sha(outputs[case])} != pinned {GOLDEN[case]}")
        print(outputs[case])
    assert not changed

