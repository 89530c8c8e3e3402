"""The golden corpus: every report galpha prints for a fixed set of specs.

    specs/<id>.json     the 20 `verify-mixed` specs of the benchmark at seed
                        1 (perfbench/workloads.py), and four edge specs:
                        one atom at angle 0 with alpha = 1/2 and with alpha
                        = 1, the 128-atom member of `galpha gen --seed 128
                        --atoms 128 --alpha 0.7`, and the d128 product of the
                        benchmark's `roundtrip` panel with alpha = 0.3;
    reports/<id>.json   each spec's `verify` and `norms` runs, as
                        {command: {"exit": code, "report": JSON report}};
    render/<id>.csv     the `render` CSVs of an analytic and a harmonic curve;
    text/<id>.<command>.txt
                        the text that `verify` and `norms` print for an
                        analytic, a harmonic and a Blaschke spec.

A file in specs/ named *.report.json is not a spec: it is the report a
bare `galpha verify specs/<id>.json` leaves beside its spec, and is skipped.

tests/test_golden.py regenerates every report and compares it key by key:
strings, booleans, exit codes and floats must match exactly, the floats to
the bit, and a CSV or text file line by line.  A change that moves a
number rewrites the corpus with

    PYTHONPATH=src python tests/golden/regen.py

which prints every moved key or line as `key: old -> new`, in key order
with list indices compared as numbers, then one line per family of moved
keys (the key with its spec id and list indices stripped) with the count
and the largest relative move of its floats.  The specs are inputs: it
never rewrites them.  The corpus was written with numpy 2.4.6 on x86-64;
another numpy or CPU may round some kernels differently, and the moved keys
then show by how much.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from galpha.cli import main

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"
# an analytic curve and a harmonic shear's, each on 64 points of |z| = 0.99
RENDERED = ("atoms-m1", "atoms-m20-blaschke_scaled")
_RENDER_ARGS = ("--samples", "64")
# (spec id, command) whose printed text is kept
PRINTED = (("atoms-m1", "verify"), ("atoms-m1", "norms"),
           ("atoms-m20-blaschke_scaled", "verify"), ("atoms-m20-blaschke_scaled", "norms"),
           ("blaschke-d4", "verify"), ("blaschke-d4", "norms"))


def _run(argv) -> tuple[int, str]:
    """galpha's exit code for argv and the text it prints, stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv]), out.getvalue()


def generate(work: Path) -> dict:
    """The corpus as the current code prints it, {path under HERE: content}:
    each report file's runs as a dict, each CSV and printed text as its
    text.  work holds the reports while they are written."""
    corpus = {}
    for spec in sorted(SPECS.glob("*.json")):
        if spec.name.endswith(".report.json"):
            continue  # the report a bare `galpha verify` leaves beside its spec
        runs = {}
        for command in ("verify", "norms"):
            out = work / f"{spec.stem}.{command}.json"
            code, text = _run([command, spec, "--out", out])
            runs[command] = {"exit": code,
                             "report": json.loads(out.read_text()) if out.exists() else None}
            if (spec.stem, command) in PRINTED:
                corpus[f"text/{spec.stem}.{command}.txt"] = text
        corpus[f"reports/{spec.name}"] = runs
    for ident in RENDERED:
        out = work / f"{ident}.csv"
        _run(["render", SPECS / f"{ident}.json", *_RENDER_ARGS, "--out", out])
        corpus[f"render/{ident}.csv"] = out.read_text()
    return corpus


def stored() -> dict:
    """The corpus as checked in, in the form `generate` returns."""
    corpus = {f"reports/{p.name}": json.loads(p.read_text())
              for p in sorted((HERE / "reports").glob("*.json"))}
    corpus.update((f"{p.parent.name}/{p.name}", p.read_text())
                  for p in sorted([*(HERE / "render").glob("*.csv"),
                                   *(HERE / "text").glob("*.txt")]))
    return corpus


def _keys(value, key=""):
    """(key, leaf) for every leaf of a corpus; a CSV's or text's leaves are its lines."""
    if isinstance(value, str) and "\n" in value:
        value = value.splitlines()
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _keys(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _keys(v, f"{key}[{i}]")
    else:
        yield key, value


_ABSENT = object()  # the leaf of a key that one side lacks


def _show(leaf) -> str:
    return "absent" if leaf is _ABSENT else f"{type(leaf).__name__} {leaf!r}"


def _changes(old: dict, new: dict):
    """(key, old leaf, new leaf) for each leaf whose type or repr differs (a
    float's repr round-trips, so equal reprs are equal bits), or that one
    side lacks, in key order with list indices compared as numbers."""
    a, b = dict(_keys(old)), dict(_keys(new))
    # re.split with one group alternates text and index: [text, index, text, ...]
    order = lambda k: [int(p) if i % 2 else p for i, p in enumerate(re.split(r"\[(\d+)\]", k))]
    for k in sorted(a.keys() | b.keys(), key=order):
        x, y = a.get(k, _ABSENT), b.get(k, _ABSENT)
        if _show(x) != _show(y):
            yield k, x, y


def moved(old: dict, new: dict) -> list[str]:
    """`key: old -> new` for each leaf that _changes finds."""
    return [f"{k}: {_show(x)} -> {_show(y)}" for k, x, y in _changes(old, new)]


def families(old: dict, new: dict) -> list[str]:
    """One line per family of moved keys, a key with its file's spec id and
    list indices stripped: how many moved, and the largest relative move
    of those whose leaf is a float on both sides."""
    count, worst = collections.Counter(), {}
    for k, x, y in _changes(old, new):
        family = re.sub(r"\[\d+\]", "", re.sub(r"^(\w+)/.*?\.(json|csv|txt)", r"\1", k))
        count[family] += 1
        if type(x) is float and type(y) is float:
            move = abs(y - x) / abs(x) if x else abs(y)
            worst[family] = max(worst.get(family, 0.0), move)
    return [f"{f}: {n} keys, " + (f"largest relative move {worst[f]:.2g}" if f in worst
                                  else "no float on both sides") for f, n in sorted(count.items())]


def write(corpus: dict) -> None:
    """Replace reports/, render/ and text/ by corpus."""
    for path in [*(HERE / "reports").glob("*.json"), *(HERE / "render").glob("*.csv"),
                 *(HERE / "text").glob("*.txt")]:
        path.unlink()
    for name, content in corpus.items():
        path = HERE / name
        path.parent.mkdir(exist_ok=True)
        # a report is one line of JSON: what moved is read from `moved`, not the diff
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content, sort_keys=True) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        corpus = generate(Path(work))
    old = stored()
    for line in moved(old, corpus) + families(old, corpus):
        print(line)
    write(corpus)
