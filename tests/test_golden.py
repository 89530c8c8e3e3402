"""The golden corpus (tests/golden): every report galpha prints for its
specs, regenerated and compared with the checked-in one key by key.  A
change that moves a number rewrites it with tests/golden/regen.py."""

import shutil

from galpha.cli import main
from golden import regen


class TestGoldenCorpus:
    def test_every_report_matches_the_corpus(self, tmp_path):
        stored = regen.stored()
        # 24 specs, each with verify and norms, two render CSVs and six
        # printed texts
        runs = [r for name, r in stored.items() if name.startswith("reports/")]
        assert len(runs) == 24 and all(sorted(r) == ["norms", "verify"] for r in runs)
        assert sorted(name for name in stored if name.startswith("render/")) == sorted(
            f"render/{ident}.csv" for ident in regen.RENDERED)
        assert sorted(name for name in stored if name.startswith("text/")) == sorted(
            f"text/{ident}.{command}.txt" for ident, command in regen.PRINTED)
        assert len(regen.PRINTED) == 6
        assert regen.moved(stored, regen.generate(tmp_path)) == []

    def test_moved_lines_are_listed_in_line_order(self):
        # lines 1, 2 and 10, not 1, 10 and 2 as their keys sort as strings
        lines = [f"line {i}" for i in range(12)]
        old = {"text/a.verify.txt": "\n".join(lines) + "\n"}
        for i in (1, 2, 10):
            lines[i] += " moved"
        new = {"text/a.verify.txt": "\n".join(lines) + "\n"}
        assert [line.split(":")[0] for line in regen.moved(old, new)] == [
            "text/a.verify.txt[1]", "text/a.verify.txt[2]", "text/a.verify.txt[10]"]

    def test_a_report_left_beside_the_specs_is_not_a_spec(self, tmp_path, capsys,
                                                            monkeypatch):
        # a bare `galpha verify <spec>` writes <spec>.report.json beside it
        specs = tmp_path / "specs"
        specs.mkdir()
        for ident in {*regen.RENDERED, *(ident for ident, _ in regen.PRINTED)}:
            shutil.copy(regen.SPECS / f"{ident}.json", specs)
        monkeypatch.setattr(regen, "SPECS", specs)
        (tmp_path / "clean").mkdir()
        clean = regen.generate(tmp_path / "clean")
        assert main(["verify", str(specs / "blaschke-d4.json")]) == 0
        assert (specs / "blaschke-d4.report.json").exists()
        (tmp_path / "stray").mkdir()
        assert regen.generate(tmp_path / "stray") == clean
