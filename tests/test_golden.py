"""The golden corpus (tests/golden): every report galpha prints for its
specs, regenerated and compared with the checked-in one key by key.  A
change that moves a number rewrites it with tests/golden/regen.py."""

from golden import regen


class TestGoldenCorpus:
    def test_every_report_matches_the_corpus(self, tmp_path):
        stored = regen.stored()
        # 24 specs, each with verify and norms, the four Blaschke sources
        # with roundtrip too, and two render CSVs
        runs = [r for name, r in stored.items() if name.startswith("reports/")]
        assert len(runs) == 24 and sum("roundtrip" in r for r in runs) == 4
        assert sorted(name for name in stored if name.startswith("render/")) == sorted(
            f"render/{ident}.csv" for ident in regen.RENDERED)
        assert regen.moved(stored, regen.generate(tmp_path)) == []
