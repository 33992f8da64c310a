"""The certify-corpus harness: reported counts against what lands on disk,
and the worker pool it asks for."""

import dataclasses

import pytest

from homcert import harness, homcore, search
from homcert.functors import FunctorResult
from homcert.homcore import HomAlgebra


def test_reported_documents_match_files_with_duplicate_items(tmp_path, monkeypatch):
    real_corpus = harness.corpus

    def doubled_corpus(*args, **kwargs):
        # every instance twice, so equal counterexample stems are emitted
        return real_corpus(*args, **kwargs) * 2

    monkeypatch.setattr(harness, "corpus", doubled_corpus)
    monkeypatch.setattr(harness, "PROPERTIES", tuple(
        p for p in harness.PROPERTIES if not p.must_pass))
    summary, _ = harness.run_corpus_certification(4, 2, 13, str(tmp_path))

    emitted = sum(int(line.split("counterexamples=")[1].split()[0])
                  for line in summary.splitlines() if line.startswith("PROPERTY"))
    reported = int(summary.split("counterexample documents written: ")[1].split()[0])
    on_disk = len(list(tmp_path.glob("*.json")))
    assert on_disk > 0
    assert emitted > on_disk  # the duplicates really collided
    assert reported == on_disk


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the size asked for and
    maps in this process, so no worker is started."""

    sizes = []

    def __init__(self, processes):
        RecordingPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


@pytest.mark.parametrize("jobs, expected", [(1, []), (2, [2]), (10 ** 6, None)])
def test_pool_is_capped_at_the_work_items(monkeypatch, jobs, expected):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(harness.multiprocessing, "Pool", RecordingPool)
    # the properties whose items are quick at this size
    monkeypatch.setattr(harness, "PROPERTIES", harness.PROPERTIES[:4])
    summary, _ = harness.run_corpus_certification(1, 1, 0, jobs=jobs)
    items = sum(len(p.build(1, 1, idx * 1009)) for idx, p in enumerate(harness.PROPERTIES))
    assert 2 < items < 10 ** 6
    assert RecordingPool.sizes == ([items] if expected is None else expected)
    assert summary == harness.run_corpus_certification(1, 1, 0)[0]


@pytest.mark.parametrize("jobs", [0, -1])
def test_nonpositive_jobs_rejected(jobs):
    with pytest.raises(harness.InputError, match="jobs"):
        harness.run_corpus_certification(1, 1, 0, jobs=jobs)


def test_search_consistency_builds_each_candidate_space_once(monkeypatch):
    calls = []
    real = search.postlie_linear_system
    monkeypatch.setattr(search, "postlie_linear_system", lambda l: calls.append(l) or real(l))
    # the items with 81 candidates or fewer; the abelian dim-2 ones have 6561
    items = [item for item in harness._build_search(1, 1, 0)
             if not item[0].startswith("abelian-2")]
    assert len(items) == 3
    for item in items:
        calls.clear()
        assert harness._eval_search_consistency(item).ok
        assert calls == [item[1]]


# -- the search-consistency oracle catches a wrong search or verdict -----------

def _search_item(name):
    return next(item for item in harness._search_inputs() if item[0] == name)


@pytest.mark.parametrize("name", ["affine-line", "abelian-2"])
def test_search_consistency_catches_a_dropped_survivor(monkeypatch, name):
    real = harness.postlie_search
    monkeypatch.setattr(harness, "postlie_search", lambda lie, bound: real(lie, bound)[:-1])
    assert not harness._eval_search_consistency(_search_item(name)).ok


@pytest.mark.parametrize("name", ["affine-line", "abelian-2"])
def test_search_consistency_catches_an_extra_box_point(monkeypatch, name):
    real = harness.postlie_search

    def with_extra(lie, bound):
        found = real(lie, bound)
        kept = {r.output.op("mul") for r in found}
        mul = next(m for _, m in search.iter_postlie_candidates(lie, bound) if m not in kept)
        extra = HomAlgebra(lie.dim, "hom-postlie", {"bracket": lie.op("bracket"), "mul": mul},
                           lie.alpha)
        return found + [FunctorResult(extra, homcore.check_axioms(extra))]

    monkeypatch.setattr(harness, "postlie_search", with_extra)
    assert not harness._eval_search_consistency(_search_item(name)).ok


@pytest.mark.parametrize("flipped", [None, 0, homcore._BATCH_WIDTH + 1, 3 ** 8 - 1])
def test_search_consistency_catches_a_flipped_prelie_verdict(monkeypatch, flipped):
    """On a zero bracket every candidate is certified as a post-Lie and as
    a pre-Lie algebra, in one stream each; one pre-Lie verdict flipped, in
    any batch, fails the property (and with none flipped, it passes)."""
    real, streams = harness.check_on_box, []

    def flipping(laws, env, unknown, basis, points):
        kind = next(k for k, group in homcore._declare_identities().items() if group is laws)
        kinds = set()
        streams.append(kinds)
        for idx, report in enumerate(real(laws, env, unknown, basis, points)):
            kinds.add(kind)
            if kind == "hom-prelie" and idx == flipped:
                report = dataclasses.replace(report, passed=not report.passed)
            yield report

    monkeypatch.setattr(harness, "check_on_box", flipping)
    assert harness._eval_search_consistency(_search_item("abelian-2")).ok == (flipped is None)
    assert sorted(map(sorted, streams)) == [["hom-postlie"], ["hom-prelie"]]
