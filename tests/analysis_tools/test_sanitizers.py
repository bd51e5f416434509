"""Runtime sanitizers: armed via KAML_SANITIZE, raise InvariantError."""

import pytest

from repro import sanitize
from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.errors import InvariantError
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.kaml.record import PageAssembly, Record, encode_bitmap
from repro.sanitize import LockOrderRecorder, _transitive_closure
from repro.sim import Environment
from repro.ssd.nvram import NvramBuffer


@pytest.fixture
def armed():
    sanitize.set_enabled(True)
    yield
    sanitize.set_enabled(None)


class FakeAssembly:
    """Hand-built chunk runs so tests can violate PageAssembly invariants."""

    def __init__(self, runs, chunks_per_page=64, bitmap=None):
        self.chunks_per_page = chunks_per_page
        self._runs = runs
        self._bitmap = bitmap

    def chunk_runs(self):
        return self._runs

    def bitmap(self):
        if self._bitmap is not None:
            return self._bitmap
        return encode_bitmap(nchunks for _start, nchunks in self._runs)


def test_enabled_reads_environment(monkeypatch):
    sanitize.set_enabled(None)
    monkeypatch.setenv("KAML_SANITIZE", "1")
    assert sanitize.enabled()
    sanitize.set_enabled(None)
    monkeypatch.setenv("KAML_SANITIZE", "0")
    assert not sanitize.enabled()
    sanitize.set_enabled(None)


def test_check_page_assembly_accepts_real_assembly():
    assembly = PageAssembly(chunks_per_page=64, chunk_size=128)
    assembly.add(Record(1, 10, "a", 200))
    assembly.add(Record(1, 11, "b", 500))
    sanitize.check_page_assembly(assembly)


def test_check_page_assembly_rejects_gap_overlap_and_overflow():
    with pytest.raises(InvariantError, match="SAN-CHUNK.*gap"):
        sanitize.check_page_assembly(FakeAssembly([(0, 2), (3, 1)]))
    with pytest.raises(InvariantError, match="SAN-CHUNK.*overlaps"):
        sanitize.check_page_assembly(FakeAssembly([(0, 2), (1, 2)]))
    with pytest.raises(InvariantError, match="SAN-CHUNK"):
        sanitize.check_page_assembly(FakeAssembly([(0, 65)], chunks_per_page=64))


def test_check_page_assembly_rejects_bitmap_mismatch():
    bad = FakeAssembly([(0, 2)], bitmap=encode_bitmap([3]))
    with pytest.raises(InvariantError, match="SAN-CHUNK.*round-trip"):
        sanitize.check_page_assembly(bad)


def test_check_unpin_requires_prior_pin():
    with pytest.raises(InvariantError, match="SAN-PIN"):
        sanitize.check_unpin({}, (0, 0, 1))
    sanitize.check_unpin({(0, 0, 1): 2}, (0, 0, 1))  # pinned: fine


def test_nvram_assert_drained():
    env = Environment()
    nvram = NvramBuffer(env, capacity_bytes=4096)

    def flow():
        handle = yield nvram.reserve(1024, payload="staged")
        return handle

    proc = env.process(flow())
    env.run()
    with pytest.raises(InvariantError, match="SAN-NVRAM"):
        nvram.assert_drained()
    nvram.release(proc.value)
    nvram.assert_drained()


def make_small_ssd():
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=1, flush_timeout_us=200.0),
    )
    return env, KamlSsd(env, config)


def test_gc_workload_passes_relocation_checks(armed):
    """Churn enough to trigger GC; every relocation is cross-checked live."""
    env, ssd = make_small_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=4))
        for i in range(400):
            yield from ssd.put([PutItem(nsid, i % 4, ("v", i), 2048)])
            yield env.timeout(1500.0)
        yield from ssd.drain()

    env.process(flow())
    env.run()
    assert ssd.metrics.total("kaml.log.gc.erased_blocks", log=0) > 0
    ssd.close()  # nothing leaked: pins drained, NVRAM empty


def test_close_reports_leaked_pin(armed):
    env, ssd = make_small_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=4))
        yield from ssd.put([PutItem(nsid, 1, "v", 1024)])
        yield from ssd.drain()

    env.process(flow())
    env.run()
    ssd._pins[(0, 0, 0)] = 1  # simulate a reader that never unpinned
    with pytest.raises(InvariantError, match="SAN-PIN.*leaked"):
        ssd.close()


def test_close_reports_leaked_nvram(armed):
    env, ssd = make_small_ssd()

    def flow():
        yield ssd.nvram.reserve(512, payload="orphan")

    env.process(flow())
    env.run()
    with pytest.raises(InvariantError, match="SAN-NVRAM"):
        ssd.close()


def test_recorder_raises_on_runtime_cycle():
    recorder = LockOrderRecorder()
    recorder.on_acquire("p1", "A", "SiteA")
    recorder.on_granted("p1", "A", "SiteA")
    recorder.on_acquire("p1", "B", "SiteB")  # edge A -> B
    recorder.on_granted("p1", "B", "SiteB")
    recorder.on_release("p1", "B")
    recorder.on_release("p1", "A")
    recorder.on_acquire("p2", "B", "SiteB")
    recorder.on_granted("p2", "B", "SiteB")
    with pytest.raises(InvariantError, match="SAN-LOCK.*cycle"):
        recorder.on_acquire("p2", "A", "SiteA")  # edge B -> A closes the cycle
    assert ("A", "B") in recorder.edges()


def test_recorder_ignores_same_instance_reacquire():
    recorder = LockOrderRecorder()
    recorder.on_acquire("p1", "A", "SiteA")
    recorder.on_granted("p1", "A", "SiteA")
    recorder.on_acquire("p1", "A", "SiteA")  # no self-edge
    assert recorder.edges() == []


def test_check_static_flags_unexplained_edges():
    recorder = LockOrderRecorder()
    recorder.on_granted("p1", "a", "SiteA")
    recorder.on_acquire("p1", "b", "SiteB")
    assert recorder.site_edges() == [("SiteA", "SiteB")]
    # Direct static edge explains it.
    assert recorder.check_static({("SiteA", "SiteB")}) == []
    # So does a transitive static path A -> C -> B.
    assert recorder.check_static({("SiteA", "SiteC"), ("SiteC", "SiteB")}) == []
    # An empty static graph does not.
    assert recorder.check_static(set()) == [("SiteA", "SiteB")]


def test_transitive_closure():
    closure = _transitive_closure({("a", "b"), ("b", "c")})
    assert ("a", "c") in closure
    assert ("c", "a") not in closure


def test_simlock_records_per_environment(armed):
    """Recorders attach to the Environment, so parallel sims stay isolated."""
    from repro.sim import SimLock

    env = Environment()
    lock_a = SimLock(env, name="a", static_site="T.a")
    lock_b = SimLock(env, name="b", static_site="T.b")

    def flow():
        yield lock_a.acquire()
        yield lock_b.acquire()
        lock_b.release()
        lock_a.release()

    env.process(flow())
    env.run()
    recorder = sanitize.recorder_for(env)
    assert recorder.edges() == [("a", "b")]
    assert recorder.site_edges() == [("T.a", "T.b")]
    other = Environment()
    assert sanitize.recorder_for(other).edges() == []
