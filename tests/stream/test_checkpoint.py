"""Checkpoint/restore: killed runs resume bit-identically."""

import json

import pytest

from repro import obs
from repro.stream import (
    StreamEngine,
    StreamRunConfig,
    build_engine,
    capture,
    restore_into,
)
from repro.stream.checkpoint import (
    FORMAT,
    INCIDENTAL_COUNTERS,
    INCIDENTAL_TIMERS,
    VERSION,
    CheckpointError,
    decode_node,
    encode_node,
    load_checkpoint,
    save_checkpoint,
)

CONFIG = StreamRunConfig(
    topology="gt_itm:24",
    network_seed=31,
    seed=31,
    requests=5_000,
    arrival_rate=3.0,
)


def small_config(requests=600, **overrides):
    data = CONFIG.as_dict()
    data.update(requests=requests, **overrides)
    return StreamRunConfig.from_dict(data)


class TestNodeCodec:
    @pytest.mark.parametrize(
        "node", [0, 17, "v3", 2.5, ("grid", 3, 4), (0, 1)]
    )
    def test_round_trip(self, node):
        encoded = json.loads(json.dumps(encode_node(node)))
        assert decode_node(encoded) == node

    def test_tuples_become_tagged_lists(self):
        assert encode_node((1, 2)) == {"t": [1, 2]}
        assert decode_node({"t": [1, 2]}) == (1, 2)


class TestEveryBoundary:
    """The tentpole differential: kill at *every* snapshot boundary of a
    5k-request churn run and resume; every resumed run must reproduce the
    straight-through decision digest and final residuals bit-for-bit."""

    @pytest.mark.slow
    def test_resume_at_every_boundary_is_bit_identical(self):
        documents = []
        straight = build_engine(
            CONFIG,
            checkpoint_every=500,
            # JSON round-trip at capture time: what a resumed process
            # reads is exactly what survives serialization.
            checkpoint_sink=lambda engine: documents.append(
                json.loads(
                    json.dumps(capture(engine, meta=CONFIG.as_dict()))
                )
            ),
        )
        straight.run()
        reference_digest = straight.stats.digest
        reference_residuals = straight.algorithm.network.snapshot()
        assert len(documents) == 10  # boundaries at 500, 1000, ..., 5000

        for document in documents:
            resumed = build_engine(CONFIG)
            restore_into(resumed, document)
            resumed.run()
            boundary = document["stats"]["processed"]
            assert resumed.stats.digest == reference_digest, boundary
            assert resumed.stats.processed == CONFIG.requests
            assert resumed.algorithm.network.snapshot() == (
                reference_residuals
            ), boundary


class TestFileRoundTrip:
    def test_save_load_resume(self, tmp_path):
        config = small_config()
        path = str(tmp_path / "run.ckpt")

        straight = build_engine(config)
        straight.run()

        partial = build_engine(config)
        partial.run(max_events=250)
        save_checkpoint(path, partial, meta=config.as_dict())

        document = load_checkpoint(path)
        assert document["format"] == FORMAT
        assert document["version"] == VERSION
        restored_config = StreamRunConfig.from_dict(document["meta"])
        assert restored_config == config

        resumed = build_engine(restored_config)
        restore_into(resumed, document)
        resumed.run()
        assert resumed.stats.digest == straight.stats.digest
        assert resumed.stats.state() == straight.stats.state()

    def test_save_is_atomic_no_partial_file_on_crash(self, tmp_path):
        # A directory in place of the target makes os.replace fail after
        # the temp file was written; the temp file must not survive.
        config = small_config(requests=20)
        engine = build_engine(config)
        engine.run()
        target = tmp_path / "blocked.ckpt"
        target.mkdir()
        with pytest.raises(OSError):
            save_checkpoint(str(target), engine, meta=config.as_dict())
        leftovers = [
            p for p in tmp_path.iterdir() if p.name != "blocked.ckpt"
        ]
        assert leftovers == []


class TestValidation:
    def test_restore_refuses_used_engine(self):
        config = small_config(requests=40)
        donor = build_engine(config)
        donor.run(max_events=20)
        document = capture(donor, meta=config.as_dict())

        used = build_engine(config)
        used.run(max_events=5)
        with pytest.raises(CheckpointError):
            restore_into(used, document)

    @staticmethod
    def refused_untouched(document, config, donor, match):
        fresh = build_engine(config)
        before = fresh.algorithm.network.snapshot()
        assert donor.algorithm.network.snapshot() != before
        with pytest.raises(CheckpointError, match=match):
            restore_into(fresh, document)
        assert fresh.algorithm.network.snapshot() == before

    @pytest.mark.parametrize(
        "section",
        [
            "network",
            "active",
            "heap",
            "stream",
            "stats",
            "algorithm",
            # nested keys, each read by a section reader
            "network.links",
            "network.servers",
            "active.0.departs_at",
            "active.0.request.source",
            "heap.entries",
            "heap.next_seq",
            "stream.timing_rng",
            "stream.generator.next_id",
            "stats.digest",
            "stats.cost_histogram.bounds",
            "algorithm.admitted_total",
            "algorithm.rejected_total",
        ],
    )
    def test_restore_refuses_missing_section_before_touching(self, section):
        config = small_config(requests=40)
        donor = build_engine(config)
        donor.run(max_events=20)
        document = capture(donor, meta=config.as_dict())
        *parents, key = [
            int(part) if part.isdigit() else part
            for part in section.split(".")
        ]
        container = document
        for part in parents:
            container = container[part]
        del container[key]
        self.refused_untouched(document, config, donor, repr(key))

    @pytest.mark.parametrize("kind", ["links", "servers"])
    @pytest.mark.parametrize("residual", [-5.0, 1e9])
    def test_restore_refuses_impossible_residual_before_touching(
        self, kind, residual
    ):
        # allocate and release clamp every residual to [0, capacity], so
        # no captured document holds one outside it
        config = small_config(requests=40)
        donor = build_engine(config)
        donor.run(max_events=20)
        document = capture(donor, meta=config.as_dict())
        document["network"][kind][0][-2] = residual
        self.refused_untouched(document, config, donor, "outside")

    def test_failure_schedule_cannot_be_checkpointed(self):
        # format v1 records no failure state (pending recoveries, dropped
        # requests, repaired trees), so both directions must refuse
        config = small_config(requests=40)
        plain = build_engine(config)
        with_failures = StreamEngine(
            plain.algorithm, plain.stream, failures=[]
        )
        with_failures.run(max_events=5)
        with pytest.raises(CheckpointError):
            capture(with_failures, meta=config.as_dict())

        donor = build_engine(config)
        donor.run(max_events=5)
        document = capture(donor, meta=config.as_dict())
        fresh = build_engine(config)
        target = StreamEngine(fresh.algorithm, fresh.stream, failures=[])
        with pytest.raises(CheckpointError):
            restore_into(target, document)

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(
            json.dumps({"format": FORMAT, "version": VERSION + 1})
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_load_rejects_unparseable_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


class TestTelemetryContinuity:
    """Resume restores the obs registry and the emitter mid-stream."""

    def test_counters_and_emitter_match_modulo_incidentals(self):
        config = small_config(emit_every=100)

        obs.enable()
        obs.reset()
        straight = build_engine(config)
        straight.run()
        straight_snap = obs.snapshot()
        straight_seq = straight.emitter.seq

        obs.reset()
        partial = build_engine(config)
        partial.run(max_events=300)
        document = json.loads(
            json.dumps(capture(partial, meta=config.as_dict()))
        )
        obs.reset()  # the "fresh process"
        resumed = build_engine(config)
        restore_into(resumed, document)
        resumed.run()
        resumed_snap = obs.snapshot()

        assert resumed.stats.digest == straight.stats.digest
        assert resumed.emitter.seq == straight_seq

        # Value-based metrics are bit-identical; the documented
        # incidental counters/timers (cache warm-up, run() invocation
        # counts) are excluded, and wall-clock timer totals compare on
        # count only.
        for name, value in straight_snap["counters"].items():
            if name in INCIDENTAL_COUNTERS:
                continue
            assert resumed_snap["counters"].get(name) == value, name
        assert straight_snap["histograms"] == resumed_snap["histograms"]
        for name, stat in straight_snap["timers"].items():
            if name in INCIDENTAL_TIMERS:
                continue
            assert resumed_snap["timers"][name]["count"] == stat["count"], (
                name
            )
