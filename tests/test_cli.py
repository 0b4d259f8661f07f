"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def dataset_files(tmp_path, rng):
    data = rng.integers(0, 2, (64, 16), dtype=np.uint8)
    queries = rng.integers(0, 2, (4, 16), dtype=np.uint8)
    d, q = tmp_path / "data.npy", tmp_path / "queries.npy"
    np.save(d, data)
    np.save(q, queries)
    return str(d), str(q), data, queries


class TestSearch:
    def test_search_prints_results(self, dataset_files, capsys):
        d, q, data, queries = dataset_files
        assert main(["search", d, q, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "4 queries, k=3" in out
        assert out.count("q") >= 4

    def test_search_saves_indices(self, dataset_files, tmp_path):
        d, q, data, queries = dataset_files
        out = tmp_path / "idx.npy"
        main(["search", d, q, "-k", "2", "--out", str(out)])
        idx = np.load(out)
        assert idx.shape == (4, 2)
        # verify against the library directly
        from repro.core.engine import APSimilaritySearch

        ref = APSimilaritySearch(data, k=2, execution="functional").search(queries)
        assert (idx == ref.indices).all()

    def test_gen2_flag(self, dataset_files, capsys):
        d, q, *_ = dataset_files
        main(["search", d, q, "--device", "gen2"])
        assert "gen2 device time" in capsys.readouterr().out

    def test_workers_flag_identical_results(self, dataset_files, capsys):
        d, q, data, queries = dataset_files
        main(["search", d, q, "-k", "3", "--board-capacity", "16",
              "--execution", "functional", "--workers", "2"])
        out = capsys.readouterr().out
        assert "workers=2" in out
        from repro.core.engine import APSimilaritySearch

        ref = APSimilaritySearch(
            data, k=3, board_capacity=16, execution="functional"
        ).search(queries)
        for qi in range(3):
            pair = f"{ref.indices[qi][0]}:{ref.distances[qi][0]}"
            assert f"q{qi}: {pair}" in out

    def test_cache_flag_reports_stats(self, dataset_files, capsys):
        d, q, *_ = dataset_files
        main(["search", d, q, "--board-capacity", "16",
              "--execution", "functional", "--cache-size", "8"])
        out = capsys.readouterr().out
        assert "image cache" in out
        assert "4 entries" in out  # 64 vectors / 16 per board

    def test_devices_flag_matches_single_board(self, dataset_files, capsys):
        d, q, data, queries = dataset_files
        main(["search", d, q, "-k", "3", "--board-capacity", "16",
              "--execution", "functional", "--devices", "2",
              "--workers", "2", "--backend", "thread"])
        out = capsys.readouterr().out
        assert "2 device(s)" in out
        from repro.core.engine import APSimilaritySearch

        ref = APSimilaritySearch(
            data, k=3, board_capacity=16, execution="functional"
        ).search(queries)
        for qi in range(3):
            pair = f"{ref.indices[qi][0]}:{ref.distances[qi][0]}"
            assert f"q{qi}: {pair}" in out

    @pytest.mark.parametrize("flags", [
        ["--workload", "jaccard", "-k", "3"],
        ["--workload", "range", "--radius", "5"],
    ])
    def test_every_workload_takes_devices_and_batch(
        self, dataset_files, capsys, tmp_path, flags
    ):
        """One local path: --devices and --batch (the admission layer)
        serve every workload, bit-identically to the plain run."""
        d, q, *_ = dataset_files
        rows = {}
        for label, extra in (("plain", []),
                             ("devices", ["--devices", "2"]),
                             ("batched", ["--batch", "4"])):
            out_file = tmp_path / f"{label}.npy"
            assert main(["search", d, q, "--board-capacity", "16",
                         "--out", str(out_file), *flags, *extra]) == 0
            out = capsys.readouterr().out
            assert f"workload={flags[1]}" in out
            assert ("2 device(s)" in out) == (label == "devices")
            rows[label] = ([ln for ln in out.splitlines()
                            if ln.startswith("q")], np.load(out_file))
        for label in ("devices", "batched"):
            assert rows[label][0] == rows["plain"][0]
            assert (rows[label][1] == rows["plain"][1]).all()

    def test_non_bit_inputs_rejected_not_narrowed(
        self, dataset_files, tmp_path, capsys, non_binary
    ):
        d, q, data, queries = dataset_files
        bad_d, bad_q = str(tmp_path / "bad_d.npy"), str(tmp_path / "bad_q.npy")
        np.save(bad_d, non_binary(data))
        np.save(bad_q, non_binary(queries))
        assert main(["search", bad_d, q]) == 2
        assert "dataset must be binary" in capsys.readouterr().err
        assert main(["search", d, bad_q]) == 2
        assert "queries must be binary" in capsys.readouterr().err
        out = tmp_path / "bad_d.pds"
        assert main(["pack", bad_d, str(out)]) == 1
        assert "dataset must be binary" in capsys.readouterr().err
        assert not out.exists()

    def test_devices_below_one_rejected(self, dataset_files, capsys):
        d, q, *_ = dataset_files
        assert main(["search", d, q, "--devices", "0"]) == 2
        assert "--devices must be >= 1" in capsys.readouterr().err

    def test_devices_beyond_dataset_rejected(self, dataset_files, capsys):
        d, q, *_ = dataset_files  # dataset has 64 vectors
        assert main(["search", d, q, "--devices", "65"]) == 2
        assert "exceeds the dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "serve"])
    def test_transport_flag_is_gone(self, command, dataset_files, capsys):
        d, q, *_ = dataset_files
        argv = [command, d] + ([q] if command == "search" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--transport", "pickle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --transport" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "serve"])
    def test_pinned_backend_is_gone(self, command, dataset_files, capsys):
        d, q, *_ = dataset_files
        argv = [command, d] + ([q] if command == "search" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--backend", "pinned"])
        assert exc.value.code == 2
        assert (
            "argument --backend: invalid choice: 'pinned'"
            in capsys.readouterr().err
        )

    def test_cache_dir_warm_start_reports_zero_recompiles(
        self, dataset_files, tmp_path, capsys
    ):
        d, q, *_ = dataset_files
        cache_dir = str(tmp_path / "imgcache")
        args = ["search", d, q, "--board-capacity", "16",
                "--execution", "functional", "--cache-dir", cache_dir]
        main(args)
        cold = capsys.readouterr().out
        assert "4 recompile(s)" in cold
        main(args)  # fresh cache instance, same directory: warm start
        warm = capsys.readouterr().out
        assert "0 recompile(s)" in warm
        assert "(4 from disk)" in warm


class TestPack:
    def test_pack_info_and_verify(self, dataset_files, tmp_path, capsys):
        d, q, data, queries = dataset_files
        out = tmp_path / "data.pds"
        assert main(["pack", d]) == 0  # default output: src with .pds
        assert "# packed 64 x 16 (512 payload bytes)" in capsys.readouterr().out
        assert main(["pack", "--info", str(out)]) == 0
        info = capsys.readouterr().out
        for field in (".pds v2", "layout 2", "n=64, d=16",
                      "0.5 stored bytes per bit", "1 chunk(s) of 32768 rows"):
            assert field in info
        assert main(["pack", "--verify", str(out)]) == 0
        assert "ok — 1 chunk(s)" in capsys.readouterr().out
        # a search over the packed file prints what the .npy search does
        main(["search", d, q, "-k", "3", "--execution", "functional"])
        want = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("q")]
        main(["search", str(out), q, "-k", "3", "--execution", "functional",
              "--cache-size", "8"])
        got = capsys.readouterr().out
        assert [ln for ln in got.splitlines() if ln.startswith("q")] == want
        assert "0 recompile(s)" in got  # view passes compile nothing

    def test_verify_names_the_first_bad_chunk(
        self, dataset_files, tmp_path, capsys
    ):
        from repro.core.dataset import write_pds

        _, _, data, _ = dataset_files
        out = tmp_path / "chunks.pds"
        hdr = write_pds(out, data, chunk_rows=16)
        blob = bytearray(out.read_bytes())
        for row in (40, 60):  # chunks 2 and 3
            blob[hdr.payload_offset + 8 * row] ^= 0x04
        out.write_bytes(bytes(blob))
        assert main(["pack", "--info", str(out)]) == 0  # the header is fine
        capsys.readouterr()
        assert main(["pack", "--verify", str(out)]) == 1
        err = capsys.readouterr().err
        assert "chunk 2 (rows [32, 48))" in err and "chunk 3" not in err
        # neither converting nor serving a corrupt file merges an answer
        assert main(["pack", str(out), str(tmp_path / "copy.pds")]) == 1
        assert "chunk 2" in capsys.readouterr().err
        assert not (tmp_path / "copy.pds").exists()

    def test_pack_converts_a_version_1_file(
        self, dataset_files, tmp_path, capsys
    ):
        from repro.core.dataset import PackedDataset
        from tests.conftest import write_pds_v1

        _, q, data, _ = dataset_files
        old = write_pds_v1(tmp_path / "old.pds", data)
        assert main(["pack", "--info", old]) == 0
        info = capsys.readouterr().out
        assert ".pds v1, layout 1" in info and "1 stored bytes per bit" in info
        assert "0 chunk(s)" in info
        assert main(["pack", "--verify", old]) == 0
        assert main(["pack", old]) == 2  # onto itself: needs an output
        new = tmp_path / "new.pds"
        capsys.readouterr()
        assert main(["pack", old, str(new)]) == 0
        assert main(["pack", "--info", str(new)]) == 0
        assert ".pds v2, layout 2" in capsys.readouterr().out
        assert new.stat().st_size < (tmp_path / "old.pds").stat().st_size
        assert np.array_equal(PackedDataset.open(new).rows(0, 64), data)
        assert PackedDataset.open(new).digest == PackedDataset.open(old).digest
        main(["search", old, q, "-k", "3", "--execution", "functional"])
        served_old = capsys.readouterr().out
        main(["search", str(new), q, "-k", "3", "--execution", "functional"])
        served_new = capsys.readouterr().out
        assert [ln for ln in served_old.splitlines() if ln.startswith("q")] == [
            ln for ln in served_new.splitlines() if ln.startswith("q")
        ]


class TestCompileSimulate:
    def test_compile_to_stdout(self, capsys):
        assert main(["compile", "ab+c"]) == 0
        out = capsys.readouterr().out
        assert "<automata-network" in out

    def test_compile_simulate_roundtrip(self, tmp_path, capsys):
        anml = tmp_path / "net.anml"
        main(["compile", "GAATTC", "--report-code", "7", "--out", str(anml)])
        stream = tmp_path / "input.txt"
        stream.write_bytes(b"xxGAATTCyyGAATTC")
        main(["simulate", str(anml), str(stream)])
        out = capsys.readouterr().out
        assert "2 reports" in out
        assert "cycle=7 code=7" in out and "cycle=15 code=7" in out

    def test_compile_optimized(self, capsys):
        assert main(["compile", "a(b|b)c", "--optimize"]) == 0
        err = capsys.readouterr().err
        assert "optimized" in err

    def test_simulate_limit(self, tmp_path, capsys):
        anml = tmp_path / "net.anml"
        main(["compile", "a", "--out", str(anml)])
        stream = tmp_path / "aaa.txt"
        stream.write_bytes(b"a" * 30)
        main(["simulate", str(anml), str(stream), "--limit", "5"])
        out = capsys.readouterr().out
        assert "(25 more)" in out


class TestTables:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Xeon E5-2620" in out and "kNN-TagSpace" in out


class TestServeAndRemote:
    """CLI shard service: `repro serve` + `repro search --remote`."""

    def test_serve_then_remote_search_matches_local(
        self, dataset_files, capsys
    ):
        from repro.host.rpc import serve_shard

        d, q, data, queries = dataset_files
        # in-process servers (the CLI `serve` path is the same
        # serve_shard + serve_forever; subprocess spawning is covered
        # by the RPC process tests)
        servers = [
            serve_shard(data, i, 2, execution="functional").start()
            for i in range(2)
        ]
        addresses = ",".join(
            "{}:{}".format(*s.address) for s in servers
        )
        try:
            assert main(["search", "-", q, "--remote", addresses,
                         "-k", "3"]) == 0
            remote_out = capsys.readouterr().out
        finally:
            for s in servers:
                s.close()
        assert "2/2 shard(s) answered" in remote_out
        assert "transport=rpc" in remote_out
        assert main(["search", d, q, "-k", "3",
                     "--execution", "functional"]) == 0
        local_out = capsys.readouterr().out
        remote_rows = [ln for ln in remote_out.splitlines()
                       if ln.startswith("q")]
        local_rows = [ln for ln in local_out.splitlines()
                      if ln.startswith("q")]
        assert remote_rows == local_rows

    def test_remote_unreachable_is_an_error(self, dataset_files, capsys):
        _, q, *_ = dataset_files
        assert main(["search", "-", q, "--remote", "127.0.0.1:1",
                     "--timeout-s", "0.5", "--retries", "0"]) == 1
        assert "cannot reach shard rack" in capsys.readouterr().err

    def test_local_search_rejects_dash_dataset(self, dataset_files, capsys):
        _, q, *_ = dataset_files
        assert main(["search", "-", q]) == 2
        assert "only valid with --remote" in capsys.readouterr().err

    def test_serve_rejects_bad_shard_spec(self, dataset_files, capsys):
        d, *_ = dataset_files
        assert main(["serve", d, "--shard", "3/2"]) == 2
        assert "--shard" in capsys.readouterr().err


class TestStats:
    def test_stats_pretty_and_json(self, capsys):
        from repro.perf.metrics import MetricsRegistry, start_metrics_server

        reg = MetricsRegistry()
        reg.counter("t_requests_total", "help", labelnames=("type",)).labels(
            type="search"
        ).inc(3)
        reg.gauge("t_depth", "help").set(2)
        reg.histogram("t_wait_seconds", "help", buckets=(0.1,)).observe(0.05)
        server = start_metrics_server(0, registry=reg, host="127.0.0.1")
        try:
            addr = f"127.0.0.1:{server.port}"
            assert main(["stats", addr]) == 0
            out = capsys.readouterr().out
            assert "t_requests_total{type=search} = 3" in out
            assert "t_depth = 2" in out
            assert "t_wait_seconds = 1 / 0.05 / 0.05" in out

            assert main(["stats", addr, "--json"]) == 0
            import json

            doc = json.loads(capsys.readouterr().out)
            assert [m["name"] for m in doc["metrics"]] == [
                "t_depth", "t_requests_total", "t_wait_seconds"
            ]
        finally:
            server.close()

    def test_stats_unreachable_is_an_error(self, capsys):
        assert main(["stats", "127.0.0.1:1", "--timeout-s", "0.5"]) == 1
        assert "cannot fetch metrics" in capsys.readouterr().err


class TestPackaging:
    def test_declared_metadata_matches_package(self):
        """pyproject.toml is the metadata setup.py defers to: the name,
        the version (read from ``repro.__version__``) and the ``repro``
        console script must resolve — `UNKNOWN 0.0.0` was the bug."""
        pytest.importorskip("setuptools")
        import subprocess
        import sys
        from pathlib import Path

        import repro

        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out[-2:] == ["repro", repro.__version__]
        assert 'repro = "repro.cli:main"' in (root / "pyproject.toml").read_text()
