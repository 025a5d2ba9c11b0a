"""The two-core path of the chunked writers: a forked child formats the
back half of a writer's chunks. Its file must equal the one-process
file byte for byte, whatever becomes of the child, and no child or
temporary file may outlive a writer call."""

import json
import math
import os
import signal
import tempfile
import time

import numpy as np
import pytest

from shadowevap import csvio, heatmap
from shadowevap.cli import main
from shadowevap.csvio import ROWS_PER_CHUNK as K
from shadowevap.csvio import JsonRecords, write_columns, write_json_report
from shadowevap.errors import IoError
from shadowevap.heatmap import render_heatmap

SIZES = [K - 1, K, K + 1, 2 * K, 2 * K + 1, 3 * K + 5]


def csv_writer(n, path):
    """Columns with a -0.0, a NaN only in the last chunk and values
    repeated across chunks."""
    b = np.random.default_rng(n).normal(size=n)
    b[-1] = math.nan
    x = np.arange(n) % 281 * 0.25 - 35.0
    x[[0, -1]] = -0.0
    write_columns(path, ["x_mm", "b", "c"], [x, b, np.arange(n) % 3 * 1e-3])


def svg_writer(n, path):
    i = np.arange(n)
    points = np.column_stack(
        (i % 281 * 0.25 - 35.0, i // 281 * 0.25 - 35.0, np.random.default_rng(n).normal(size=n))
    )
    points[0, :2] = points[-1, 0] = -0.0
    points[-1, 2] = math.nan
    render_heatmap(points, "area_um2", path)


def json_writer(n, path):
    cv = np.random.default_rng(n).normal(size=n)
    cv[0], cv[-1] = -0.0, math.nan
    labels = [f"w{i % 5}" for i in range(n)]
    labels[0] = 3
    records = JsonRecords(cv_percent=cv, n_runs=np.arange(n) % 4, wafer_id=labels)
    # Three containers deep, its values nested: each line takes the
    # indent of the line json left for it.
    deep = JsonRecords(m=[[i % 3, {"k": [i]}] for i in range(n)], x=-cv)
    write_json_report({"per_junction": records, "n": n, "w": {"by": [{"records": deep}]}}, path)


WRITERS = {"csv": csv_writer, "svg": svg_writer, "json": json_writer}
#: RowChunks a writer call hands to `write_text`, each of which forks
#: once when it has two or more chunks.
ROW_CHUNKS = {"csv": 1, "svg": 1, "json": 2}


@pytest.fixture(autouse=True)
def no_leftovers(tmp_path, monkeypatch):
    """Temporary files go to their own directory, which each test must
    leave empty, with every child reaped."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(scratch) == []


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def counted_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def serial_bytes(writer, n, path, monkeypatch):
    with monkeypatch.context() as m:
        cpus(m, 1)
        forks = counted_forks(m)
        WRITERS[writer](n, path)
    assert forks == []
    return path.read_bytes()


def in_child(parent, action):
    """A wrapper of a function that runs `action` first in a forked
    child only."""

    def wrap(real):
        def wrapped(*args):
            if os.getpid() != parent:
                action()
            return real(*args)

        return wrapped

    return wrap


# The function each writer's chunks call, which a test makes misbehave.
CHUNK_HOOKS = {
    "csv": (csvio, "_formatted"),
    "svg": (heatmap, "_rgb"),
    "json": (csvio, "encode_basestring_ascii"),
}


def hook(monkeypatch, writer, wrap):
    owner, name = CHUNK_HOOKS[writer]
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))


class TestForkedEqualsSerial:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("writer", WRITERS)
    def test_bytes(self, tmp_path, monkeypatch, writer, n):
        expected = serial_bytes(writer, n, tmp_path / "serial", monkeypatch)
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        WRITERS[writer](n, tmp_path / "forked")
        assert forks == ([1] * ROW_CHUNKS[writer] if n > K else [])
        assert (tmp_path / "forked").read_bytes() == expected

    def test_json_serial_is_the_encoder(self, tmp_path, monkeypatch):
        n = 2 * K + 1
        path = tmp_path / "r.json"
        serial_bytes("json", n, path, monkeypatch)
        report = json.loads(path.read_text())
        assert len(report["per_junction"]) == len(report["w"]["by"][0]["records"]) == n
        assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


class TestChildFailure:
    """A child that fails leaves its half to the parent."""

    @pytest.mark.parametrize("how", ["exits", "killed"])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_same_bytes(self, tmp_path, monkeypatch, writer, how):
        n = 2 * K + 1
        expected = serial_bytes(writer, n, tmp_path / "serial", monkeypatch)
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)

        def fail():
            if how == "exits":
                raise RuntimeError("child fails")
            os.kill(os.getpid(), signal.SIGKILL)

        hook(monkeypatch, writer, in_child(os.getpid(), fail))
        WRITERS[writer](n, tmp_path / "forked")
        assert forks == [1] * ROW_CHUNKS[writer]
        assert (tmp_path / "forked").read_bytes() == expected


class TestParentFailure:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_parent_error_kills_the_child(self, tmp_path, monkeypatch, writer):
        """The child would sleep 30 s; the parent's error ends it at once."""
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        parent = os.getpid()

        def wrap(real):
            def wrapped(*args):
                if os.getpid() != parent:
                    time.sleep(30)
                    os._exit(0)
                if forks:
                    raise RuntimeError("parent fails")
                return real(*args)

            return wrapped

        hook(monkeypatch, writer, wrap)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="parent fails"):
            WRITERS[writer](2 * K + 1, tmp_path / "out")
        assert time.perf_counter() - start < 15
        assert forks == [1]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_missing_directory(self, tmp_path, monkeypatch, writer):
        cpus(monkeypatch, 2)
        with pytest.raises(IoError, match="cannot write"):
            WRITERS[writer](2 * K + 1, tmp_path / "missing" / "out")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("writer", WRITERS)
    def test_full_device(self, monkeypatch, writer):
        """Writing fails in the parent's half, after the fork."""
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        with pytest.raises(IoError, match="cannot write /dev/full"):
            WRITERS[writer](3 * K + 5, "/dev/full")
        assert forks == [1]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_cli_exits_3(self, tmp_path, monkeypatch, capsys):
        """A 1 mm grid has 5,041 sites, two chunks."""
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        config = tmp_path / "process.yaml"
        config.write_text("{}\n")
        simulate = ["simulate", "--config", str(config), "--grid-pitch-mm", "1", "--out"]
        assert main(simulate + ["/dev/full"]) == 3
        assert "cannot write /dev/full" in capsys.readouterr().err
        assert main(simulate + [str(tmp_path / "no" / "s.csv")]) == 3
        assert forks == [1]
