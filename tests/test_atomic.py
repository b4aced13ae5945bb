"""``atomic_open`` alone and inside an ``output_set``."""

import pytest

from calibrec import atomic
from calibrec.atomic import atomic_open, output_set


def names(directory):
    return sorted(p.name for p in directory.iterdir())


def write(path, text):
    with atomic_open(path) as fh:
        fh.write(text)


@pytest.fixture
def renames(monkeypatch):
    """The final names ``os.replace`` renames onto, in order."""
    calls = []
    replace = atomic.os.replace

    def spy(src, dst):
        calls.append(dst.name)
        replace(src, dst)

    monkeypatch.setattr(atomic.os, "replace", spy)
    return calls


class TestAtomicOpenAlone:
    def test_renamed_when_the_block_ends(self, tmp_path):
        with atomic_open(tmp_path / "a.txt") as fh:
            fh.write("new")
            assert names(tmp_path) == ["a.txt.partial"]
        assert names(tmp_path) == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "new"

    def test_failed_block_keeps_the_earlier_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("earlier")
        with pytest.raises(RuntimeError):
            with atomic_open(tmp_path / "a.txt") as fh:
                fh.write("half")
                raise RuntimeError("interrupted")
        assert names(tmp_path) == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "earlier"

    def test_missing_directories_created(self, tmp_path):
        with atomic_open(tmp_path / "a" / "b" / "c.txt") as fh:
            fh.write("new")
        assert (tmp_path / "a" / "b" / "c.txt").read_text() == "new"
        write(tmp_path / "a" / "d.txt", "beside")
        assert names(tmp_path / "a") == ["b", "d.txt"]

    def test_keep_existing_appends_to_a_copy(self, tmp_path):
        (tmp_path / "log").write_text("row 0\n")
        with atomic_open(tmp_path / "log", keep_existing=tmp_path / "log") as fh:
            fh.write("row 1\n")
        assert (tmp_path / "log").read_text() == "row 0\nrow 1\n"
        # another file's rows start a new one, and that file keeps its bytes
        with atomic_open(tmp_path / "new" / "log", keep_existing=tmp_path / "log") as fh:
            fh.write("row 2\n")
        assert (tmp_path / "new" / "log").read_text() == "row 0\nrow 1\nrow 2\n"
        assert (tmp_path / "log").read_text() == "row 0\nrow 1\n"


class TestOutputSet:
    def test_commits_every_file_when_the_block_returns(self, tmp_path, renames):
        with output_set():
            write(tmp_path / "b.txt", "b")
            with atomic_open(tmp_path / "a.bin", binary=True) as fh:
                fh.write(b"a")
            assert names(tmp_path) == ["a.bin.partial", "b.txt.partial"]
            assert renames == []
        assert names(tmp_path) == ["a.bin", "b.txt"]
        assert (tmp_path / "a.bin").read_bytes() == b"a"
        # in the order the files were finished
        assert renames == ["b.txt", "a.bin"]

    def test_commits_none_when_a_file_fails(self, tmp_path):
        (tmp_path / "a.txt").write_text("earlier")
        with pytest.raises(RuntimeError):
            with output_set():
                write(tmp_path / "a.txt", "new")
                with atomic_open(tmp_path / "b.txt") as fh:
                    fh.write("half")
                    raise RuntimeError("interrupted")
        assert names(tmp_path) == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "earlier"

    def test_partial_files_removed_when_the_block_raises(self, tmp_path):
        with pytest.raises(ValueError):
            with output_set():
                write(tmp_path / "a.txt", "a")
                write(tmp_path / "b.txt", "b")
                raise ValueError("stage failed after its files")
        assert names(tmp_path) == []

    def test_inner_set_joins_the_outer_one(self, tmp_path):
        with pytest.raises(RuntimeError):
            with output_set():
                with output_set():
                    write(tmp_path / "a.txt", "a")
                # the inner set's end commits nothing
                assert names(tmp_path) == ["a.txt.partial"]
                raise RuntimeError("interrupted")
        assert names(tmp_path) == []

    def test_path_finished_twice_is_renamed_once_with_its_last_bytes(self, tmp_path, renames):
        with output_set():
            write(tmp_path / "a.txt", "first")
            write(tmp_path / "b.txt", "b")
            write(tmp_path / "a.txt", "second")
        assert renames == ["b.txt", "a.txt"]
        assert (tmp_path / "a.txt").read_text() == "second"

    def test_set_usable_again_after_a_failure(self, tmp_path):
        with pytest.raises(RuntimeError):
            with output_set():
                write(tmp_path / "a.txt", "a")
                raise RuntimeError("interrupted")
        write(tmp_path / "b.txt", "b")
        assert names(tmp_path) == ["b.txt"]
