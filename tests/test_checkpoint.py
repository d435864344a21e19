import json
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import matcha.checkpoint
from matcha.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from matcha.errors import CheckpointFormatError, CheckpointIntegrityError, NumericError, ShapeError
from matcha.model import init_params
from matcha.training import TENSOR_NAMES
from conftest import maps_the_file
from oracles import load_checkpoint_bytes, save_checkpoint_buffered


def first_tensor_offset(data):
    """Byte offset of the first tensor record (its u32 name length)."""
    return 16 + struct.unpack("<Q", data[8:16])[0]


def rewrite_manifest(path, manifest):
    data = open(path, "rb").read()
    new_manifest = json.dumps(manifest).encode()
    open(path, "wb").write(data[:8] + struct.pack("<Q", len(new_manifest)) + new_manifest
                           + data[first_tensor_offset(data):])


def unpadded(data):
    """The container in the layout written before the padding: its manifest without the trailing spaces."""
    end = first_tensor_offset(data)
    manifest = data[16:end].rstrip(b" ")
    return data[:8] + struct.pack("<Q", len(manifest)) + manifest + data[end:]


def assert_padded(data):
    """Fewer than 64 trailing spaces after the manifest JSON put the embedding's data on a multiple of 64 bytes."""
    assert 0 <= len(data) - len(unpadded(data)) < 64
    assert tensor_data(data)["embedding"][0] % 64 == 0


def roundtrip(tmp_path, params, name="p.ckpt"):
    path = str(tmp_path / name)
    save_checkpoint(params, path)
    return path, load_checkpoint(path)


class TestRoundTrip:
    def test_bit_exact_tensors(self, tmp_path):
        for trial in range(5):
            params = init_params(11, 6, 3, max_len=33, margin=0.75, seed=trial)
            _, loaded = roundtrip(tmp_path, params, f"t{trial}.ckpt")
            for name in TENSOR_NAMES:
                assert np.array_equal(getattr(loaded, name), getattr(params, name)), name

    def test_manifest_fields(self, tmp_path):
        params = init_params(7, 4, 2, max_len=9, margin=0.5, seed=0)
        _, loaded = roundtrip(tmp_path, params)
        assert loaded.hyper.dim == 4
        assert loaded.hyper.n_ctx == 2
        assert loaded.hyper.max_len == 9
        assert loaded.hyper.margin == 0.5
        assert loaded.vocab_size == 7

    def test_save_is_deterministic(self, tmp_path):
        params = init_params(7, 4, 2, seed=1)
        a = str(tmp_path / "a.ckpt")
        b = str(tmp_path / "b.ckpt")
        save_checkpoint(params, a)
        save_checkpoint(params, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_overwrite_existing(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(init_params(4, 2, 1, seed=0), path)
        params = init_params(4, 2, 1, seed=9)
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.embedding, params.embedding)

    def test_save_onto_a_loaded_file_leaves_the_loaded_table(self, tmp_path):
        # The save writes a new file and renames it over the path, so the table's map keeps the old file's pages.
        path, loaded = roundtrip(tmp_path, init_params(3000, 16, 2, seed=0))
        before = loaded.embedding.copy()
        assert maps_the_file(loaded.embedding)
        other = init_params(3000, 16, 2, seed=1)
        save_checkpoint(other, path)
        assert np.array_equal(loaded.embedding, before) and not np.array_equal(before, other.embedding)
        assert np.array_equal(load_checkpoint(path).embedding, other.embedding)

    def test_padding_puts_the_table_on_64_bytes_at_every_manifest_length(self, tmp_path):
        # max_len of 1 to 80 digits moves the manifest JSON across more than one 64-byte span.
        path = str(tmp_path / "p.ckpt")
        for digits in range(1, 81):
            params = init_params(3, 2, 1, max_len=int("9" * digits), seed=0)
            save_checkpoint(params, path)
            assert_padded(open(path, "rb").read())
            assert load_checkpoint(path).hyper == params.hyper

    def test_embedding_is_a_read_only_view_of_the_file(self, tmp_path):
        _, loaded = roundtrip(tmp_path, init_params(7, 4, 2, seed=2))
        assert maps_the_file(loaded.embedding)
        with pytest.raises(ValueError):
            loaded.embedding.flags.writeable = True
        # The float64 tensors are converted copies, so their maps are gone.
        assert not any(maps_the_file(getattr(loaded, name)) for name in TENSOR_NAMES[1:])


    def test_loads_read_only_tensors_and_copy_is_writeable(self, tmp_path):
        _, loaded = roundtrip(tmp_path, init_params(7, 4, 2, seed=2))
        copied = loaded.copy()
        for name in TENSOR_NAMES:
            tensor = getattr(loaded, name)
            assert tensor.dtype == (np.float32 if name == "embedding" else np.float64), name
            assert tensor.flags.aligned and tensor.flags.c_contiguous, name
            assert not tensor.flags.writeable, name
            with pytest.raises(ValueError):
                tensor[0] = 0.0
            # Frozen before the reshape: the view cannot be made writeable again.
            with pytest.raises(ValueError):
                tensor.flags.writeable = True
            assert getattr(copied, name).flags.writeable, name
            assert getattr(copied, name).dtype == np.float64, name
            assert np.array_equal(getattr(copied, name), tensor), name

    def test_save_of_a_load_reproduces_the_file(self, tmp_path):
        params = init_params(50, 8, 3, max_len=21, margin=0.3, seed=4)
        params.proj_bias = np.random.default_rng(4).normal(0, 10.0, params.proj_bias.shape)
        path, loaded = roundtrip(tmp_path, params)
        again = str(tmp_path / "again.ckpt")
        save_checkpoint(loaded, again)
        assert open(again, "rb").read() == open(path, "rb").read()

    def test_load_allocates_the_table_once(self, tmp_path):
        # A mapped table is no heap allocation. An unaligned one is copied once: a copy or a float64
        # conversion more would at least double the peak.
        for layout in ("padded", "unaligned"):
            loaded, peak, others = traced_load(table_file(tmp_path, layout))
            if layout == "padded":
                assert maps_the_file(loaded.embedding) and peak < 2 * others + 64 * 1024, peak
            else:
                assert loaded.embedding.nbytes <= peak < 1.25 * loaded.embedding.nbytes + 2 * others, peak


def table_file(tmp_path, layout):
    """A saved V=20,000, D=32, N_c=1 checkpoint: as written ("padded"), or without the padding with an
    embedding whose data starts off a 4-byte boundary ("unaligned", the older layout)."""
    path = str(tmp_path / f"{layout}.ckpt")
    save_checkpoint(init_params(20000, 32, 1, seed=5), path)
    if layout == "unaligned":
        data = unpadded(open(path, "rb").read())
        assert tensor_data(data)["embedding"][0] % 4
        open(path, "wb").write(data)
    return path


def traced_load(path):
    """(params, the heap peak tracemalloc saw while loading them, the bytes of the three float64 tensors)."""
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return loaded, peak, sum(getattr(loaded, name).nbytes for name in TENSOR_NAMES[1:])


class TestAgainstOracle:
    @pytest.mark.parametrize("vocab, dim, n_ctx", [(1, 1, 1), (7, 3, 5), (33, 16, 4), (5000, 64, 2)])
    def test_writer_bytes_and_reader_tensors_match_oracle(self, tmp_path, vocab, dim, n_ctx):
        rng = np.random.default_rng(vocab)
        margin = float(rng.uniform(0.1, 2.0))
        manifest_lengths = set()
        # max_len of 1 to 4 digits puts the unpadded manifest, and so every tensor, at each offset mod 4.
        for max_len in (7, 42, 512, 4096):
            params = init_params(vocab, dim, n_ctx, max_len=max_len, margin=margin, seed=vocab)
            # Full float64 values: the float32 rounding must match too.
            params.proj_bias = rng.normal(0, 10.0, params.proj_bias.shape)
            new, old = str(tmp_path / "new.ckpt"), str(tmp_path / "old.ckpt")
            save_checkpoint(params, new)
            save_checkpoint_buffered(params, old)
            data, old_data = open(new, "rb").read(), open(old, "rb").read()
            assert unpadded(data) == old_data
            assert_padded(data)
            manifest_lengths.add(struct.unpack("<Q", old_data[8:16])[0] % 4)
            loaded_ref = load_checkpoint_bytes(old)
            assert load_checkpoint_bytes(new).hyper == loaded_ref.hyper
            # Both layouts load aligned: the padded one maps its table, an unaligned older one copies it.
            for path in (new, old):
                loaded = load_checkpoint(path)
                assert loaded.hyper == loaded_ref.hyper
                for name in TENSOR_NAMES:
                    assert np.array_equal(getattr(loaded, name), getattr(loaded_ref, name)), name
                    assert getattr(loaded, name).flags.aligned, name
                assert loaded.embedding.dtype == np.float32 and not loaded.embedding.flags.writeable
                unaligned = path == old and tensor_data(old_data)["embedding"][0] % 4
                assert maps_the_file(loaded.embedding) != bool(unaligned)
        assert manifest_lengths == {0, 1, 2, 3}


class TestCorruption:
    def test_every_truncation_is_a_checkpoint_error(self, tmp_path):
        path, _ = roundtrip(tmp_path, init_params(3, 2, 2, seed=0))
        data = open(path, "rb").read()
        cut = str(tmp_path / "cut.ckpt")
        for size in range(len(data)):
            open(cut, "wb").write(data[:size])
            with pytest.raises((CheckpointFormatError, CheckpointIntegrityError)):
                load_checkpoint(cut)

    @pytest.mark.parametrize("cut_from_end", [0, 1, 4, 30])
    def test_short_read_is_truncation(self, tmp_path, monkeypatch, cut_from_end):
        # The file is shorter than its size said when it was opened (it shrank, say).
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) - cut_from_end])
        fstat = matcha.checkpoint.os.fstat
        monkeypatch.setattr(matcha.checkpoint, "os", SimpleNamespace(
            fstat=lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + cut_from_end + 8)))
        with pytest.raises(CheckpointFormatError, match="p.ckpt: truncated at byte"):
            load_checkpoint(path)

    def test_non_finite_entry_names_file_tensor_and_offset(self, tmp_path):
        params = init_params(4, 2, 1, seed=0)
        path, _ = roundtrip(tmp_path, params)
        data = bytearray(open(path, "rb").read())
        name = b"conversion"
        at = data.rindex(struct.pack("<I", len(name)) + name) + 4 + len(name) + 4 + 2 * 8 + 4 * 3
        for value in (float("nan"), float("inf"), -float("inf")):
            data[at : at + 4] = struct.pack("<f", value)
            open(path, "wb").write(bytes(data))
            with pytest.raises(CheckpointIntegrityError,
                               match=f"p.ckpt: tensor 'conversion' has a non-finite float32 at byte {at}$"):
                load_checkpoint(path)

    @pytest.mark.parametrize("margin", [float("inf"), float("nan")])
    def test_save_refuses_a_margin_the_loader_refuses(self, tmp_path, margin):
        with pytest.raises(ShapeError, match="margin must be a finite number > 0"):
            init_params(4, 2, 1, margin=margin)
        params = init_params(4, 2, 1, seed=1)
        params.hyper.margin = margin
        with pytest.raises(ShapeError, match="margin must be a finite number > 0"):
            save_checkpoint(params, str(tmp_path / "p.ckpt"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, value", [("embedding", 1e39), ("proj_bias", -3.5e38), ("conversion", 1e300),
                                             ("proj_weight", float("nan"))])
    def test_save_beyond_float32_range_raises_and_keeps_old_file(self, tmp_path, name, value):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        before = open(path, "rb").read()
        params = init_params(4, 2, 1, seed=1)
        getattr(params, name).flat[-1] = value
        with pytest.raises(NumericError, match=f"p.ckpt: tensor '{name}'"):
            save_checkpoint(params, path)
        assert open(path, "rb").read() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.ckpt"]


    def test_bad_magic(self, tmp_path):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        data = bytearray(open(path, "rb").read())
        data[:4] = b"JUNK"
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        data = bytearray(open(path, "rb").read())
        data[4:8] = struct.pack("<I", 99)
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_manifest_dim_mismatch(self, tmp_path):
        # manifest claims D=8 while the stored conversion tensor is 4x4
        path, _ = roundtrip(tmp_path, init_params(4, 4, 1, seed=0))
        data = open(path, "rb").read()
        manifest_len = struct.unpack("<Q", data[8:16])[0]
        manifest = json.loads(data[16 : 16 + manifest_len])
        manifest["D"] = 8
        new_manifest = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        patched = data[:8] + struct.pack("<Q", len(new_manifest)) + new_manifest + data[16 + manifest_len :]
        open(path, "wb").write(patched)
        with pytest.raises(CheckpointIntegrityError, match="shape"):
            load_checkpoint(path)

    def test_manifest_missing_key(self, tmp_path):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        data = open(path, "rb").read()
        manifest_len = struct.unpack("<Q", data[8:16])[0]
        manifest = json.loads(data[16 : 16 + manifest_len])
        del manifest["margin"]
        new_manifest = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        patched = data[:8] + struct.pack("<Q", len(new_manifest)) + new_manifest + data[16 + manifest_len :]
        open(path, "wb").write(patched)
        with pytest.raises(CheckpointIntegrityError, match="margin"):
            load_checkpoint(path)

    def test_unreadable_manifest(self, tmp_path):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        data = bytearray(open(path, "rb").read())
        data[16] = 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError, match="manifest"):
            load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        params = init_params(4, 2, 1, seed=0)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, path)
        data = open(path, "rb").read()
        # drop the trailing conversion tensor record
        name = b"conversion"
        idx = data.rindex(struct.pack("<I", len(name)) + name)
        open(path, "wb").write(data[:idx])
        with pytest.raises(CheckpointIntegrityError, match="missing"):
            load_checkpoint(path)

    def test_manifest_not_an_object(self, tmp_path):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        rewrite_manifest(path, 7)
        with pytest.raises(CheckpointIntegrityError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("margin", "x"),
        ("margin", float("nan")),
        ("margin", True),
        ("max_len", 3.7),
        ("D", True),
        ("N_c", "2"),
        ("vocab_size", None),
    ])
    def test_manifest_field_type(self, tmp_path, key, value):
        params = init_params(4, 2, 1, seed=0)
        path, _ = roundtrip(tmp_path, params)
        manifest = {"D": 2, "N_c": 1, "vocab_size": 4, "max_len": params.hyper.max_len, "margin": 1.0}
        manifest[key] = value
        rewrite_manifest(path, manifest)
        with pytest.raises(CheckpointIntegrityError, match=f"manifest '{key}'"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name(self, tmp_path):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        data = bytearray(open(path, "rb").read())
        start = first_tensor_offset(data)
        data[start + 4] = 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError, match=f"p.ckpt: tensor name at byte {start} is not UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rank", [65, 1000, 2**32 - 1])
    def test_rank_beyond_remaining_bytes(self, tmp_path, rank):
        # 64 x 8 float32 entries follow, so even rank 65's 520 bytes of dims fit.
        path, _ = roundtrip(tmp_path, init_params(64, 8, 1, seed=0))
        data = bytearray(open(path, "rb").read())
        rank_at = first_tensor_offset(data) + 4 + len(b"embedding")
        data[rank_at : rank_at + 4] = struct.pack("<I", rank)
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError, match=f"p.ckpt: tensor 'embedding' at byte {rank_at} has rank {rank}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(2**62, 4), (2**40, 2**40), (1, 2**61)])
    def test_dims_beyond_remaining_bytes(self, tmp_path, dims):
        path, _ = roundtrip(tmp_path, init_params(4, 2, 1, seed=0))
        data = bytearray(open(path, "rb").read())
        rank_at = first_tensor_offset(data) + 4 + len(b"embedding")
        open(path, "wb").write(bytes(data[: rank_at + 4]) + struct.pack("<QQ", *dims) + bytes(data[rank_at + 20 :]))
        with pytest.raises(CheckpointFormatError, match=rf"p.ckpt: tensor 'embedding' at byte {rank_at} has dims"):
            load_checkpoint(path)


def tensor_data(data):
    """{name: (byte offset of the tensor's float32 data, entry count)}, walking the container."""
    at, found = first_tensor_offset(data), {}
    while at < len(data):
        (name_len,) = struct.unpack_from("<I", data, at)
        name = data[at + 4 : at + 4 + name_len].decode()
        at += 4 + name_len
        (rank,) = struct.unpack_from("<I", data, at)
        dims = struct.unpack_from(f"<{rank}Q", data, at + 4)
        at += 4 + 8 * rank
        count = math.prod(dims)
        found[name] = (at, count)
        at += 4 * count
    return found


def tensor_records(data):
    """{name: (first byte of the tensor's record, byte after its data)}, in file order."""
    found, start = {}, first_tensor_offset(data)
    for name, (at, count) in tensor_data(data).items():
        found[name] = (start, at + 4 * count)
        start = at + 4 * count
    return found


def tensor_header(name, dims):
    encoded = name.encode()
    return struct.pack(f"<I{len(encoded)}sI{len(dims)}Q", len(encoded), encoded, len(dims), *dims)


def tensor_record(name, dims, value=0.5):
    """One tensor record: its header, then float32 entries all equal to `value`."""
    return tensor_header(name, dims) + np.full(math.prod(dims), value, dtype="<f4").tobytes()


def block_positions(count, block):
    """An entry in the first, a middle and the last block of a tensor of `count` entries."""
    last = (count - 1) // block
    return sorted({min(k * block + (block - 1) // 2, count - 1) for k in (0, last // 2, last)})


@pytest.fixture(params=[1, 7, 1000])
def small_block(request, monkeypatch):
    monkeypatch.setattr(matcha.checkpoint, "BLOCK", request.param)
    return request.param


class TestBlocks:
    """Save and load stream tensors in BLOCK-entry blocks; any block size gives the same bytes and errors."""

    @pytest.mark.parametrize("vocab, dim, n_ctx", [(1, 1, 1), (7, 3, 5), (33, 16, 4), (5000, 64, 2)])
    def test_bytes_and_tensors_match_oracle(self, tmp_path, small_block, vocab, dim, n_ctx):
        rng = np.random.default_rng(vocab)
        params = init_params(vocab, dim, n_ctx, max_len=42, margin=0.5, seed=vocab)
        params.proj_bias = rng.normal(0, 10.0, params.proj_bias.shape)
        new, old = str(tmp_path / "new.ckpt"), str(tmp_path / "old.ckpt")
        save_checkpoint(params, new)
        save_checkpoint_buffered(params, old)
        data = open(new, "rb").read()
        assert unpadded(data) == open(old, "rb").read()
        assert_padded(data)
        loaded, loaded_ref = load_checkpoint(new), load_checkpoint_bytes(old)
        assert loaded.hyper == loaded_ref.hyper
        for name in TENSOR_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(loaded_ref, name)), name
            assert getattr(loaded, name).flags.aligned and getattr(loaded, name).flags.c_contiguous, name

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_load_names_the_first_non_finite_entry(self, tmp_path, small_block, value):
        path, _ = roundtrip(tmp_path, init_params(33, 16, 4, max_len=42, seed=3))
        clean = open(path, "rb").read()
        for name, (start, count) in tensor_data(clean).items():
            for entry in block_positions(count, small_block):
                data = bytearray(clean)
                # A second bad entry further on, in the same or a later block: the first one is named.
                for index in {entry, count - 1}:
                    struct.pack_into("<f", data, start + 4 * index, value)
                values = np.frombuffer(bytes(data), dtype="<f4", count=count, offset=start)
                at = start + 4 * int(np.flatnonzero(~np.isfinite(values))[0])
                open(path, "wb").write(bytes(data))
                with pytest.raises(CheckpointIntegrityError,
                                   match=f"p.ckpt: tensor '{name}' has a non-finite float32 at byte {at}$"):
                    load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e39, -3.5e38])
    def test_save_of_a_non_finite_entry_keeps_the_old_file(self, tmp_path, small_block, value):
        path, _ = roundtrip(tmp_path, init_params(33, 16, 4, max_len=42, seed=3))
        before = open(path, "rb").read()
        sizes = {name: getattr(init_params(33, 16, 4), name).size for name in TENSOR_NAMES}
        for name in TENSOR_NAMES:
            for entry in block_positions(sizes[name], small_block):
                params = init_params(33, 16, 4, max_len=42, seed=4)
                getattr(params, name).flat[entry] = value
                with pytest.raises(NumericError, match=f"p.ckpt: tensor '{name}' has entries that are not finite "
                                                       "as float32$"):
                    save_checkpoint(params, path)
                assert open(path, "rb").read() == before
                assert sorted(p.name for p in tmp_path.iterdir()) == ["p.ckpt"]


class TestMemory:
    def test_save_peak_is_one_block_not_the_table(self, tmp_path, monkeypatch):
        # The float64 table's float32 copy and its mask would peak at 1.25 times the float32 table.
        params = init_params(20000, 32, 1, seed=5)
        path = str(tmp_path / "p.ckpt")
        table = params.embedding.size * 4
        for block in (matcha.checkpoint.BLOCK, 1 << 14):
            monkeypatch.setattr(matcha.checkpoint, "BLOCK", block)
            tracemalloc.start()
            try:
                save_checkpoint(params, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * block + 64 * 1024 and peak < table / 2, (block, peak)
            if block == 1 << 14:
                assert peak < table / 4, peak
        assert np.array_equal(load_checkpoint(path).embedding, params.embedding)

    def test_load_peak_is_the_table(self, tmp_path):
        # A whole-table mask of the finiteness check would add a quarter of the table, mapped or copied.
        for layout in ("padded", "unaligned"):
            loaded, peak, others = traced_load(table_file(tmp_path, layout))
            if layout == "padded":
                assert peak < 2 * others + 64 * 1024, peak
            else:
                assert loaded.embedding.nbytes <= peak < 1.05 * loaded.embedding.nbytes + 2 * others, peak


def clean_container(tmp_path):
    """(path, bytes) of a saved D=2, N_c=3, V=4 checkpoint: shapes (4, 2), (6, 2), (6,) and (2, 2)."""
    path = str(tmp_path / "p.ckpt")
    save_checkpoint(init_params(4, 2, 3, max_len=9, margin=0.5, seed=0), path)
    return path, open(path, "rb").read()


def with_manifest(data, raw=None, **changes):
    """The container with its manifest replaced by `raw` bytes, or updated with `changes`."""
    end = first_tensor_offset(data)
    manifest = raw or json.dumps({**json.loads(data[16:end]), **changes}).encode()
    return data[:8] + struct.pack("<Q", len(manifest)) + manifest + data[end:]


def with_record(data, name, record):
    start, end = tensor_records(data)[name]
    return data[:start] + record + data[end:]


@pytest.fixture()
def read_tensors(monkeypatch):
    """The names of the tensors whose data `_Reader.floats` is asked for, in order."""
    names, floats = [], matcha.checkpoint._Reader.floats
    monkeypatch.setattr(matcha.checkpoint._Reader, "floats",
                        lambda self, count, name: names.append(name) or floats(self, count, name))
    return names


class TestHeaderChecks:
    """The manifest's ranges are checked first, then each tensor header, before that tensor's data is read."""

    # Each keeps the tensor's entry count, so only the comparison with the manifest can reject it.
    @pytest.mark.parametrize("name, dims", [("embedding", (2, 4)), ("proj_weight", (2, 6)), ("proj_bias", (6, 1)),
                                            ("conversion", (1, 4))])
    def test_dims_that_disagree_are_rejected_before_the_data_is_read(self, tmp_path, read_tensors, name, dims):
        path, data = clean_container(tmp_path)
        want = init_params(4, 2, 3).hyper.shapes(4)[name]
        open(path, "wb").write(with_record(data, name, tensor_record(name, dims)))
        with pytest.raises(CheckpointIntegrityError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == f"{path}: tensor {name!r} has shape {dims}, manifest implies {want}"
        assert read_tensors == list(TENSOR_NAMES[: TENSOR_NAMES.index(name)])

    @pytest.mark.parametrize("key, value", [("D", 0), ("N_c", 0), ("max_len", 0), ("margin", 0), ("margin", -1),
                                            ("margin", -0.25)])
    def test_manifest_out_of_range_names_the_file(self, tmp_path, read_tensors, key, value):
        path, data = clean_container(tmp_path)
        open(path, "wb").write(with_manifest(data, **{key: value}))
        with pytest.raises(CheckpointIntegrityError, match=f"^{path}: manifest out of range: "):
            load_checkpoint(path)
        assert read_tensors == []

    def test_unexpected_tensor_is_rejected_at_its_header(self, tmp_path, read_tensors):
        path, data = clean_container(tmp_path)
        first = first_tensor_offset(data)
        open(path, "wb").write(data[:first] + tensor_record("extra", (2,)) + data[first:])
        with pytest.raises(CheckpointIntegrityError, match=rf"^{path}: unexpected tensors \['extra'\]$"):
            load_checkpoint(path)
        assert read_tensors == []

    def test_a_wrong_shape_before_an_unexpected_tensor_is_reported_first(self, tmp_path):
        path, data = clean_container(tmp_path)
        doctored = with_record(data, "proj_bias", tensor_record("proj_bias", (6, 1))) + tensor_record("extra", (2,))
        open(path, "wb").write(doctored)
        with pytest.raises(CheckpointIntegrityError, match=rf"^{path}: tensor 'proj_bias' has shape \(6, 1\)"):
            load_checkpoint(path)


def one_fault_files(data):
    """{case: doctored bytes}, each with one fault the byte-copying oracle reader also detects."""
    records, first = tensor_records(data), first_tensor_offset(data)
    start, end = records["conversion"]
    cases = {
        "bad_magic": b"JUNK" + data[4:],
        "bad_version": data[:4] + struct.pack("<I", 2) + data[8:],
        "unreadable_manifest": data[:16] + b"\xff" + data[17:],
        "manifest_not_object": with_manifest(data, raw=b"7"),
        "manifest_vocab_size": with_manifest(data, vocab_size=5),
        "manifest_dim": with_manifest(data, D=4),
        "manifest_n_ctx": with_manifest(data, N_c=2),
        "manifest_margin_type": with_manifest(data, margin="x"),
        "extra_first": data[:first] + tensor_record("extra", (2,)) + data[first:],
        "extra_last": data + tensor_record("extra", (2,)),
        "duplicate": data + data[start:end],
        "missing": data[:start],
        "non_utf8_name": data[: first + 4] + b"\xff" + data[first + 5 :],
        "rank": data[:start] + tensor_header("conversion", (2,) * 99)[:-8 * 99] + data[end - 16 :],
        "dims": data[:start] + tensor_header("conversion", (2**40, 2)) + data[end - 16 :],
    }
    for name, dims in [("embedding", (2, 4)), ("proj_weight", (2, 6)), ("proj_bias", (6, 1)), ("conversion", (4,))]:
        cases[f"{name}_dims"] = with_record(data, name, tensor_record(name, dims))
    cases.update({f"cut_{size}": data[:size] for size in range(len(data))})
    return cases


def test_one_fault_raises_what_the_oracle_raises(tmp_path):
    path, padded = clean_container(tmp_path)
    assert unpadded(padded) != padded
    for data in (padded, unpadded(padded)):
        for case, doctored in one_fault_files(data).items():
            open(path, "wb").write(doctored)
            with pytest.raises((CheckpointFormatError, CheckpointIntegrityError)) as caught:
                load_checkpoint(path)
            with pytest.raises(type(caught.value)) as expected:
                load_checkpoint_bytes(path)
            assert str(caught.value) == str(expected.value), case
