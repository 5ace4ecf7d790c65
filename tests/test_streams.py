import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dualora import numerics as nm
from dualora import streams as st
from dualora.errors import DataError, FormatError, InputError, InvalidInputError


def small_dataset(seed=0, noise=0.05, classes=4, n_train=5, n_test=3, side=8):
    return st.gen_synthetic(classes, n_train, n_test, side, 1, noise, nm.make_rng(seed))


class TestGenSynthetic:
    def test_zero_noise_samples_equal_template(self):
        ds = small_dataset(noise=0.0)
        for c in range(ds.num_classes):
            block = ds.train_images[c * 5 : (c + 1) * 5]
            assert np.array_equal(block, np.broadcast_to(block[0], block.shape))

    def test_nearest_template_oracle_classifies_perfectly(self):
        # oracle: nearest template in raw pixel space over the generated set
        ds = st.gen_synthetic(2, 10, 10, 8, 1, 0.05, nm.make_rng(3))
        templates = np.stack(
            [ds.train_images[ds.train_labels == c].mean(axis=0) for c in range(2)]
        )
        for images, labels in ((ds.train_images, ds.train_labels), (ds.test_images, ds.test_labels)):
            flat = images.reshape(len(images), -1)
            t = templates.reshape(2, -1)
            d2 = ((flat[:, None, :] - t[None]) ** 2).sum(axis=2)
            assert np.array_equal(d2.argmin(axis=1), labels)

    def test_pixels_clamped_to_unit_interval(self):
        ds = small_dataset(noise=0.8)
        assert ds.train_images.min() >= 0.0 and ds.train_images.max() <= 1.0

    def test_deterministic_given_seed(self):
        a, b = small_dataset(seed=7), small_dataset(seed=7)
        assert np.array_equal(a.train_images, b.train_images)
        assert np.array_equal(a.test_images, b.test_images)

    def test_too_few_classes(self):
        with pytest.raises(DataError):
            st.gen_synthetic(1, 2, 2, 8, 1, 0.1, nm.make_rng(0))

    def test_negative_noise(self):
        with pytest.raises(InvalidInputError):
            st.gen_synthetic(2, 2, 2, 8, 1, -0.1, nm.make_rng(0))


class TestSplitTasks:
    def test_twenty_tasks_of_five(self):
        ds = st.gen_synthetic(100, 1, 1, 4, 1, 0.0, nm.make_rng(0))
        stream = st.split_tasks(ds, 20)
        assert len(stream.tasks) == 20
        assert all(len(t.classes) == 5 for t in stream.tasks)

    def test_single_task_degenerate(self):
        ds = small_dataset()
        stream = st.split_tasks(ds, 1)
        assert len(stream.tasks) == 1
        assert stream.tasks[0].classes == (0, 1, 2, 3)

    def test_divisibility_error(self):
        ds = st.gen_synthetic(10, 1, 1, 4, 1, 0.0, nm.make_rng(0))
        with pytest.raises(DataError):
            st.split_tasks(ds, 3)

    def test_empty_train_split_names_the_task(self):
        ds = st.gen_synthetic(4, 0, 2, 4, 1, 0.0, nm.make_rng(0))
        with pytest.raises(DataError, match=r"task 1 .* no train samples"):
            st.split_tasks(ds, 2)

    def test_empty_test_split_names_the_task(self):
        ds = st.gen_synthetic(4, 2, 1, 4, 1, 0.0, nm.make_rng(0))
        keep = ds.test_labels < 2  # drop the test samples of task 2's classes
        ds.test_images, ds.test_labels = ds.test_images[keep], ds.test_labels[keep]
        with pytest.raises(DataError, match=r"task 2 .* no test samples"):
            st.split_tasks(ds, 2)

    def test_disjoint_and_covering(self):
        ds = st.gen_synthetic(12, 2, 1, 4, 1, 0.0, nm.make_rng(1))
        stream = st.split_tasks(ds, 4)
        seen = set()
        for task in stream.tasks:
            assert not (seen & set(task.classes))
            seen |= set(task.classes)
        assert seen == set(range(12))

    def test_local_label_mapping(self):
        ds = small_dataset()
        stream = st.split_tasks(ds, 2)
        task2 = stream.tasks[1]
        assert task2.classes == (2, 3)
        local = task2.train_labels_local
        assert set(local) == {0, 1}
        assert np.array_equal(np.array(task2.classes)[local], task2.train_labels)

    @pytest.mark.parametrize(
        "relabel, message",
        [({2: 5}, "training label 5,"), ({3: 2}, r"classes \[3\]"), ({2: 0, 3: 2}, "label 0,")],
        ids=["foreign", "missing", "both"],
    )
    def test_local_labels_are_exactly_the_task_classes(self, relabel, message):
        task = st.split_tasks(small_dataset(), 2).tasks[1]
        task.train_labels = np.array([relabel.get(int(y), int(y)) for y in task.train_labels])
        with pytest.raises(DataError, match=message):
            task.train_labels_local

    def test_contiguous_ascending_default_order(self):
        ds = small_dataset()
        stream = st.split_tasks(ds, 2)
        assert stream.tasks[0].classes == (0, 1)

    def test_seeded_class_permutation(self):
        ds = st.gen_synthetic(8, 1, 1, 4, 1, 0.0, nm.make_rng(2))
        a = st.split_tasks(ds, 2, class_order_rng=nm.make_rng(5))
        b = st.split_tasks(ds, 2, class_order_rng=nm.make_rng(5))
        assert a.tasks[0].classes == b.tasks[0].classes
        flat = [c for t in a.tasks for c in t.classes]
        assert sorted(flat) == list(range(8))

    def test_samples_follow_their_classes(self):
        ds = small_dataset(noise=0.0)
        stream = st.split_tasks(ds, 2)
        for task in stream.tasks:
            assert set(np.unique(task.train_labels)) == set(task.classes)
            assert set(np.unique(task.test_labels)) == set(task.classes)


class TestDatasetFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = small_dataset(seed=9, noise=0.1)
        path = tmp_path / "data.clld"
        st.save_dataset(path, ds)
        loaded = st.load_dataset(path)
        assert np.array_equal(loaded.train_images, ds.train_images)
        assert np.array_equal(loaded.test_images, ds.test_images)
        assert np.array_equal(loaded.train_labels, ds.train_labels)
        assert np.array_equal(loaded.test_labels, ds.test_labels)
        second = tmp_path / "again.clld"
        st.save_dataset(second, loaded)
        assert path.read_bytes() == second.read_bytes()

    def test_same_seed_byte_identical_file(self, tmp_path):
        p1, p2 = tmp_path / "a.clld", tmp_path / "b.clld"
        st.save_dataset(p1, small_dataset(seed=4))
        st.save_dataset(p2, small_dataset(seed=4))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "data.clld"
        st.save_dataset(path, small_dataset())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(FormatError, match="offset"):
            st.load_dataset(path)

    def test_bad_magic_names_expected(self, tmp_path):
        path = tmp_path / "data.clld"
        st.save_dataset(path, small_dataset())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WHAT"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="CLLD"):
            st.load_dataset(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "data.clld"
        st.save_dataset(path, small_dataset())
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            st.load_dataset(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "data.clld"
        st.save_dataset(path, small_dataset())
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            st.load_dataset(path)

    # magic plus seven u32 fields; every pixel and label after it is 4 bytes
    HEADER = 4 + 7 * 4

    def test_out_of_range_label_rejected(self, tmp_path):
        ds = small_dataset()
        ds.train_labels = ds.train_labels.copy()
        ds.train_labels[7] = 99
        path = tmp_path / "data.clld"
        st.save_dataset(path, ds)
        pixels = ds.train_images.size + ds.test_images.size
        offset = self.HEADER + 4 * (pixels + 7)
        with pytest.raises(FormatError, match=f"label outside \\[0, 4\\).* offset {offset}$"):
            st.load_dataset(path)

    def test_non_finite_pixel_rejected(self, tmp_path):
        for bad in (np.nan, np.inf):
            ds = small_dataset()
            ds.test_images = ds.test_images.copy()
            ds.test_images[2, 0, 3, 5] = bad
            path = tmp_path / "data.clld"
            st.save_dataset(path, ds)
            offset = self.HEADER + 4 * (ds.train_images.size + 2 * 64 + 3 * 8 + 5)
            with pytest.raises(FormatError, match=f"non-finite pixel.* offset {offset}$"):
                st.load_dataset(path)

    def test_forged_sizes_are_counted_past_64_bits(self, tmp_path):
        # 3 * 2**31 images of 2**32 pixels each: 3 * 2**65 bytes, more than an int64 holds
        path = tmp_path / "data.clld"
        path.write_bytes(struct.pack("<4s7I", b"CLLD", 1, 3, 2**31, 1, 1, 2**16, 2**16))
        with pytest.raises(FormatError) as exc:
            st.load_dataset(path)
        assert str(exc.value) == (
            "truncated train samples: needed 110680464442257309696 bytes at offset 32"
        )

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "data.clld"
        st.save_dataset(path, small_dataset())
        before = path.read_bytes()
        ds = small_dataset(seed=1)
        ds.test_labels = np.array(["x"] * ds.test_labels.size)  # the last array: no u32 form
        with pytest.raises(ValueError):
            st.save_dataset(path, ds)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestReplacing:
    def test_a_temp_name_that_exists_is_left_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(st.os, "urandom", lambda n: bytes(n))
        taken = tmp_path / f"out.json.{'00' * 8}.tmp"
        taken.write_bytes(b"precious")
        with pytest.raises(FileExistsError):
            with st.replacing(tmp_path / "out.json") as f:
                f.write(b"new")
        assert taken.read_bytes() == b"precious"
        assert [p.name for p in tmp_path.iterdir()] == [taken.name]


@pytest.fixture(scope="module")
def clld(tmp_path_factory):
    """A small saved dataset's bytes, and a path to write corrupted copies to."""
    path = tmp_path_factory.mktemp("clld") / "data.clld"
    st.save_dataset(path, small_dataset(noise=0.1, classes=2, n_train=2, n_test=1, side=4))
    return path.read_bytes(), path


class TestCorruptFileProperty:
    """A truncated or byte-changed file loads or raises an InputError, which
    the CLI reports in one line; no other exception escapes the reader."""

    @settings(max_examples=150)
    @given(data=hs.data())
    def test_truncated_file_raises_format_error(self, clld, data):
        raw, path = clld
        path.write_bytes(raw[: data.draw(hs.integers(0, len(raw) - 1), label="length")])
        with pytest.raises(FormatError):
            st.load_dataset(path)

    @settings(max_examples=400)
    @given(data=hs.data())
    def test_changed_byte_loads_or_raises_an_input_error(self, clld, data):
        raw, path = clld
        changed = bytearray(raw)
        at = data.draw(hs.integers(0, len(raw) - 1), label="offset")
        changed[at] = data.draw(hs.integers(0, 255).filter(lambda v: v != raw[at]), label="byte")
        path.write_bytes(bytes(changed))
        try:
            loaded = st.load_dataset(path)
        except InputError:
            return
        assert isinstance(loaded, st.Dataset)


class TestTaskStreamInvariants:
    def test_overlapping_classes_rejected(self):
        ds = small_dataset()
        stream = st.split_tasks(ds, 2)
        t0, t1 = stream.tasks
        bad = st.Task(
            task_id=2,
            classes=(1, 2),
            train_images=t1.train_images,
            train_labels=t1.train_labels,
            test_images=t1.test_images,
            test_labels=t1.test_labels,
        )
        with pytest.raises(DataError):
            st.TaskStream(tasks=[t0, bad], num_classes=4)

    @pytest.mark.parametrize(
        "classes, labels", [((3, 2), [2, 3, 3, 2]), ((4, 2, 3, 5), [2, 3, 4, 5])]
    )
    def test_classes_not_strictly_ascending_rejected(self, classes, labels):
        # np.searchsorted would map these labels to [0 2 2 0] and [0 2 3 3]
        images = np.zeros((len(labels), 1, 4, 4), dtype=np.float32)
        labels = np.array(labels, dtype=np.int64)
        with pytest.raises(DataError, match="not strictly ascending"):
            st.Task(1, classes, images, labels, images, labels)

    def test_missing_class_coverage_rejected(self):
        ds = small_dataset()
        stream = st.split_tasks(ds, 2)
        with pytest.raises(DataError):
            st.TaskStream(tasks=[stream.tasks[0]], num_classes=4)
