"""Dataset generator, renderers, rule labeler and XGTD file round-trips."""

import itertools
import struct

import numpy as np
import pytest

from crossgen import toydata as td
from crossgen.errors import ArtifactError, ConfigError


def zero_factors(intensity=0.8):
    return np.array([0.0, 0.0, intensity])


def all_label_vectors():
    for bits in itertools.product((0, 1), repeat=td.NUM_CONDITIONS):
        yield np.array(bits, dtype=np.uint8)


def test_same_seed_gives_byte_identical_datasets(tmp_path):
    a = td.generate_dataset(seed=11, n=30)
    b = td.generate_dataset(seed=11, n=30)
    td.save_dataset(a, tmp_path / "a.xgtd")
    td.save_dataset(b, tmp_path / "b.xgtd")
    assert (tmp_path / "a.xgtd").read_bytes() == (tmp_path / "b.xgtd").read_bytes()


def test_different_seed_differs(tmp_path):
    a = td.generate_dataset(seed=1, n=30)
    b = td.generate_dataset(seed=2, n=30)
    td.save_dataset(a, tmp_path / "a.xgtd")
    td.save_dataset(b, tmp_path / "b.xgtd")
    assert (tmp_path / "a.xgtd").read_bytes() != (tmp_path / "b.xgtd").read_bytes()


def test_default_rates_match_profile_at_10k():
    # Table-style imbalance profile; +/- 2% absolute at n=10,000.
    ds = td.generate_dataset(seed=5, n=10_000)
    labels = np.stack([r.labels for r in ds.records])
    freq = labels.mean(axis=0)
    np.testing.assert_allclose(freq, td.DEFAULT_POSITIVE_RATES, atol=0.02)


def test_record_invariants_small_dataset():
    ds = td.generate_dataset(seed=3, n=10, positive_rates=[0.5] * 5)
    for rec in ds.records:
        assert rec.view_a.min() >= 0.0 and rec.view_a.max() <= 1.0
        assert rec.view_b.min() >= 0.0 and rec.view_b.max() <= 1.0
        assert len(rec.report) <= td.MAX_REPORT_LEN
        assert all(tok in td.TOKEN_TO_ID for tok in rec.report)
        np.testing.assert_array_equal(td.rule_label_text(rec.report), rec.labels)
        va, vb = td.render_views(rec.labels, rec.factors)
        np.testing.assert_array_equal(va, rec.view_a)
        np.testing.assert_array_equal(vb, rec.view_b)


def test_degenerate_rates_rejected():
    with pytest.raises(ConfigError):
        td.generate_dataset(seed=0, n=20, positive_rates=[0.5, 0.5, 1.0, 0.5, 0.5])
    with pytest.raises(ConfigError):
        td.generate_dataset(seed=0, n=20, positive_rates=[0.0, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ConfigError):
        td.generate_dataset(seed=0, n=5)


def test_splits_disjoint_and_exhaustive():
    ds = td.generate_dataset(seed=9, n=103)
    parts = [set(ds.split[k].tolist()) for k in ("train", "val", "test")]
    assert sum(len(p) for p in parts) == 103
    assert set().union(*parts) == set(range(103))
    assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) and not (parts[1] & parts[2])


def test_all_zero_labels_render_fixed_background():
    va, vb = td.render_views(np.zeros(5, dtype=np.uint8), zero_factors())
    np.testing.assert_array_equal(va, td.BACKGROUND)
    np.testing.assert_array_equal(vb, td.BACKGROUND)


def test_single_condition_changes_only_its_box():
    base = np.zeros(5, dtype=np.uint8)
    for k in range(5):
        on = base.copy()
        on[k] = 1
        for view, off_img, on_img in zip(
                ("view_a", "view_b"),
                td.render_views(base, zero_factors()),
                td.render_views(on, zero_factors())):
            diff = off_img != on_img
            r0, r1, c0, c1 = td.condition_box(k, view)
            outside = diff.copy()
            outside[r0:r1, c0:c1] = False
            assert not outside.any(), f"condition {k} leaked outside its {view} box"
            assert diff[r0:r1, c0:c1].any()


def test_factorial_label_vectors_distinct_patterns():
    # all 2^5 label vectors give distinct view_a images (background excluded)
    seen = {}
    for bits in all_label_vectors():
        va, _ = td.render_views(bits, zero_factors())
        key = (va - td.BACKGROUND).tobytes()
        assert key not in seen, f"collision between {bits} and {seen.get(key)}"
        seen[key] = tuple(bits)
    assert len(seen) == 32


def test_rendering_pure_across_calls():
    labels = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
    factors = np.array([0.7, -1.2, 0.4])
    a1 = td.render_views(labels, factors)
    a2 = td.render_views(labels, factors)
    np.testing.assert_array_equal(a1[0], a2[0])
    np.testing.assert_array_equal(a1[1], a2[1])


def test_report_no_findings_phrase():
    report = td.render_report(np.zeros(5, dtype=np.uint8), style_seed=4)
    toks = list(report)
    i = toks.index("no")
    assert toks[i + 1] == "findings"
    for name in td.CONDITIONS:
        assert name not in toks


def test_report_contains_condition_phrase_once():
    labels = np.array([0, 0, 1, 0, 0], dtype=np.uint8)
    report = td.render_report(labels, style_seed=17)
    assert list(report).count(td.CONDITIONS[2]) == 1


def test_report_roundtrip_all_labels_and_seeds():
    for bits in all_label_vectors():
        for seed in (0, 1, 37, 71):
            rep = td.render_report(bits, seed)
            np.testing.assert_array_equal(td.rule_label_text(rep), bits)


def test_labeler_empty_and_negation():
    np.testing.assert_array_equal(td.rule_label_text(()), np.zeros(5, dtype=np.uint8))
    np.testing.assert_array_equal(
        td.rule_label_text(("no", td.CONDITIONS[3], "marker")),
        np.zeros(5, dtype=np.uint8))
    np.testing.assert_array_equal(
        td.rule_label_text(("junktoken", td.CONDITIONS[1])),
        np.array([0, 1, 0, 0, 0], dtype=np.uint8))


def test_two_style_seeds_same_labels_bleu_below_one():
    from crossgen.evalkit import bleu
    labels = np.array([1, 0, 0, 1, 0], dtype=np.uint8)
    r1 = td.render_report(labels, style_seed=3)
    r2 = td.render_report(labels, style_seed=10)
    np.testing.assert_array_equal(td.rule_label_text(r1), td.rule_label_text(r2))
    assert bleu(list(r1), [list(r2)], max_n=1)[0] < 1.0


def test_factor_bucket_consistency_with_report_descriptors():
    rng = np.random.default_rng(12)
    for _ in range(50):
        factors = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                            rng.uniform(0.25, 1.0)])
        b = td.factor_bucket(factors)
        assert 0 <= b < td.NUM_FACTOR_BUCKETS
        labels = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
        rep = td.render_report(labels, b)
        # descriptor words appear for non-empty label sets
        assert any(t in td._X_WORDS for t in rep)
        assert any(t in td._I_WORDS for t in rep)


@pytest.mark.parametrize("name, count", [("train", 25), ("train", None), ("val", 1),
                                         ("test", None), ("test", 0)])
def test_generate_subset_renders_the_records_of_generate_dataset(name, count, monkeypatch):
    ref = td.generate_dataset(seed=9, n=120).subset(name)[:count]
    rendered = []
    render = td.render_views
    monkeypatch.setattr(td, "render_views",
                        lambda *a: rendered.append(1) or render(*a))
    got = td.generate_subset(9, 120, name, count)
    assert len(rendered) == len(got) == len(ref)  # the records it returns, no others
    for a, b in zip(got, ref):
        assert (a.id, a.report) == (b.id, b.report)
        for field in ("view_a", "view_b", "labels", "factors"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_save_dataset_returns_the_checksums_of_the_files_it_wrote(tmp_path):
    import hashlib
    path = tmp_path / "toy.xgtd"
    checksums = td.save_dataset(td.generate_dataset(seed=2, n=12), path)
    assert checksums == tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in (path, td.sidecar_path(path)))


def test_load_dataset_parses_the_bytes_it_is_given(tmp_path):
    path = tmp_path / "toy.xgtd"
    td.save_dataset(td.generate_dataset(seed=2, n=12), path)
    raw, sidecar_raw = path.read_bytes(), td.sidecar_path(path).read_bytes()
    path.unlink()
    td.sidecar_path(path).unlink()
    back = td.load_dataset(path, raw, sidecar_raw)
    assert len(back.records) == 12 and back.split["train"].size == 8


def _load(path):
    """``load_dataset`` on the bytes of the dataset file ``path`` and its sidecar."""
    return td.load_dataset(path, path.read_bytes(), td.sidecar_path(path).read_bytes())


def test_dataset_file_roundtrip(tmp_path):
    ds = td.generate_dataset(seed=21, n=40, positive_rates=[0.5] * 5)
    path = tmp_path / "toy.xgtd"
    td.save_dataset(ds, path)
    back = _load(path)
    assert back.seed == ds.seed
    assert len(back.records) == len(ds.records)
    for a, b in zip(ds.records, back.records):
        assert a.id == b.id
        np.testing.assert_array_equal(a.view_a, b.view_a)
        np.testing.assert_array_equal(a.view_b, b.view_b)
        assert a.report == b.report
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.factors, b.factors)
    for name in ("train", "val", "test"):
        np.testing.assert_array_equal(ds.split[name], back.split[name])
    # save-load-save is byte stable
    td.save_dataset(back, tmp_path / "again.xgtd")
    assert (tmp_path / "again.xgtd").read_bytes() == path.read_bytes()


def _packed_file(ds) -> bytes:
    """The XGTD layout packed field by field with struct: the reference."""
    cells, width = td.VIEW_SIZE ** 2, td.MAX_REPORT_LEN
    out = [td.XGTD_MAGIC, struct.pack("<HqHH", td.XGTD_VERSION, ds.seed,
                                      td.NUM_CONDITIONS, len(td.VOCAB))]
    out += [struct.pack("<H", len(t.encode())) + t.encode() for t in td.VOCAB]
    out.append(struct.pack("<I", len(ds.records)))
    for rec in ds.records:
        ids = [td.TOKEN_TO_ID[t] for t in rec.report]
        out.append(struct.pack(f"<I{cells}d{cells}dH{width}H{td.NUM_CONDITIONS}B3d",
                               rec.id, *rec.view_a.ravel(), *rec.view_b.ravel(),
                               len(ids), *ids, *[0] * (width - len(ids)),
                               *rec.labels, *rec.factors))
    return b"".join(out)


def test_dataset_file_matches_a_per_record_struct_packing(tmp_path):
    ds = td.generate_dataset(seed=5, n=300)
    path = tmp_path / "toy.xgtd"
    td.save_dataset(ds, path)
    assert path.read_bytes() == _packed_file(ds)


def test_dataset_file_rejects_corruption(tmp_path):
    ds = td.generate_dataset(seed=2, n=12)
    path = tmp_path / "toy.xgtd"
    td.save_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"NOPE"
    bad = tmp_path / "bad.xgtd"
    bad.write_bytes(bytes(raw))
    (tmp_path / "bad.xgtd.splits.json").write_text("{}")
    with pytest.raises(ArtifactError):
        _load(bad)


def _with_first_report_length(tmp_path, length):
    ds = td.generate_dataset(seed=2, n=12)
    path = tmp_path / "toy.xgtd"
    td.save_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    # a record: u4 id, two 16x16 f8 views, u2 length, 32 u2 ids, 5 u1 labels, 3 f8
    views = 2 * 8 * td.VIEW_SIZE ** 2
    record = 4 + views + 2 + 2 * td.MAX_REPORT_LEN + td.NUM_CONDITIONS + 3 * 8
    at = len(raw) - 12 * record + 4 + views
    raw[at:at + 2] = struct.pack("<H", length(len(ds.records[0].report)))
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("length, message", [
    (lambda n: 0, "report length"),
    (lambda n: td.MAX_REPORT_LEN + 8, "report length"),
    (lambda n: n + 1, "pad token inside a report"),
], ids=["zero", "above_max", "pad_inside"])
def test_dataset_file_rejects_a_bad_report_length(tmp_path, length, message):
    with pytest.raises(ArtifactError, match=message):
        _load(_with_first_report_length(tmp_path, length))


def test_loaded_records_keep_their_types(tmp_path):
    ds = td.generate_dataset(seed=5, n=20)
    path = tmp_path / "toy.xgtd"
    td.save_dataset(ds, path)
    for rec in _load(path).records:
        assert type(rec.id) is int and type(rec.report) is tuple
        for view in (rec.view_a, rec.view_b):
            assert view.dtype == np.float64 and view.shape == (td.VIEW_SIZE, td.VIEW_SIZE)
            assert view.flags.c_contiguous
        assert rec.labels.dtype == np.uint8 and rec.labels.shape == (td.NUM_CONDITIONS,)
        assert rec.factors.dtype == np.float64 and rec.factors.shape == (3,)


BAD_SIDECARS = {
    "not_json": "not json",
    "not_an_object": "[]",
    "no_train": '{"val": [], "test": []}',
    "index_past_the_end": '{"train": [12], "val": [], "test": []}',
    "negative_index": '{"train": [-1], "val": [], "test": []}',
    "not_an_index": '{"train": [1.0], "val": [], "test": []}',
    "not_a_list": '{"train": 3, "val": [], "test": []}',
}


@pytest.mark.parametrize("case", sorted(BAD_SIDECARS))
def test_dataset_load_rejects_a_malformed_sidecar_naming_it(tmp_path, case):
    path = tmp_path / "toy.xgtd"
    td.save_dataset(td.generate_dataset(seed=2, n=12), path)
    td.sidecar_path(path).write_text(BAD_SIDECARS[case])
    with pytest.raises(ArtifactError, match=f"^{td.sidecar_path(path)}: split sidecar"):
        _load(path)


def test_dataset_load_keeps_the_three_splits_of_a_valid_sidecar(tmp_path):
    path = tmp_path / "toy.xgtd"
    td.save_dataset(td.generate_dataset(seed=2, n=12), path)
    td.sidecar_path(path).write_text('{"train": [0, 11], "val": [], "test": [5]}')
    split = _load(path).split
    assert sorted(split) == ["test", "train", "val"]
    assert split["train"].tolist() == [0, 11] and split["val"].dtype == np.int64


@pytest.mark.parametrize("cut", [2, 10, 300, 5000])
def test_a_truncated_dataset_file_names_itself(tmp_path, cut):
    path = tmp_path / "toy.xgtd"
    td.save_dataset(td.generate_dataset(seed=2, n=12), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ArtifactError, match=f"^{path}: truncated dataset file"):
        _load(path)


def _first_record_ids_at():
    # after the header, the first record's u4 id, two 16x16 f8 views and u2 length
    header = 4 + 2 + 8 + 2 + 2 + sum(2 + len(t.encode()) for t in td.VOCAB) + 4
    return header + 4 + 2 * 8 * td.VIEW_SIZE ** 2 + 2


#: case -> (byte offset to overwrite, or None to append; the bytes; the message)
DATASET_DEFECTS = {
    "bad_magic": (0, b"NOPE", "bad magic"),
    "version": (4, struct.pack("<H", 2), "unsupported dataset format version 2"),
    "conditions": (14, struct.pack("<H", 4), "condition count 4"),
    "vocabulary": (20, b"[", "vocabulary does not match"),
    "token_id": (_first_record_ids_at(), struct.pack("<H", 999), "token id out of range"),
    "trailing": (None, b"\0", "1 trailing bytes"),
    "not_utf8": (20, b"\xff", "a text field of the dataset file is not UTF-8"),
}


@pytest.mark.parametrize("case", sorted(DATASET_DEFECTS))
def test_a_malformed_dataset_file_names_itself_and_its_defect(tmp_path, case):
    path = tmp_path / "toy.xgtd"
    td.save_dataset(td.generate_dataset(seed=2, n=12), path)
    at, patch, message = DATASET_DEFECTS[case]
    raw = bytearray(path.read_bytes())
    if at is None:
        raw += patch
    else:
        raw[at:at + len(patch)] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match=f"^{path}: {message}"):
        _load(path)
