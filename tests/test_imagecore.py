import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advface import imagecore
from advface.imagecore import (
    FormatError,
    Image,
    Point,
    Polygon,
    line_pixels,
    median_filter_array,
    polygon_mask,
    read_image,
    reading,
    write_image,
)

from oracles import (bresenham_loop, dda_points, median_whole_batch, naive_median,
                     point_in_polygon)


def line_points(a, b) -> list[tuple[int, int]]:
    """line_pixels(a, b) as a list of (x, y) points."""
    return list(zip(*(v.tolist() for v in line_pixels(a, b))))


# ---------------------------------------------------------------------------
# Image type
# ---------------------------------------------------------------------------

class TestImageType:
    def test_two_dimensional_input_gains_channel_axis(self):
        img = Image(np.zeros((4, 6), dtype=np.uint8))
        assert img.pixels.shape == (4, 6, 1)
        assert (img.height, img.width, img.channels) == (4, 6, 1)

    def test_pixels_are_read_only(self):
        img = Image(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 1

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            Image(np.zeros((2, 2), dtype=np.int32))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError, match="C in"):
            Image(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Image(np.zeros((0, 3), dtype=np.uint8))

    def test_equality_is_by_content(self):
        a = Image(np.full((2, 2), 9, dtype=np.uint8))
        b = Image(np.full((2, 2), 9, dtype=np.uint8))
        c = Image(np.full((2, 2), 8, dtype=np.uint8))
        assert a == b
        assert a != c


# ---------------------------------------------------------------------------
# Netpbm codec
# ---------------------------------------------------------------------------

class TestCodec:
    def test_read_p5_2x2(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 7, 9]))
        img = read_image(f)
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.data == bytes([0, 255, 7, 9])

    def test_read_p6_3x1(self, tmp_path):
        f = tmp_path / "a.ppm"
        f.write_bytes(b"P6\n3 1\n255\n" + bytes(range(9)))
        img = read_image(f)
        assert (img.width, img.height, img.channels) == (3, 1, 3)
        assert img.data == bytes(range(9))

    def test_write_canonical_1x1(self, tmp_path):
        f = tmp_path / "a.pgm"
        write_image(Image(np.array([[128]], dtype=np.uint8)), f)
        assert f.read_bytes() == b"P5\n1 1\n255\n\x80"

    def test_write_read_round_trip_reproduces_file(self, tmp_path):
        f1 = tmp_path / "a.pgm"
        f2 = tmp_path / "b.pgm"
        f1.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        write_image(read_image(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_unsupported_magic(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P4\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match=r"unsupported magic b'P4' at byte 0"):
            read_image(f)

    def test_bad_width_token(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\nxx 2\n255\n\x00\x00")
        with pytest.raises(FormatError, match="bad width token"):
            read_image(f)

    @pytest.mark.parametrize("magic, payload", [(b"P5", bytes([0, 255, 7, 9])),
                                                (b"P6", bytes(range(12)))], ids=["P5", "P6"])
    def test_header_comments_are_skipped(self, tmp_path, magic, payload):
        plain, commented = tmp_path / "a.pnm", tmp_path / "b.pnm"
        plain.write_bytes(magic + b"\n2 2\n255\n" + payload)
        commented.write_bytes(magic + b"\n# CREATOR: GIMP PNM Filter Version 1.1\n2 # w\r"
                              b"#\n 2\n# maxval next\n255\n" + payload)
        got, want = read_image(commented), read_image(plain)
        assert got.channels == want.channels and got.data == want.data == payload

    def test_comment_ends_the_token_before_it(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n2 2# size\n255\n" + bytes([0, 255, 7, 9]))
        img = read_image(f)
        assert (img.width, img.height) == (2, 2) and img.data == bytes([0, 255, 7, 9])

    def test_header_ending_inside_a_comment(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n2 2\n# no maxval")
        with pytest.raises(FormatError, match="unexpected end of header at byte 18"):
            read_image(f)

    def test_bad_maxval(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n1 1\n254\n\x00")
        with pytest.raises(FormatError, match="maxval must be 255, got 254"):
            read_image(f)

    def test_truncated_payload_names_byte_offset(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(FormatError, match="truncated payload .* need 4 bytes, got 2"):
            read_image(f)

    def test_missing_whitespace_after_maxval(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n1 1\n255")
        with pytest.raises(FormatError, match="missing whitespace after maxval"):
            read_image(f)

    def test_bad_dimensions(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n0 2\n255\n")
        with pytest.raises(FormatError, match="bad dimensions"):
            read_image(f)

    @settings(max_examples=200)
    @given(
        w=st.integers(1, 8),
        h=st.integers(1, 8),
        c=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, w, h, c, seed):
        rng = np.random.default_rng(seed)
        img = Image(rng.integers(0, 256, size=(h, w, c), dtype=np.uint8))
        path = tmp_path_factory.mktemp("rt") / "img.pnm"
        write_image(img, path)
        back = read_image(path)
        assert back == img
        # writing the decoded image again is byte-identical
        path2 = path.with_suffix(".again")
        write_image(back, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestReading:
    """`reading(what)` is the one rule that turns a bad value in a file into a FormatError."""

    def test_format_error_keeps_its_message(self):
        with pytest.raises(FormatError) as info:
            with reading("weight file"):
                raise FormatError("weight file: truncated")
        assert str(info.value) == "weight file: truncated"

    def test_value_error_gets_the_prefix(self):
        with pytest.raises(FormatError) as info:
            with reading("mean file"):
                raise ValueError("n_train must be >= 1")
        assert str(info.value) == "mean file: n_train must be >= 1"
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_os_error_passes_through(self):
        err = FileNotFoundError("no such file")
        with pytest.raises(FileNotFoundError) as info:
            with reading("manifest"):
                raise err
        assert info.value is err


# ---------------------------------------------------------------------------
# Line rasterization
# ---------------------------------------------------------------------------

class TestRasterLine:
    def test_vertical(self):
        assert line_points(Point(0, 0), Point(0, 3)) == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_diagonal(self):
        assert line_points(Point(0, 0), Point(3, 3)) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_shallow_line_matches_dda_oracle(self):
        pts = line_points(Point(0, 0), Point(5, 2))
        assert len(pts) == 6
        assert pts == dda_points((0, 0), (5, 2))

    @settings(max_examples=200)
    @given(
        x0=st.integers(0, 30), y0=st.integers(0, 30),
        x1=st.integers(0, 30), y1=st.integers(0, 30),
    )
    def test_symmetric_point_set_and_length(self, x0, y0, x1, y1):
        fwd = line_points(Point(x0, y0), Point(x1, y1))
        bwd = line_points(Point(x1, y1), Point(x0, y0))
        assert set(fwd) == set(bwd)
        assert len(fwd) == max(abs(x1 - x0), abs(y1 - y0)) + 1
        assert fwd[0] == (x0, y0) and fwd[-1] == (x1, y1)
        # 8-connectivity: consecutive points differ by at most 1 per axis
        for (ax, ay), (bx, by) in zip(fwd, fwd[1:]):
            assert max(abs(ax - bx), abs(ay - by)) == 1

    def test_closed_form_matches_loop_oracle_on_every_small_segment(self):
        coords = range(-6, 7)
        for x0 in coords:
            for y0 in coords:
                for x1 in coords:
                    for y1 in coords:
                        assert line_points(Point(x0, y0), Point(x1, y1)) == \
                            bresenham_loop((x0, y0), (x1, y1)), (x0, y0, x1, y1)


# ---------------------------------------------------------------------------
# Polygons
# ---------------------------------------------------------------------------

class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon([(0, 0), (1, 1)])

    def test_rejects_zero_area(self):
        with pytest.raises(ValueError, match="degenerate"):
            Polygon([(0, 0), (1, 1), (2, 2)])

    @pytest.mark.parametrize("m", [2**60, -(2**62), 2**63 - 2])
    def test_area_is_exact_at_int64_coordinates(self, m):
        # a float sum of the cross products rounds this unit triangle's area to 0
        verts = [(m, m), (m + 1, m), (m, m + 1)]
        for given in (verts, np.array(verts, np.int64)):
            assert Polygon(given).vertices == tuple(verts)
        with pytest.raises(ValueError, match="degenerate"):
            Polygon([(m, m), (m + 1, m + 1), (m - 1, m - 1)])

    def test_rectangle_fill_zeroes_nine_pixels(self):
        px = np.full((5, 5, 1), 200, dtype=np.uint8)
        px[polygon_mask(Polygon([(1, 1), (3, 1), (3, 3), (1, 3)]), 5, 5)] = 0
        assert int((px == 0).sum()) == 9
        assert (px[1:4, 1:4] == 0).all()

    def test_polygon_covering_whole_image(self):
        assert polygon_mask(Polygon([(-1, -1), (6, -1), (6, 6), (-1, 6)]), 6, 6).all()

    def test_triangle_mask_matches_per_pixel_oracle(self):
        poly = Polygon([(1, 0), (7, 2), (3, 7)])
        mask = polygon_mask(poly, 8, 8)
        for y in range(8):
            for x in range(8):
                assert mask[y, x] == point_in_polygon(poly.vertices, x, y), (x, y)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_polygon_mask_matches_oracle_and_fill_is_local(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(6, 14))
        while True:
            verts = [(int(rng.integers(0, size)), int(rng.integers(0, size)))
                     for _ in range(int(rng.integers(3, 6)))]
            try:
                poly = Polygon(verts)
                break
            except ValueError:
                continue
        mask = polygon_mask(poly, size, size)
        for y in range(size):
            for x in range(size):
                assert mask[y, x] == point_in_polygon(poly.vertices, x, y)
        xs = [v.x for v in poly.vertices]
        ys = [v.y for v in poly.vertices]
        outside_bbox = np.ones((size, size), dtype=bool)
        outside_bbox[max(min(ys), 0):max(ys) + 1, max(min(xs), 0):max(xs) + 1] = False
        assert not mask[outside_bbox].any()

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mask_matches_oracle_with_outside_horizontal_and_collinear_vertices(self, seed):
        rng = np.random.default_rng(seed)
        w, h = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        while True:
            verts = [(int(rng.integers(-8, w + 8)), int(rng.integers(-8, h + 8)))
                     for _ in range(int(rng.integers(3, 7)))]
            # a horizontal edge, and verts[3] collinear with its neighbours
            verts.insert(1, (verts[0][0] + int(rng.integers(-9, 10)), verts[0][1]))
            verts.insert(4, (2 * verts[3][0] - verts[2][0], 2 * verts[3][1] - verts[2][1]))
            try:
                poly = Polygon(verts)
                break
            except ValueError:
                continue
        mask = polygon_mask(poly, w, h)
        expected = [[point_in_polygon(poly.vertices, x, y) for x in range(w)] for y in range(h)]
        assert np.array_equal(mask, np.array(expected, dtype=bool))

    def test_mask_of_far_vertices_matches_oracle(self):
        poly = Polygon([(-10**6, -3), (10**6, 5), (3, 10**5), (3, 9)])
        mask = polygon_mask(poly, 12, 10)
        for y in range(10):
            for x in range(12):
                assert mask[y, x] == point_in_polygon(poly.vertices, x, y), (x, y)


# ---------------------------------------------------------------------------
# Median filter
# ---------------------------------------------------------------------------

class TestMedianFilter:
    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            median_filter_array(np.zeros((1, 3, 3, 1), dtype=np.uint8), 2)

    def test_k1_identity(self):
        px = np.arange(9, dtype=np.uint8).reshape(3, 3, 1)
        assert np.array_equal(median_filter_array(px[None], 1)[0], px)

    def test_constant_unchanged(self):
        px = np.full((7, 7, 1), 42, dtype=np.uint8)
        for k in (3, 5, 7):
            assert np.array_equal(median_filter_array(px[None], k)[0], px)

    def test_salt_pixel_removed_and_matches_naive_oracle(self):
        px = np.zeros((5, 5, 1), dtype=np.uint8)
        px[2, 2, 0] = 255
        out = median_filter_array(px[None], 3)[0]
        assert out[2, 2, 0] == 0
        assert np.array_equal(out, naive_median(px, 3))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([3, 5]))
    def test_random_images_match_naive_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        px = rng.integers(0, 256, size=(h, w, 1), dtype=np.uint8)
        assert np.array_equal(median_filter_array(px[None], k)[0], naive_median(px, k))

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_output_range_within_input_range(self, seed):
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, size=(6, 6, 1), dtype=np.uint8)
        out = median_filter_array(px[None], 3)[0]
        assert out.min() >= px.min()
        assert out.max() <= px.max()

    def test_batch_variant_matches_single_image_filter(self):
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 256, size=(4, 8, 8, 1), dtype=np.uint8)
        out = median_filter_array(batch, 5)
        for i in range(4):
            assert np.array_equal(out[i], median_filter_array(batch[i : i + 1], 5)[0])

    @pytest.mark.parametrize("k", [0, -1, -3, 2, 4])
    def test_bad_window_rejected_before_any_allocation(self, k):
        batch = np.zeros((200, 64, 64, 1), dtype=np.uint8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="odd and >= 1"):
                median_filter_array(batch, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10  # one 200-image output alone is 800 KiB

    def test_empty_batch_gives_empty_batch(self):
        for k in (1, 3, 5):
            out = median_filter_array(np.empty((0, 9, 8, 3), dtype=np.uint8), k)
            assert out.shape == (0, 9, 8, 3) and out.dtype == np.uint8

    def test_batch_k1_identity_and_even_rejected(self):
        batch = np.zeros((1, 3, 3, 1), dtype=np.uint8)
        assert median_filter_array(batch, 1) is batch
        with pytest.raises(ValueError):
            median_filter_array(batch, 4)

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("c", [1, 3])
    def test_network_matches_naive_oracle(self, k, c):
        rng = np.random.default_rng(k * 10 + c)
        # tie-heavy binary images, full-range images, and images smaller than the window
        for h, w, hi in [(9, 8, 2), (9, 8, 256), (1, 1, 256), (2, 3, 2), (k - 1, k + 1, 256)]:
            px = rng.integers(0, hi, size=(h, w, c), dtype=np.uint8)
            out = median_filter_array(px[None], k)[0]
            assert np.array_equal(out, naive_median(px, k)), (h, w, hi)


_B = imagecore._MEDIAN_BLOCK


class TestMedianBlocks:
    """The blocked filter is bitwise the whole-batch network, across block edges."""

    @pytest.mark.parametrize("n", sorted({0, 1, 200} | {j * _B + d for j in (1, 2)
                                                          for d in (-1, 0, 1)}))
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("c", [1, 3])
    def test_matches_whole_batch_network(self, n, k, c):
        rng = np.random.default_rng(n * 100 + k * 10 + c)
        for hi in (256, 2):  # full-range and tie-heavy images
            batch = rng.integers(0, hi, size=(n, 12, 10, c), dtype=np.uint8)
            out = median_filter_array(batch, k)
            want = median_whole_batch(batch, k)
            assert out.shape == want.shape and out.dtype == want.dtype
            assert np.array_equal(out, want), hi

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.sampled_from([3, 5]))
    def test_every_image_matches_naive_oracle(self, seed, n, k):
        rng = np.random.default_rng(seed)
        batch = rng.integers(0, int(rng.choice([2, 256])), size=(n, 8, 8, 1), dtype=np.uint8)
        out = median_filter_array(batch, k)
        for i in range(n):
            assert np.array_equal(out[i], naive_median(batch[i], k)), i

    def test_peak_of_200_images_below_4_mib(self):
        batch = np.random.default_rng(5).integers(0, 256, size=(200, 64, 64, 1),
                                                  dtype=np.uint8)
        tracemalloc.start()
        try:
            median_filter_array(batch, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-batch network (median_whole_batch) peaks at 22 MiB here; the output is 0.8 MiB
        assert peak < 4 * 2**20
