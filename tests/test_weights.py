import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rghw import boxcomb
from rghw.boxcomb import (
    BoxShape,
    DegreeBand,
    WeightQuery,
    WeightRecord,
    band_size,
    hierarchy,
    iter_hierarchy,
    lex_rank_in_leq,
    rghw,
)
from rghw.errors import RghwError


def weights_of(sizes, u2, u1):
    report = hierarchy(BoxShape(sizes), DegreeBand(u2, u1))
    return [rec.m_r for rec in report.records]


def test_frozen_record_2x2():
    report = hierarchy(BoxShape((2, 2)), DegreeBand(-1, 1))
    rows = [(rec.r, rec.a_r, rec.s, rec.m_r, rec.max_zeros) for rec in report.records]
    assert rows == [
        (1, (1, 0), 1, 2, 2),
        (2, (0, 1), 2, 3, 1),
        (3, (0, 0), 3, 4, 0),
    ]


def test_frozen_hierarchies():
    assert weights_of((2, 2), -1, 1) == [2, 3, 4]
    assert weights_of((2, 3), 0, 2) == [2, 3, 4, 5]
    assert weights_of((2, 2), 1, 2) == [1]
    assert weights_of((2, 3), -1, 3) == [1, 2, 3, 4, 5, 6]
    assert weights_of((3, 3), 0, 2) == [3, 5, 6, 7, 8]


def test_single_variable_is_mds():
    # m = 1 gives Reed-Solomon-like parameters: the (u2 = -1) hierarchy of
    # the degree <= u1 code of length d1 must be n - dim + r.
    for d1 in (3, 5, 7):
        shape = BoxShape((d1,))
        for u1 in range(0, d1 - 1):
            ws = weights_of((d1,), -1, u1)
            assert ws == [d1 - (u1 + 1) + r for r in range(1, u1 + 2)]


def test_relative_single_variable():
    # band (u2, u1] over one variable: l = u1 - u2 and M_r = d1 - u1 - 1 + r.
    shape = BoxShape((5,))
    report = hierarchy(shape, DegreeBand(1, 3))
    assert [rec.m_r for rec in report.records] == [2, 3]


def test_record_fields_consistent():
    rec = rghw(WeightQuery(BoxShape((2, 3)), DegreeBand(0, 2), 1))
    assert rec == WeightRecord(r=1, a_r=(1, 1), s=1, m_r=2, max_zeros=4)
    assert rec.max_zeros == BoxShape((2, 3)).n - rec.m_r == 4


def test_query_validation():
    shape = BoxShape((2, 3))
    with pytest.raises(RghwError, match=r"r = 0 outside 1\.\.4 "):
        WeightQuery(shape, DegreeBand(0, 2), 0)
    with pytest.raises(RghwError, match=r"r = 5 outside 1\.\.4 "):
        WeightQuery(shape, DegreeBand(0, 2), 5)
    with pytest.raises(RghwError, match="empty band: u2 = 2 >= u1 = 2"):
        WeightQuery(shape, DegreeBand(2, 2), 1)
    with pytest.raises(RghwError, match="u1 = 4 > k = 3 for box"):
        WeightQuery(shape, DegreeBand(0, 4), 1)
    with pytest.raises(RghwError, match="u2 = -3 < -1"):
        WeightQuery(shape, DegreeBand(-3, 1), 1)


def test_query_replace_and_make_check_as_the_constructor():
    # a replaced rank outside the band used to give rghw a record of
    # a_r = (-1, -1), s = 9, m_r = 10 and max_zeros = -4
    query = WeightQuery(BoxShape((2, 3)), DegreeBand(0, 2), 1)
    assert rghw(query._replace(r=4)) == rghw(WeightQuery(BoxShape((2, 3)), DegreeBand(0, 2), 4))
    with pytest.raises(RghwError, match=r"r = 9 outside 1\.\.4 "):
        query._replace(r=9)
    with pytest.raises(RghwError, match=r"r = 0 outside 1\.\.4 "):
        WeightQuery._make((BoxShape((2, 3)), DegreeBand(0, 2), 0))
    with pytest.raises(RghwError, match="u1 = 4 > k = 3 for box"):
        query._replace(band=DegreeBand(0, 4))


def test_rank_is_checked_once_per_rghw(monkeypatch):
    # WeightQuery checks r when it is built, so rghw does not check it again;
    # nth_band_element, which rghw leaves out, still checks for its callers
    calls, size = [], boxcomb.band_size

    def counted(shape, band):
        calls.append(band)
        return size(shape, band)

    monkeypatch.setattr(boxcomb, "band_size", counted)
    shape = BoxShape((31623, 31623))
    for band in (DegreeBand(-1, 40000), DegreeBand(100, 40000)):
        calls.clear()
        rghw(WeightQuery(shape, band, 12345))
        assert calls == [band]
        with pytest.raises(RghwError, match=r"r = 0 outside 1\.\."):
            boxcomb.nth_band_element(shape, band, 0)


@pytest.mark.parametrize(
    "sizes", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (3, 3, 3)], ids=str
)
def test_bounds_and_monotonicity(sizes):
    shape = BoxShape(sizes)
    for u2 in range(-1, shape.k):
        for u1 in range(u2 + 1, shape.k + 1):
            band = DegreeBand(u2, u1)
            ws = [rec.m_r for rec in hierarchy(shape, band).records]
            assert len(ws) == band_size(shape, band)
            assert 1 <= ws[0]
            assert all(a < b for a, b in zip(ws, ws[1:]))
            assert ws[-1] <= shape.n
            if u2 == -1 and u1 == shape.k:
                assert ws[-1] == shape.n


def test_hierarchy_report_metadata():
    shape = BoxShape((3, 2))
    band = DegreeBand(-1, 2)
    report = hierarchy(shape, band)
    assert report.shape == shape and report.band == band
    assert report.records[0].oracle is None


def every_band(shape):
    return [DegreeBand(u2, u1) for u1 in range(shape.k + 1) for u2 in range(-1, u1)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=4))
def test_streamed_records_equal_single_ranks(sizes):
    shape = BoxShape(sizes)
    for band in every_band(shape):
        streamed = list(iter_hierarchy(shape, band))
        assert streamed == [
            rghw(WeightQuery(shape, band, r)) for r in range(1, band_size(shape, band) + 1)
        ]


# sha256 over repr((sizes, u2, u1, record)) of every record of every band,
# bands in (u1, u2) order, recorded before the rank tables were rewritten
RECORDS_SHA256 = {
    (2, 3): "7b25af62a70ddf3e52fa4cbb818e18f31a2b8c9a4b2ba957fbe30a7a844e8752",
    (3, 3): "737a0098e9348d172fa985b260950f9adf515568fafa92033c123328c2ef4a3e",
    (2, 2, 2): "f0eb6f8c6513605e263fce882e185e9a47c81b05e1967e70da0fdd428510d2e3",
    (3, 4, 5): "e5d232c4d4826899fca5cbca2881eded6b74dc1300fb5c20eeaf86f96179c46a",
    (2,) * 10: "d2fa87d47e96520ceb6bf4049353841a55e580c57acaf6c0f188530852ce35f6",
}


@pytest.mark.parametrize("sizes", list(RECORDS_SHA256), ids=str)
def test_every_record_pinned(sizes):
    shape = BoxShape(sizes)
    digest = hashlib.sha256()
    for band in every_band(shape):
        for rec in hierarchy(shape, band).records:
            digest.update(repr((sizes, band.u2, band.u1, rec)).encode())
    assert digest.hexdigest() == RECORDS_SHA256[sizes]


# huge boxes of criterion 11, with (7, 13, 101, 997) beside them
GHW_SCALE_BOXES = [(31623, 31623), (2,) * 40, (1000, 1000, 1000), (7, 13, 101, 997)]


@pytest.mark.parametrize("sizes", GHW_SCALE_BOXES, ids=["31623^2", "2^40", "1000^3", "7,13,101,997"])
def test_ghw_rank_s_is_r_at_scale(sizes):
    # On u2 = -1 the band is all of {deg <= u1} in the same order, so the
    # formula takes s = r without a lookup; the paper's s must agree.
    shape = BoxShape(sizes)
    rng = random.Random(sum(sizes))
    degrees = {0, 1, shape.k // 2, shape.k - 1, shape.k} | {rng.randint(0, shape.k) for _ in range(20)}
    for u1 in sorted(degrees):
        band = DegreeBand(-1, u1)
        ell = band_size(shape, band)
        for r in {1, 2, ell - 1, ell} | {rng.randint(1, ell) for _ in range(10)}:
            if 1 <= r <= ell:
                rec = rghw(WeightQuery(shape, band, r))
                assert rec.s == r == lex_rank_in_leq(shape, u1, rec.a_r), (sizes, u1, r)
