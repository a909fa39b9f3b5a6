"""The value records are named tuples: immutable, and printed, compared and
hashed by value; the verification report is a mutable namespace."""

import pytest

from projstat import Bipartite2Partition, RangeError, bn_descent_split, make_group, parse_window, stat_record
from projstat.identities import VerificationReport


def _element():
    return parse_window("[3^1,1^5,4,2^2]", make_group(6, 2, 3, 4))


# each entry builds a fresh record, printed as it was as a frozen dataclass
RECORDS = [
    (lambda: make_group(6, 2, 3, 4), "GroupDescriptor(r=6, p=2, s=3, n=4)"),
    (lambda: _element().lift, "ColoredPermutation(sigma=(3, 1, 4, 2), colors=(5, 3, 4, 0))"),
    (
        _element,
        "ProjectiveElement(group=GroupDescriptor(r=6, p=2, s=3, n=4), "
        "lift=ColoredPermutation(sigma=(3, 1, 4, 2), colors=(5, 3, 4, 0)))",
    ),
    (
        lambda: stat_record(_element()),
        "StatRecord(desG=2, desA=1, maj=2, fmaj=24, fdes=11, des=6, col=2, invAbs=3, "
        "signAbs=-1, hdes=frozenset(), hvec=(0, 0, 0, 0), kvec=(11, 9, 4, 0), "
        "lam=(11, 9, 4, 0), colorClass=0)",
    ),
    (
        lambda: bn_descent_split(parse_window("[-2,3,-1]", make_group(2, 1, 1, 3))),
        "BnDescentSplit(hdes0=frozenset(), hdes1=frozenset(), des_pm=frozenset({2}), "
        "d0=True, nn=frozenset(), neg=frozenset({1, 3}))",
    ),
    (lambda: Bipartite2Partition((2, 1), (0, 1)), "Bipartite2Partition(row1=(2, 1), row2=(0, 1))"),
]


@pytest.mark.parametrize("build, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_records_print_compare_and_hash_by_value(build, text):
    record, again = build(), build()
    assert repr(record) == text
    assert record is not again
    assert record == again and hash(record) == hash(again)
    assert {record: 1}[again] == 1
    assert record == tuple(again)  # a named tuple equals the plain tuple of its values
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict


@pytest.mark.parametrize(
    "row1, row2, message",
    [
        ((1,), (0, 0), "rows must have equal length"),
        ((1, 0), (0, -1), "entries must be nonnegative"),
        ((1, 2), (0, 0), r"first row \(1, 2\) is not weakly decreasing"),
        ((2, 2), (0, 1), r"second row \(0, 1\) increases on a tie of the first"),
    ],
)
def test_bipartite_partition_refuses_each_bad_shape(row1, row2, message):
    with pytest.raises(RangeError, match=f"^{message}$"):
        Bipartite2Partition(row1, row2)
    with pytest.raises(RangeError, match=f"^{message}$"):
        Bipartite2Partition(row1=row1, row2=row2)
    with pytest.raises(RangeError, match=f"^{message}$"):
        Bipartite2Partition((2, 1), (0, 0))._replace(row1=row1, row2=row2)


FIELDS = dict(
    identity="hilbert",
    params={"r": 2},
    region={"u": 3},
    outcome="MATCH",
    first_mismatch=None,
    element_count=15,
    elapsed_ms=1.5,
)


def test_verification_report_is_a_mutable_namespace():
    report = VerificationReport(**FIELDS)
    assert report.notes == ()
    assert repr(report) == (
        "VerificationReport(identity='hilbert', params={'r': 2}, region={'u': 3}, "
        "outcome='MATCH', first_mismatch=None, element_count=15, elapsed_ms=1.5, notes=())"
    )
    assert report == VerificationReport(*FIELDS.values(), ())
    report.outcome = "MISMATCH"
    assert not report.matched
    assert report != VerificationReport(**FIELDS)
    with pytest.raises(TypeError):
        VerificationReport(**{k: v for k, v in FIELDS.items() if k != "outcome"})
    with pytest.raises(TypeError):
        VerificationReport(**FIELDS, notes=(), extra=None)
