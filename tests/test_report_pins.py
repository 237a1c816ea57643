"""Report bytes pinned across commits: the sha1 of the stdout of fixed CLI
argvs. The category argvs were recorded when the dense matrix helpers of the
category layer were replaced by sparse blocks; the singular and twisted
algebra argvs, the other callers of the exact kernels, were recorded before
the kernels moved to sparse rows. The fractional-lambda singular argvs (the
W workloads of the roadmap) were recorded before the action layer moved to
integer straightening coefficients and the singular search to per-operator
feeding. A refactor that claims unchanged answers
must keep every hash; a change that means to alter a report updates its
constant and says why."""

import hashlib

import pytest

from imverma.cli import main

PINNED = [
    pytest.param(
        ("category-decompose", "--type", "A1", "--summands", "h1=-1/2|h1=-3/2",
         "--window", "L=3,N=4,H=1", "--gwindow", "3", "--scramble", "11"),
        "7bd3b6d673c0ea8de5b597166e075b7b16b407a8", id="W3-decompose-A1"),
    pytest.param(
        ("category-check", "--type", "A2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=3,N=2,H=2", "--kmax", "2", "--gwindow", "2",
         "--scramble", "3"),
        "502977dd3c52257075c45383adafd22db6082729", id="W4-check-A2"),
    pytest.param(
        ("category-split", "--type", "A2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=3,N=2,H=1", "--kmax", "2", "--gwindow", "2",
         "--scramble", "5"),
        "0252aad07335e783035e0d06f7a5c47d18aa8c11", id="split-A2-scrambled"),
    pytest.param(
        ("category-check", "--type", "A1", "--summands", "h1=-1/2",
         "--window", "L=3,N=4,H=2", "--kmax", "4", "--gwindow", "3"),
        "f8b50ce9b29deed946b6c6a61d95b866ae2f28c0", id="check-A1-H2"),
    pytest.param(
        ("loopmod", "--type", "A1", "--dim", "3", "--loop-degree", "2"),
        "19f934d521ac67ccdcc919b646187cb3c3e44577", id="loopmod-A1-dim3"),
    # 12 vectors, some with two terms and a coefficient of -1
    pytest.param(
        ("singular", "--type", "A2", "--lambda", "h1=1,h2=0",
         "--window", "L=3,N=2,H=2"),
        "e151d95fcbe24cea72e8dd1cb177ee8837e3ded8", id="singular-A2"),
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=0",
         "--window", "L=3,N=2,H=2"),
        "9ca2a76a21b88484bee3da686404cd08a630ee27", id="singular-full-A1"),
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=-1/2",
         "--window", "L=4,N=3,H=2"),
        "b3cc0a3f21520da26ec26fca6b6909e3cd5e11ee", id="W1-singular-full-A1"),
    pytest.param(
        ("singular", "--type", "A2", "--lambda", "h1=-1/2,h2=-1/2",
         "--window", "L=4,N=2,H=3"),
        "3aac65f0f87c37ac5d65e42c697d4574b9591f45", id="W2-singular-A2"),
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=-1/2",
         "--window", "L=5,N=3,H=2"),
        "6f34341a6ca80ac8e6e8c001df6d4dadc85f49da", id="W5-singular-full-A1"),
    pytest.param(
        ("singular", "--type", "A3", "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2",
         "--window", "L=4,N=3,H=3"),
        "f980bc596c47f8bd3afccd094888d51020ca1f99", id="W7-singular-A3"),
    pytest.param(
        ("algebra", "--type", "A3", "--twist", "1:3,3:1", "--loop-degree", "2"),
        "1850a4e5717c30e393751fa1dd48761869bd1fdf", id="algebra-twist-A3"),
    pytest.param(
        ("algebra", "--type", "D4", "--twist", "3:4,4:3", "--loop-degree", "3"),
        "b4f73960dbc127b28cd0021cd7517d8285d3ab7d", id="algebra-twist-D4"),
]


@pytest.mark.parametrize("argv, sha1", PINNED)
def test_report_bytes_pinned(capsys, monkeypatch, argv, sha1):
    monkeypatch.delenv("IMVERMA_OUTDIR", raising=False)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest() == sha1
