"""Report bytes pinned across commits: the sha1 of the stdout of fixed CLI
argvs, recorded when the dense matrix helpers of the category layer were
replaced by sparse blocks. A refactor that claims unchanged answers must keep
every hash; a change that means to alter a report updates its constant and
says why."""

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
]


@pytest.mark.parametrize("argv, sha1", PINNED)
def test_report_bytes_pinned(capsys, monkeypatch, argv, sha1):
    monkeypatch.delenv("IMVERMA_OUTDIR", raising=False)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest() == sha1
