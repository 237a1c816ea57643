"""Report bytes pinned across commits: the sha1 of the stdout of fixed CLI
argvs. The category argvs were recorded when the dense matrix helpers of the
category layer were replaced by sparse blocks; the singular and twisted
algebra argvs, the other callers of the exact kernels, were recorded before
the kernels moved to sparse rows. The fractional-lambda singular argvs (the
W workloads of the roadmap) were recorded before the action layer moved to
integer straightening coefficients and the singular search to per-operator
feeding. The verma-dims argvs were recorded before PBW enumeration was made
to prune degree assignments slot by slot. The central-charge, C2 and
unreduced A2 singular argvs were recorded before the singular search and the
explicit tables moved to per-monomial action images and skipped the raising
operators that vanish by weight. The three-summand decompose argvs, in which
two summands share a weight space, were recorded before the category layer
moved to one table accessor and one windowed-space map. The two larger
full singular windows, W6 and W9, were recorded before exact elimination fed
rows shortest first and pivoted on their highest column. The verma-act,
partition and roots argvs were recorded before the action lost its degree
cap and the partition spec its custom window. The L=N=8 and JSON verma-dims
argvs were recorded before verma-dims counted its rows instead of listing
PBW monomials. The rank-6 E6 singular argv, the unreduced A2 singular argv
at lambda(c) = 1/2 and the A2 decompose argv at --scramble 5 were recorded
before the action was scaled by the common denominator of lambda, the
structure constants were bootstrapped in int arithmetic and the scrambling
maps were built from int entries. The H=2 A3 category-check and C2
category-split argvs were recorded before the reduced Verma tables decided
their pairs from the target weights, the weights were indexed by integer
cells and a scrambled module kept its source's index. The stretch argvs R1
(rank 4) and S1 (an unreduced A1 window of length 9) were recorded before
the action memo moved from tuple keys to interned monomial ids. The
category stretch argv C1 and the A1 category-check argvs at nilpotency caps
0 and 1 were recorded before axiom (2) was decided per (generator, weight)
block instead of per basis vector and weights were hashed on their integer
cells. The full singular argvs S2 (A2), W8 and S5 (A1 windows of length 7
and 11) and the full A3 argv were recorded before the unreduced singular
search fed the Cartan loops h_{i,l} before the e_{i,m}. The category-split
argvs that print the (ii), (iii) and (iv) verdicts with their checked and
skipped counts (scrambled A1 and A2 sums of three summands at H=1, the single
A1 summand at H=2 and a scrambled A2 sum at H=2) were recorded before the
split and those verdicts read one action map per generator instead of one
table per (generator, weight) pair. The rank-7 E7 and rank-8 E8 singular
argvs were recorded before the PBW enumeration read its root multisets from
a table kept by the root system instead of walking them on every call. The
E8, F4 and G2 algebra argvs and the five verma-dims argvs of the benchmark's
dims workload at seed 1 were recorded before the algebra context was built in
int arithmetic from the positive root triples, with a sparse bracket table. The
reduced G2 singular argv at lambda = 0 and the G2 and C2 verma-act argvs,
which straighten F-symbols past F-symbols (the verma-act argvs also past
B-symbols) in types that are not simply laced, were recorded before the PBW
symbols were interned as the loop operators they name and straightened
through the one bracket table. The kernel-bearing singular argvs over A3, C2
and G2, whose searches run to the end and report 13 to 238 vectors, were
recorded before the offsets a window reaches were decided in one place. The
beyond-reach argvs, whose windows list offsets higher than L times the height
of the highest root, were recorded at the same commit, so that the rule that
such an offset holds no windowed monomial keeps their reports. The A2
decompose argv at H=300, whose audit would list tens of thousands of offsets
beyond the window's reach, was recorded before the audit listed only the
offsets the build reaches. The category-split argv of a delta-shifted A1
sum, the only pinned report with (iii) candidates, torsion-free planes and
deficient Heisenberg targets, was recorded before verdicts (ii) and (iii)
were decided on torsion-free coordinates; its verdicts show the window
defect of ROADMAP item 1, so a fix of that item re-records it. The two
reduced singular argvs of the benchmark's singular-rank workload at seed 1
over A2 and A3 at N=3 were recorded before the PBW layer was hash-consed on
int keys, with tuples built only at the report boundary. The
kernel-bearing singular argvs over A4, D4 and A3 at H=4, whose kernels sit at
many finite offsets, were recorded before the singular search solved one
finite offset at a time, its spaces in listing order. A refactor
that claims unchanged answers must keep every hash; a change that means to
alter a report updates its constant and says why."""

import hashlib

import pytest

from imverma.cli import main

PINNED = [
    pytest.param(
        ("category-decompose", "--type", "A1", "--summands", "h1=-1/2|h1=-3/2",
         "--window", "L=3,N=4,H=1", "--gwindow", "3", "--scramble", "11"),
        "7bd3b6d673c0ea8de5b597166e075b7b16b407a8", id="W3-decompose-A1"),
    # three summands, two of them sharing a weight space
    pytest.param(
        ("category-decompose", "--type", "A2",
         "--summands", "h1=1/4,h2=-7/4|h1=-3/4,h2=-7/4|h1=-7/4,h2=-3/4",
         "--window", "L=3,N=4,H=1", "--kmax", "4", "--gwindow", "3",
         "--scramble", "7"),
        "b945be5f4fd2f5bf619fb7175544f64e11472029", id="decompose-A2-three"),
    pytest.param(
        ("category-decompose", "--type", "A1",
         "--summands", "h1=-3/4|h1=-7/4|h1=-19/4",
         "--window", "L=4,N=5,H=1", "--kmax", "5", "--gwindow", "4",
         "--scramble", "7"),
        "7b0dc4597a7209ca09a9f966e7900e687e8f6cb3", id="decompose-A1-three"),
    pytest.param(
        ("category-check", "--type", "A2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=3,N=2,H=2", "--kmax", "2", "--gwindow", "2",
         "--scramble", "3"),
        "502977dd3c52257075c45383adafd22db6082729", id="W4-check-A2"),
    # re-recorded when verdict (ii) moved from single generators h_{i,l} to
    # whole degree slices: only its checked and skipped counts halved
    pytest.param(
        ("category-split", "--type", "A2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=3,N=2,H=1", "--kmax", "2", "--gwindow", "2",
         "--scramble", "5"),
        "b3ccfbfb5633e1c750e950a3afaa11f3a9043a80", id="split-A2-scrambled"),
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
    # the windows where elimination order changes the most work
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=-1/2",
         "--window", "L=6,N=3,H=2"),
        "15c2a0dc191a8f7e4c4610f4174910d8fff8d393", id="W6-singular-full-A1"),
    pytest.param(
        ("singular", "--full", "--type", "A2", "--lambda", "h1=-1/2,h2=-1/2",
         "--window", "L=4,N=2,H=3"),
        "0fb59fe8db7fe96e6eb2ff2036504d9613e15e65", id="W9-singular-full-A2"),
    pytest.param(
        ("singular", "--type", "A3", "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2",
         "--window", "L=4,N=3,H=3"),
        "f980bc596c47f8bd3afccd094888d51020ca1f99", id="W7-singular-A3"),
    # lambda(c) != 0, so the central term of the brackets runs
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=-1/2,c=1",
         "--window", "L=3,N=2,H=2"),
        "a869e062d51eac5d76cb5781c33cbe5a4a42215e", id="singular-full-A1-central"),
    pytest.param(
        ("singular", "--type", "C2", "--lambda", "h1=-3/4,h2=1/4",
         "--window", "L=3,N=3,H=2"),
        "67b2615432946e966b9d3c7429054cc35baa521e", id="singular-C2"),
    # the singular-rank workload of the benchmark at seed 1
    pytest.param(
        ("singular", "--type", "A2", "--lambda", "h1=-7/4,h2=9/4",
         "--window", "L=3,N=3,H=2"),
        "2efc42314113c7a85f1e73352342900ee6474307", id="singular-rank-bench-A2"),
    pytest.param(
        ("singular", "--type", "A3", "--lambda", "h1=13/4,h2=-15/4,h3=9/4",
         "--window", "L=3,N=3,H=2"),
        "7e4d0210abd6606d9af0d13e7ae8ee07ab5c2ee0", id="singular-rank-bench-A3"),
    # the Cartan loops h_{i,l} at rank 2
    pytest.param(
        ("singular", "--full", "--type", "A2", "--lambda", "h1=-1/2,h2=-1/3",
         "--window", "L=3,N=2,H=2"),
        "80193018fb3c4ae138d96cc777ab33397a4b8293", id="singular-full-A2"),
    # rank 6: 72 F-symbols per loop degree
    pytest.param(
        ("singular", "--type", "E6",
         "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2,h4=-1/2,h5=-1/2,h6=-1/2",
         "--window", "L=3,N=2,H=3"),
        "f495301c9185ab3cb72db03b672d5dc52392b130", id="singular-E6"),
    # ranks 7 and 8: 63 and 120 positive roots
    pytest.param(
        ("singular", "--type", "E7",
         "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2,h4=-1/2,h5=-1/2,h6=-1/2,h7=-1/2",
         "--window", "L=3,N=2,H=3"),
        "e9193e31a9c478c0c724599141095819a4714bac", id="singular-E7"),
    pytest.param(
        ("singular", "--type", "E8",
         "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2,h4=-1/2,h5=-1/2,h6=-1/2,h7=-1/2,"
         "h8=-1/2",
         "--window", "L=3,N=1,H=3"),
        "9faf99ea8e3c880c979bc48cb6c73f35cefbd536", id="singular-E8s"),
    # the stretch argvs of the action layer, in rank and in window length
    pytest.param(
        ("singular", "--type", "A4",
         "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2,h4=-1/2",
         "--window", "L=4,N=2,H=4"),
        "ef0c1e02111f84ce30ed1949440fdb67a0564fca", id="R1-singular-A4"),
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=-1/2",
         "--window", "L=9,N=3,H=2"),
        "d5a6e46a4dc39587e0f1cda70b2427c53e0b8482", id="S1-singular-full-A1"),
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=-1/2",
         "--window", "L=7,N=3,H=2"),
        "196eedb10b153d093cfce82cfb11b788c801b017", id="W8-singular-full-A1"),
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=-1/2",
         "--window", "L=11,N=3,H=2"),
        "4ec053c9480f138ab3f64222c7514c972d9f47a1", id="S5-singular-full-A1"),
    pytest.param(
        ("singular", "--full", "--type", "A2", "--lambda", "h1=-1/2,h2=-1/2",
         "--window", "L=5,N=2,H=3"),
        "2ce3acb9a50f0633329b3de744e4d900b4d42881", id="S2-singular-full-A2"),
    pytest.param(
        ("singular", "--full", "--type", "A3", "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2",
         "--window", "L=4,N=2,H=3"),
        "596abdd20dcbf16648b280f3edf64e971f3159a6", id="singular-full-A3"),
    # a fractional lambda(c), so the scale takes its denominator too
    pytest.param(
        ("singular", "--full", "--type", "A2", "--lambda", "h1=-1/2,h2=-1/3,c=1/2",
         "--window", "L=3,N=2,H=2"),
        "d1b1db03b49dc28efcad18c498932dce61c208ac", id="singular-full-A2-central"),
    pytest.param(
        ("category-decompose", "--type", "A2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=3,N=4,H=1", "--kmax", "4", "--gwindow", "3",
         "--scramble", "5"),
        "c95760f073d8464624543e083c4c0d1ef673d579", id="decompose-A2-scrambled"),
    # H=2: lowering targets leave the store at the height and kmax edges
    pytest.param(
        ("category-check", "--type", "A3", "--summands", "h1=-1/2,h2=-1/3,h3=-1/5",
         "--window", "L=3,N=2,H=2", "--kmax", "2", "--gwindow", "2"),
        "93247eafcf8a1c1153d501a4cd7b85f394ffb902", id="check-A3-H2"),
    pytest.param(
        ("category-split", "--type", "C2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=3,N=2,H=2", "--kmax", "2", "--gwindow", "2",
         "--scramble", "3"),
        "c2395a48fe62b76e23bbed7d57da1064e9323e22", id="split-C2-H2"),
    # the category stretch argv: 23,632 of its axiom (2) checks are inconclusive
    pytest.param(
        ("category-check", "--type", "A2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=5,N=4,H=3", "--kmax", "4", "--gwindow", "4"),
        "10ade84301be5054ec1e50f1a3badbf14df0afa4", id="C1-check-A2"),
    # cap 0 applies nothing: all 301 basis vectors are axiom (2) violations
    pytest.param(
        ("category-check", "--type", "A1", "--summands", "h1=-1/2",
         "--window", "L=3,N=4,H=2", "--kmax", "4", "--gwindow", "3",
         "--nilpotency-cap", "0"),
        "f08a56ed10f92e4192670dae4b4cd154de47cfa0", id="check-A1-H2-cap0"),
    # cap 1: 200 violations and 38 inconclusive vectors
    pytest.param(
        ("category-check", "--type", "A1", "--summands", "h1=-1/2",
         "--window", "L=3,N=4,H=2", "--kmax", "4", "--gwindow", "3",
         "--nilpotency-cap", "1"),
        "bfd7e0bb9a1935327daa8cb4ff5137dc4855a437", id="check-A1-H2-cap1"),
    # the split and its (ii)-(iv) verdicts with checked and skipped counts
    pytest.param(
        ("category-split", "--type", "A1",
         "--summands", "h1=-3/4|h1=-7/4|h1=-19/4",
         "--window", "L=4,N=5,H=1", "--kmax", "5", "--gwindow", "4",
         "--scramble", "3"),
        "45c08fd2d7616f8912c8fae7f3e9c09e8c97873d", id="split-A1-three"),
    pytest.param(
        ("category-split", "--type", "A2",
         "--summands", "h1=1/4,h2=-7/4|h1=-3/4,h2=-7/4|h1=-7/4,h2=-3/4",
         "--window", "L=3,N=4,H=1", "--kmax", "4", "--gwindow", "3",
         "--scramble", "7"),
        "97c5972ec9af4d64413bfe77e12d5ab5a2c98dff", id="split-A2-three"),
    pytest.param(
        ("category-split", "--type", "A1", "--summands", "h1=-1/2",
         "--window", "L=3,N=4,H=2", "--kmax", "4", "--gwindow", "3"),
        "610af48b07127a0e38573fc5354b2f78060a5ee9", id="split-A1-H2"),
    pytest.param(
        ("category-split", "--type", "A2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=3,N=3,H=2", "--kmax", "3", "--gwindow", "2",
         "--scramble", "5"),
        "b178267a67b4a3df5af3f10134f42f6c114d0f58", id="split-A2-H2"),
    # (iii) candidates at weight indices 1 and 10, TF planes, deficient 0 and 11
    pytest.param(
        ("category-split", "--type", "A1", "--summands", "h1=-1/2,d=1|h1=-1/2",
         "--window", "L=3,N=4,H=1", "--kmax", "4", "--gwindow", "3"),
        "c881c72f8ae869e5156377037322aec373519df1", id="split-A1-dshift"),
    pytest.param(
        ("algebra", "--type", "A3", "--twist", "1:3,3:1", "--loop-degree", "2"),
        "1850a4e5717c30e393751fa1dd48761869bd1fdf", id="algebra-twist-A3"),
    pytest.param(
        ("algebra", "--type", "D4", "--twist", "3:4,4:3", "--loop-degree", "3"),
        "b4f73960dbc127b28cd0021cd7517d8285d3ab7d", id="algebra-twist-D4"),
    pytest.param(("algebra", "--type", "E8"),
                 "c180bdf10c22680420f27b6939eead3e744ddffc", id="algebra-E8"),
    pytest.param(("algebra", "--type", "F4"),
                 "f3217153a8518191d60ac9d0a1ab904b512e3518", id="algebra-F4"),
    pytest.param(("algebra", "--type", "G2"),
                 "27841f1c16c029f77971cdcbbb594a215db26a12", id="algebra-G2"),
    pytest.param(
        ("verma-dims", "--type", "A2", "--offset", "2,1",
         "--window", "L=5,N=5,H=3", "--delta-max", "6"),
        "95896608ed9309289b43124cb33b4cc7e56d412b", id="dims-A2"),
    # the dims workload of the benchmark at seed 1
    pytest.param(
        ("verma-dims", "--type", "A2", "--lambda", "h1=-7/4,h2=-15/4",
         "--offset", "1,1", "--window", "L=5,N=5,H=2", "--delta-max", "6"),
        "7ae564d50262be1396a0c3d38065a53bcc853c43", id="dims-bench-A2-11"),
    pytest.param(
        ("verma-dims", "--type", "A2", "--lambda", "h1=1/4,h2=1/4",
         "--offset", "2,1", "--window", "L=5,N=5,H=3", "--delta-max", "6"),
        "d3fb27c1ae266f2d3bfd9d0d55138de057293629", id="dims-bench-A2-21"),
    pytest.param(
        ("verma-dims", "--type", "A1", "--lambda", "h1=-11/4",
         "--offset", "2", "--window", "L=7,N=7,H=2", "--delta-max", "9"),
        "00aa4b46c505b572d649ab2a74fd2f22cccc4f70", id="dims-bench-A1"),
    pytest.param(
        ("verma-dims", "--type", "C2", "--lambda", "h1=9/4,h2=9/4",
         "--offset", "1,1", "--window", "L=5,N=5,H=2", "--delta-max", "6"),
        "671a31d43fe4fd00579628fdd004c9e56cac2152", id="dims-bench-C2"),
    pytest.param(
        ("verma-dims", "--type", "A3", "--lambda", "h1=9/4,h2=1/4,h3=5/4",
         "--offset", "1,1,0", "--window", "L=4,N=4,H=2", "--delta-max", "4"),
        "b489b8f804a5e9818926b637242502fb5a4bfcd6", id="dims-bench-A3"),
    pytest.param(
        ("verma-dims", "--type", "A2", "--offset", "2,1",
         "--window", "L=5,N=5,H=3", "--delta-max", "6", "--format", "json"),
        "4434859ebc6bdc8bb565ae535838ff7e7b703a06", id="dims-A2-json"),
    # rows of 0.3 to 1.4 million monomials each, too many to list in a test
    pytest.param(
        ("verma-dims", "--type", "A2", "--offset", "2,1",
         "--window", "L=8,N=8,H=3", "--delta-max", "10"),
        "7885865bd605e0acc3e6024cae7b3c0a47859b4c", id="dims-A2-L8"),
    pytest.param(
        ("verma-dims", "--type", "A3", "--reduced",
         "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2", "--offset", "2,1,1",
         "--window", "L=4,N=3,H=4", "--delta-max", "4"),
        "25f8f70a82eaba16d4cd756e2b38b93439971356", id="dims-reduced-A3"),
    # a Cartan loop on an unreduced monomial, with lambda(c) and lambda(d) set
    pytest.param(
        ("verma-act", "--type", "A1", "--lambda", "h1=-1/2,c=1,d=2",
         "--gen", "h1@-2", "--monomial", "F[1]@2,B1@1"),
        "821c9d1fc13f5e1e2eb1064c8cc9221bc913ee45", id="verma-act-A1-full"),
    pytest.param(
        ("verma-act", "--type", "A2", "--lambda", "h1=-1/2,h2=-1/3", "--reduced",
         "--gen", "e1@-1", "--monomial", "F[1,1]@2,F[1,0]@-1"),
        "f8749adfd7b6bbec07fa1f3c46ca429cb2304422", id="verma-act-A2-reduced"),
    # straightening past B- and F-symbols outside the simply-laced types
    pytest.param(
        ("singular", "--type", "G2", "--lambda", "h1=0,h2=0",
         "--window", "L=3,N=1,H=3"),
        "4ee0aa9bed9984865994639f34b675ca2a10655a", id="singular-G2-reduced"),
    pytest.param(
        ("verma-act", "--type", "G2", "--lambda", "h1=-1/2,h2=-1/3",
         "--gen", "x[-1,-1]@1", "--monomial", "B2@1,F[1,0]@0,F[0,1]@1"),
        "daa807e24da1780f5ba20a3f938b5295deb07819", id="verma-act-G2-full"),
    pytest.param(
        ("verma-act", "--type", "C2", "--lambda", "h1=-3/4,h2=1/4,c=1/2",
         "--gen", "x[-1,-1]@-1", "--monomial", "B2@2,F[1,0]@1,F[0,1]@0"),
        "f7e91b0feba43e4bd3275f0decca7355be0cb5d2", id="verma-act-C2-full"),
    # searches that run to the end and report vectors beyond v
    pytest.param(
        ("singular", "--type", "A3", "--lambda", "h1=0,h2=-1/2,h3=-1/2",
         "--window", "L=4,N=2,H=3"),
        "275d1746faef6cead64ccdb2a5dc5b3c699cbd76", id="singular-A3-kernel"),
    pytest.param(
        ("singular", "--type", "A3", "--lambda", "h1=0,h2=0,h3=0",
         "--window", "L=4,N=2,H=3"),
        "22db3902f296979795dd82b0d9ee93c4079753fc", id="singular-A3-zero"),
    pytest.param(
        ("singular", "--type", "C2", "--lambda", "h1=0,h2=-1/2",
         "--window", "L=4,N=3,H=3"),
        "82d2cc02d7fab361f013238015f68e27277917bd", id="singular-C2-kernel"),
    pytest.param(
        ("singular", "--type", "G2", "--lambda", "h1=-1/2,h2=0",
         "--window", "L=3,N=2,H=3"),
        "6115687ec7ec0d72ff37c3db79e1f24b5c0db957", id="singular-G2-kernel"),
    # kernels at many offsets, which a per-offset search visits in its own order
    pytest.param(
        ("singular", "--type", "A4", "--lambda", "h1=0,h2=1,h3=0,h4=-1",
         "--window", "L=4,N=1,H=4"),
        "bb74b505be1e5706519dd327b87d5d926db23748", id="singular-A4-kernel"),
    pytest.param(
        ("singular", "--type", "D4", "--lambda", "h1=0,h2=-1/2,h3=0,h4=0",
         "--window", "L=3,N=1,H=3"),
        "5a616d14d3b6bd9eebade9e6b13532d583732497", id="singular-D4-kernel"),
    pytest.param(
        ("singular", "--type", "A3", "--lambda", "h1=0,h2=-1/2,h3=0",
         "--window", "L=4,N=2,H=4"),
        "e2313f5391c39f0da487bb17d389b51657561985", id="singular-A3-kernel-H4"),
    # offsets and heights beyond L * ht(theta), where no windowed monomial lies
    pytest.param(
        ("verma-dims", "--type", "A3", "--lambda", "h1=-1/2,h2=-1/2,h3=-1/2",
         "--offset", "6,6,6", "--window", "L=2,N=2,H=18", "--delta-max", "2"),
        "4324553e786d944d831eafd2f57e0ed9c5124571", id="dims-A3-beyond-reach"),
    pytest.param(
        ("verma-dims", "--type", "A2", "--reduced", "--lambda", "h1=-1/2,h2=-1/3",
         "--offset", "5,5", "--window", "L=3,N=2,H=10", "--delta-max", "3"),
        "329ca7d3104ddf64a017d6f05cb182ea2b259f46", id="dims-A2-reduced-beyond-reach"),
    pytest.param(
        ("singular", "--full", "--type", "A1", "--lambda", "h1=-1/2",
         "--window", "L=2,N=1,H=6"),
        "7b5385c064e62e66143ebe12600d3b96ed821192", id="singular-A1-full-beyond-reach"),
    pytest.param(
        ("singular", "--type", "A2", "--lambda", "h1=-1/2,h2=-1/3",
         "--window", "L=1,N=1,H=4"),
        "0f2db7e11544a85bb419b191336c85b3b1e246ec", id="singular-A2-beyond-reach"),
    pytest.param(
        ("category-decompose", "--type", "A1", "--summands", "h1=-1/2|h1=-3/2",
         "--window", "L=1,N=3,H=3", "--kmax", "3", "--gwindow", "2"),
        "f5216034c9f50b55d59671b51765c3d1b8e42f14", id="decompose-A1-beyond-reach"),
    pytest.param(
        ("category-decompose", "--type", "A2",
         "--summands", "h1=-1/2,h2=-1/3|h1=-3/2,h2=-1/3",
         "--window", "L=1,N=2,H=300", "--kmax", "2", "--gwindow", "2"),
        "0e302af2c71d458ce45e2b2d46ce33444c80b336", id="decompose-A2-high-window"),
    pytest.param(
        ("partition", "--type", "A2", "--which", "natural", "--height", "3",
         "--loop-degree", "3"),
        "9647dae382c5f74baa3f1f48882395da82acd4da", id="partition-A2-natural"),
    pytest.param(
        ("roots", "--type", "A2", "--which", "standard", "--height", "2",
         "--loop-degree", "2"),
        "73a12b4fe65296a436c78125fcfc9e1efed0e14c", id="roots-A2-standard"),
]


@pytest.mark.parametrize("argv, sha1", PINNED)
def test_report_bytes_pinned(capsys, monkeypatch, argv, sha1):
    monkeypatch.delenv("IMVERMA_OUTDIR", raising=False)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest() == sha1
