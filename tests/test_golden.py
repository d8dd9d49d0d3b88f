"""Byte-for-byte guard on the output of compute, verify and export.

Each case runs `cli.main` in-process over a group of invocations and
compares one sha256 digest of their exit codes, stdout and stderr with
the table below.  A speed or refactoring change must leave every digest
as it is.  A deliberate output change (a fix to the 5C rows, say)
re-records the table with

    PYTHONPATH=src python tests/test_golden.py

and names the changed output in CHANGES.md; the cases whose digest
differs from the table are named on stderr.
"""

import contextlib
import hashlib
import io

import pytest

from conway_genera import cli

CLASSES = ("1A", "2B", "4D", "5C", "10H", "12L")
LAMBENCIES = (2, 3, 4, 5, 7)
FORMATS = ("text", "json", "csv")
#: classes whose index-1 genus is also guarded at 24 q-orders
DEEP_CLASSES = ("10H", "12L")
#: classes whose trace series T^s_g and twisted companion are guarded
TRACE_CLASSES = ("1A", "2B", "5C", "12L")


def _cases() -> dict[str, list[tuple[str, ...]]]:
    cases = {
        "verify-all-text": [("verify", "--suite", "all")],
        "verify-all-json": [("verify", "--suite", "all", "--format", "json")],
        "verify-decomposition-prec9-json": [
            ("verify", "--suite", "decomposition", "--prec", "9", "--format", "json")],
        "verify-higher-lambency": [("verify", "--suite", "higher-lambency")],
        "verify-all-prec12-json": [
            ("verify", "--suite", "all", "--prec", "12", "--format", "json")],
        "verify-sigma-prec24-json": [
            ("verify", "--suite", "sigma", "--prec", "24", "--format", "json")],
        "compute-1A-ell7-phi-prec24": [
            ("compute", "--class", "1A", "--what", "phi", "--ell", "7", "--prec", "24",
             "--sign", sign, "--format", fmt)
            for sign in "+-" for fmt in ("text", "json")],
        "export": [("export", "--table", table, "--format", fmt)
                   for table in ("classes", "coincidences") for fmt in FORMATS],
        "compute-trace-series": [
            ("compute", "--class", name, "--what", what, "--format", fmt)
            for name in TRACE_CLASSES for what in ("ts", "ts-tw") for fmt in FORMATS],
    }
    for name in CLASSES:
        for ell in LAMBENCIES:
            # --what f at an ell other than 2 is a usage error, pinned here
            cases[f"compute-{name}-ell{ell}"] = [
                ("compute", "--class", name, "--what", what, "--ell", str(ell),
                 "--sign", sign, "--format", fmt)
                for what in ("phi", "f") for sign in "+-" for fmt in FORMATS]
    for name in DEEP_CLASSES:
        cases[f"compute-{name}-phi-prec24"] = [
            ("compute", "--class", name, "--what", "phi", "--ell", "2", "--prec", "24",
             "--sign", sign, "--format", fmt)
            for sign in "+-" for fmt in FORMATS]
    return cases


CASES = _cases()

#: digests recorded at 0497ce3, before the genus products were truncated
#: at the requested precision; the prec12 and prec24 cases recorded at
#: 9d42eba, before the series were stored as integer rows per radical;
#: the sigma and 1A ell-7 cases recorded at a9df140, before the sigma
#: dual-lattice theta series became a product of one-coordinate sums and
#: the series products went through one integer convolution; the
#: trace-series case recorded at 74c11a5, before compute, list-classes and
#: export shared one output writer; the three verify-all cases re-recorded
#: when the constants suite and the fourier twisted-constant rows were deleted,
#: and again when the jacobi suite gained its five elliptic-law rows; the
#: compute-*-ell3..7 cases re-recorded when --what f began to reject an
#: --ell other than 2
GOLDEN = {
    "compute-10H-ell2": "a15e271aadfd54fab9e32cfc60eeca7558031ca4ecb3c82a2b8e683fb02f45df",
    "compute-10H-ell3": "22ffbbf6210e49ca5412efcafceafe1d8813d61ff7eec769fbd218f01ac8d67a",
    "compute-10H-ell4": "082ceea4a24bf4331d69e9ed5dd4d3d43cfb0c7e28a2c025692d55b23907dca4",
    "compute-10H-ell5": "a5ebf4a2fd2ccd6161a9e19b8f496c9c40ce1afebf1cc91f88a4e6723ccab5dc",
    "compute-10H-ell7": "e003f42966a3d77edbab9abd96f94fa06283db523005bb31aecde27167ca4d56",
    "compute-10H-phi-prec24": "676493eadcb79f98ed92b9cf3a3d5aee2c87079b453fd15ffc8e4ae6f11522b7",
    "compute-12L-ell2": "8c093579593eb4de5e8625df9752057b668e6ed052baafcb959001c543708f6a",
    "compute-12L-ell3": "25a7c7ac2738b9475df6d609295210bce380438de3123725b005a32370fb93b6",
    "compute-12L-ell4": "59e950974cff7a158b281b4478cdb8bd4957a5f57f5368fa28e41b966cac1686",
    "compute-12L-ell5": "fff8bb8747fcb995453def5d61d08dbe72715db3b7e6d4ad5f143c063622029a",
    "compute-12L-ell7": "8e30fa8cb71ac8dd6d4a15f7210df32fb12cfa01c6bc88c71b000340e49cd347",
    "compute-12L-phi-prec24": "b5179f9469cea236bf2aedadb3417aeb82a514e600f55acf1d72b84828aec522",
    "compute-1A-ell2": "d79f1886d6529d105ee72f88de0e9ae175fce22659e61d68a1b0b0d12e42bdbd",
    "compute-1A-ell3": "1196a0ef1670de66f556b672561bf765875df52961dd3cbc652c95e423ad9654",
    "compute-1A-ell4": "cb7f85e826a45e5a7e25ce076e42599f6b24f9abe66734cd077e25fc6739f4c1",
    "compute-1A-ell5": "8dc361ba9bc6a32b1adb355836b46ba0e373ac2861a45320279eb0cdb12e8170",
    "compute-1A-ell7": "4a1b27b4c69aa13836ca809829eb1c06947554c5226ecc9273e26ab96db3f910",
    "compute-1A-ell7-phi-prec24": "f31758028000f6a8314b81ec6267e6983f473db2f9e604e966e1d3062401bd60",
    "compute-2B-ell2": "572d15e6ba86560088239cf05d5b2b4f8a1aa23dacb4e8fa611f2b0627b48a47",
    "compute-2B-ell3": "2e60c768640008a3147e893655ea030b7ecb36b96d25f623dee4f93f7b415d79",
    "compute-2B-ell4": "0b06fcda96ecffc9c7a27c11e02af7318d27a5fc7d225f4e9afea06e65225036",
    "compute-2B-ell5": "d123c53256e78f14f8eebb1cc7625fbb554eec85efadffdde6bb1de1f0b5c786",
    "compute-2B-ell7": "bc0e389abca666a45a71c7fd98c1b9bfa4647a99f1977cea481c2be4ea59a9c6",
    "compute-4D-ell2": "bb5b943dc5c8061b889720fd0a03c4b481bd10c81b54e89cec03546a6bcdf65d",
    "compute-4D-ell3": "a00ffe3f2a78f229943dd68ca4cdaed27bb781bfb8dd24c929e9ee4582c28232",
    "compute-4D-ell4": "95c8631a9802f055394e9fb7a9e00fbeee9edcf3073c90cbfe1cb8cab4f5aca1",
    "compute-4D-ell5": "bfcb3f9f6507586338babe348fcc03621a60736de2ff5ac2f9d0edd74336fff8",
    "compute-4D-ell7": "bde35204c8420267606370fae6fc3bdcddbbc2f0ca569951413d6a3d1495e600",
    "compute-5C-ell2": "f08a78cf4e915a13db0efa23227a09da2a480c3d23b5458535a571641eeaf4e7",
    "compute-5C-ell3": "304db6fcceb394dc07d8dcff723275aed0cafc81018723652ff11bbe44887b54",
    "compute-5C-ell4": "d33c951f35847fad55204ade1eab6f9a03746f7ed06aa1e5b28d0a5edabc3ca0",
    "compute-5C-ell5": "bedce4dcaaf37d43becad95976a7c1d43ba57884869a6e8598133ba01816a471",
    "compute-5C-ell7": "e004009799601d870f2ad2364a78c5fa12acbb30d8b4d9f730d14946f66e26e6",
    "compute-trace-series": "d50a59585b0ba0036652436551ed6de4d2cb5c636949f46c36b2711654d386f9",
    "export": "f5a32bef6b50d93332de3e8c496fa1bbe68fffff664e6100221337b381a77544",
    "verify-all-json": "b8c2404dfa1390c66abcd2512ade43fa12c5ee7085213b48c4ecff0f73751495",
    "verify-all-prec12-json": "e7c0e0ad43e12843a987a9b7370b571b55c831a04d76b9ca72f194209384cba6",
    "verify-all-text": "1fb9871bf815d943c5c50c4757f1467a20a304836058252633a4e17c93b619fd",
    "verify-decomposition-prec9-json": "b6be93facb7dae850bbf2a3097f80059ea3f45603622e9234f83ac8ebb6df559",
    "verify-higher-lambency": "d036ae6fb7c15a050cbfe36c4a539d6443d84a8ec6b3cb6fc96b03baf926793f",
    "verify-sigma-prec24-json": "25d758ce9efd3d2f8385683e7a31a6e94be0a61823d7582feb0a62d3904b55f4",
}


def digest(invocations) -> str:
    h = hashlib.sha256()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        h.update(f"{' '.join(argv)}\nexit {code}\n".encode())
        h.update(out.getvalue().encode() + b"\0" + err.getvalue().encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_recorded_digest(case):
    assert digest(CASES[case]) == GOLDEN[case]


def test_every_case_has_a_digest():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    import sys
    for case in sorted(CASES):
        value = digest(CASES[case])
        print(f'    "{case}": "{value}",')
        if GOLDEN.get(case) != value:
            print(f"changed: {case}", file=sys.stderr)
