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
            # --what f does not read --ell; it is run at each ell all the same
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
#: and again when the jacobi suite gained its five elliptic-law rows
GOLDEN = {
    "compute-10H-ell2": "a15e271aadfd54fab9e32cfc60eeca7558031ca4ecb3c82a2b8e683fb02f45df",
    "compute-10H-ell3": "8c487e5d45c8522a6ec8430571ec6f657b7cfc0e62b943db7519576a1995ccf6",
    "compute-10H-ell4": "d1cabd299e73c1b9b41c715a34b32bc4b74e0ca0b5c56ba309b3faecadc898f7",
    "compute-10H-ell5": "c7a7842463159d3bb1828c1b3f3c5283ec5514c30708d4e7ad5f257d72bc2054",
    "compute-10H-ell7": "77db16b4049e52e303fedc8daadf16d0c2c889c04e9b2adcb3817e474c9b9bb8",
    "compute-10H-phi-prec24": "676493eadcb79f98ed92b9cf3a3d5aee2c87079b453fd15ffc8e4ae6f11522b7",
    "compute-12L-ell2": "8c093579593eb4de5e8625df9752057b668e6ed052baafcb959001c543708f6a",
    "compute-12L-ell3": "31bb8aa4e86b3462bd84079336e4c3e42bcdad3107c916b7a3d54ccc46f53819",
    "compute-12L-ell4": "e13a90c6b5ea88b1aa98dd2c97935eb2c97c5d25c27f5c3477f353d50b55a406",
    "compute-12L-ell5": "5e96cbb7d2cf4451cef9bcdce7b65aef66df1517e7bccc1e23d049e457dad91b",
    "compute-12L-ell7": "0155c6978c099af120378a7700a475013b3c00e1e798565997e039cf6110b18a",
    "compute-12L-phi-prec24": "b5179f9469cea236bf2aedadb3417aeb82a514e600f55acf1d72b84828aec522",
    "compute-1A-ell2": "d79f1886d6529d105ee72f88de0e9ae175fce22659e61d68a1b0b0d12e42bdbd",
    "compute-1A-ell3": "5d65c0fc414e2e5828c9350bd02efc0bbb754997ff1e0493799d8382bf29d8b9",
    "compute-1A-ell4": "04daa9350bce17a0ae1306f367171d08d0b169c6351e72825d8ce42e55d865fb",
    "compute-1A-ell5": "538ebc7281c89da1f826b1254186c34085e337007778bffe686f86ad02ff25ed",
    "compute-1A-ell7": "42c791d78ad6d51dde1223f02eb23faa5ad9d14913eb7461c2c0a87fad59e85a",
    "compute-1A-ell7-phi-prec24": "f31758028000f6a8314b81ec6267e6983f473db2f9e604e966e1d3062401bd60",
    "compute-2B-ell2": "572d15e6ba86560088239cf05d5b2b4f8a1aa23dacb4e8fa611f2b0627b48a47",
    "compute-2B-ell3": "62d990796a57199041b48a04d8c889bb1bcc3bff1295c30906d876acb26f2fd5",
    "compute-2B-ell4": "611cb65d8e73214edf18c6c78961ec80ffc2c49941f05111f29003d88a9af3aa",
    "compute-2B-ell5": "9aa4819d96e8821cb68bdcbd7957149c625474bd8a633fa03b847f9e830a0db6",
    "compute-2B-ell7": "c72604f147d091078c848851eb3662accaa28f2d42038668c77f44dde99fcf63",
    "compute-4D-ell2": "bb5b943dc5c8061b889720fd0a03c4b481bd10c81b54e89cec03546a6bcdf65d",
    "compute-4D-ell3": "dbcd02ee03b130efcda20aa6830bc45367a6c09d766035a3faa6b4aa5f8f3b93",
    "compute-4D-ell4": "1c391dd1cbbdacded2ec51291cf72575fcdce00ec742ee100bb2598575040558",
    "compute-4D-ell5": "6f37ed36e8ab4422804d796b811480eeb728b1818e2b4f7ef996ec4f08ab7d2a",
    "compute-4D-ell7": "642b6a14bd646eda82f499f12b71c82e4c896967ba6f68eedff7ffd62ae54627",
    "compute-5C-ell2": "f08a78cf4e915a13db0efa23227a09da2a480c3d23b5458535a571641eeaf4e7",
    "compute-5C-ell3": "d6f27dcefcb4862858212027388c47c66f6d8e9d54a021a293ba5faa01e4618f",
    "compute-5C-ell4": "876a78c21543dc4868e04aa88189df590d1b8c98a8f83cc5bf8878058df02941",
    "compute-5C-ell5": "17b6eb54c9f21c06f1a4dc05fe27a30b64c89f28ae848320553d3126f180d129",
    "compute-5C-ell7": "b5d66ac418202cf10f5fa34cd02e99af558333b3f69c05f6a511cabc84d14776",
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
