"""Byte-identity gate for the command-line streams.

Each entry pins the sha256 digest of the stdout of one ``permutads``
command: every enumeration kind for n = 1..5, the leveled trees for n = 6,
every conversion between the four encodings of the n = 5 streams, the
n = 5 boundaries in JSON and CSV, ``verify all --max-n 4``, and the n = 4
weak order in each ``bruhat`` mode: the cover stream and the DOT graph,
each with and without ``--type1-only``, the connectivity line, and one
admissible path; the ``permutad dim`` row of every preset at arities
1..6; and the sizes the stream benchmark runs: the n = 6 and n = 7 cover
streams, the n = 6 cells and boundary CSV, and the n = 6 trees converted
to surjections.  A conversion reads the n = 5 enumeration of its source
encoding unless its key names another source command after `` < ``.  A
refactor that keeps these digests keeps the byte streams.
"""

import contextlib
import hashlib
import io

import pytest

from permutads.cli import main

ENCODINGS = {
    "surjection": "surjections",
    "shuffle": "shuffles",
    "tree": "trees",
    "comb": "combs",
}

GOLDEN = {
    "enum surjections --n 1": "cad6e6b6de5e32023fc714e29ae985678ce8a6e3f1a3da2014c5573061bf270a",
    "enum surjections --n 2": "1f530038d51904c251e582707fd3ed5aed17b440df8874d62fbb7ac2f0ef6d8c",
    "enum surjections --n 3": "c122751cd6da70fb634353c29e63e7f4055cbd4da5220f91af11d2a8f3d828c9",
    "enum surjections --n 4": "3b7294cda1f90d113aa12cfb835770b0b369409507465d6c060967f9a0a85a22",
    "enum surjections --n 5": "ccde38058e1ad871c54fe9a2c4f63a4d3824e3a893692fcac95d2842c11143e3",
    "enum shuffles --n 1": "751f581b744e8da355d2c91c729b83d354ad7974ab01edea97490a99e0d05a81",
    "enum shuffles --n 2": "dc853f9b718f035a51157597b495dfb12757a3cb59520d6f3744a35ac6ece853",
    "enum shuffles --n 3": "87b7cb683db49b42839538b951536c209c61e7023c9be3f058298c30491f118d",
    "enum shuffles --n 4": "8b7f5e884b742cd7924dea7364dbe64d31eb52e1610e79055c521cf70f2de93b",
    "enum shuffles --n 5": "b40cd2aeefa7efd689a66d8b9ed9e05f82aeb36b0f880b414c72a548c9c8412d",
    "enum trees --n 1": "b71d78cc3f2a92d3c8cbd64c9304442895b428dcf4d7ba7099c37b630912ee44",
    "enum trees --n 2": "f3b4086cc5c8646d04d0005b9247c3ef1d60f980805376e89a469c645c7e2fa6",
    "enum trees --n 3": "89435f12dd0c0755cba125192fde752b2f14bb50dbd83eee893ff0ef36c03700",
    "enum trees --n 4": "2389130e0dcf134f00e77f18239c45716b6aa8c3178e9e520a29a17c081778b6",
    "enum trees --n 5": "1c0e86c0d531a57462b4b8ada7b39163ba7799a9e9900d885059c61ceb168bbf",
    "enum trees --n 6": "28ddd2460615df1f63c4448306c132b688f6f78e2c50191853ed56bac393b265",
    "enum combs --n 1": "30170b64ae271c69856557626a9e3718c9595a4ddeeddf7a6b3703c60bc9a518",
    "enum combs --n 2": "de21b2a95b9c4686c0f410b189c28107ede7132b17c5a3ee9b2a42521569cdbc",
    "enum combs --n 3": "bc0c715ab08111e9cc89e22b58c9c4c9052d1b43f3d0b8982040e94aed29861c",
    "enum combs --n 4": "8149f935190375d77c7b7909071dbfee0787d3713aed0753a93e268956c5b18d",
    "enum combs --n 5": "db8cd99e2c27ff2cd36c5f5696d2081d739b4810a1743a4457885d0151a6c156",
    "enum cells --n 1": "91e79f0528a96a84bbed736ebec529d8d3ecd553fba27468e961451787dada7e",
    "enum cells --n 2": "7f27a5dcc1dabda8dca417e2bf5e3435beb77d7dbcd47167f5558a71c4204c51",
    "enum cells --n 3": "3fd3699fbf02ec6e5efc2bdb0e6826015e04401986481621fea7adcf7bdf1f19",
    "enum cells --n 4": "aaf35561800952d952b99a80cadc9cd386621f28a9f7a1010ae3a6197cba4f15",
    "enum cells --n 5": "eb904b8365b483065dd300a7f639b110b7e3cc7e35f2553218a9d34776c82596",
    "convert --from surjection --to surjection": "ccde38058e1ad871c54fe9a2c4f63a4d3824e3a893692fcac95d2842c11143e3",
    "convert --from surjection --to shuffle": "b40cd2aeefa7efd689a66d8b9ed9e05f82aeb36b0f880b414c72a548c9c8412d",
    "convert --from surjection --to tree": "1c0e86c0d531a57462b4b8ada7b39163ba7799a9e9900d885059c61ceb168bbf",
    "convert --from surjection --to comb": "db8cd99e2c27ff2cd36c5f5696d2081d739b4810a1743a4457885d0151a6c156",
    "convert --from shuffle --to surjection": "ccde38058e1ad871c54fe9a2c4f63a4d3824e3a893692fcac95d2842c11143e3",
    "convert --from shuffle --to shuffle": "b40cd2aeefa7efd689a66d8b9ed9e05f82aeb36b0f880b414c72a548c9c8412d",
    "convert --from shuffle --to tree": "1c0e86c0d531a57462b4b8ada7b39163ba7799a9e9900d885059c61ceb168bbf",
    "convert --from shuffle --to comb": "db8cd99e2c27ff2cd36c5f5696d2081d739b4810a1743a4457885d0151a6c156",
    "convert --from tree --to surjection": "ccde38058e1ad871c54fe9a2c4f63a4d3824e3a893692fcac95d2842c11143e3",
    "convert --from tree --to shuffle": "b40cd2aeefa7efd689a66d8b9ed9e05f82aeb36b0f880b414c72a548c9c8412d",
    "convert --from tree --to tree": "1c0e86c0d531a57462b4b8ada7b39163ba7799a9e9900d885059c61ceb168bbf",
    "convert --from tree --to comb": "db8cd99e2c27ff2cd36c5f5696d2081d739b4810a1743a4457885d0151a6c156",
    "convert --from comb --to surjection": "ccde38058e1ad871c54fe9a2c4f63a4d3824e3a893692fcac95d2842c11143e3",
    "convert --from comb --to shuffle": "b40cd2aeefa7efd689a66d8b9ed9e05f82aeb36b0f880b414c72a548c9c8412d",
    "convert --from comb --to tree": "1c0e86c0d531a57462b4b8ada7b39163ba7799a9e9900d885059c61ceb168bbf",
    "convert --from comb --to comb": "db8cd99e2c27ff2cd36c5f5696d2081d739b4810a1743a4457885d0151a6c156",
    "boundary --n 5 --format json": "52ece29f5d2ad009e31ae87dd7184428616065e518cc45cc6a79026444fbea61",
    "boundary --n 5 --format csv": "f18bb19dad699d956cbf8cf1d286ca131fca585344509a9e3e5d9d27234dae0f",
    "verify all --max-n 4": "8e24189248a7536698c17bf5f520c3f90330de627b970baf53f263144dc66522",
    "bruhat --n 4": "2d20b4a087f281e0b0cc4d0c89b3ddf426d84ee707b747580562aa84d021816c",
    "bruhat --n 4 --type1-only": "d079e8fd5379df536d7f5170c4fe674adf129c444abbddb7422b878bbedf6ccd",
    "bruhat --n 4 --dot": "a66c33244415dad6641c4e25caa410f3180b3934ebb2d7c803f94c085b33774b",
    "bruhat --n 4 --dot --type1-only": "6167a2d4fc7a7d8f9d223543442bd3c69807d69999bd58237fd9ceb2ccb4bd8c",
    "bruhat --n 4 --check-connected": "2594a125998e150000a10fcd99e27571ec026e7ddfbb719262dbffff9598db4e",
    "bruhat --path 1,3,2,4 1": "48d685126584082b82194b6e6a323ce9fddcf0064913043b82b23c0ab1bba407",
    "bruhat --n 6": "f35210dfffb977c8cabeb986effcae18266b1ba70cd4bd18d230a315ecb4a8f4",
    "bruhat --n 7": "5946970028dcc74272fd5268dd1a111c5eaacc056061b697d5d5b43a713a3c11",
    "boundary --n 6 --format csv": "dd00b0e6e79a62a7ce69dbca3d5e174c73aad927d8bb7dcc6eea723a670d0b50",
    "enum cells --n 6": "6cb04d0be8c0c767af74f1032fe3247bcc6d3a1625cdd2b93a7ba1e24d0625cb",
    "convert --from tree --to surjection < enum trees --n 6": "e6a99f7d522839f572d433f798a2a4f4c69170d424183c0b05e4635a80faf9b9",
    "permutad dim --preset permMag --n 1": "d29bf1cc4ab5c86971a235c3ff67903346a7329f40dc1b82c3adf86550f0f4be",
    "permutad dim --preset permMag --n 2": "802bed7b288aee66f7abd46a606e0d2bebf3dc0611b2f63d12388a474e14e044",
    "permutad dim --preset permMag --n 3": "fd34aeee5c44e5cbda3664c216a4bbb0ae3dadea09ec59346f4d89af720e4ec2",
    "permutad dim --preset permMag --n 4": "0a2d4d8c3035140032d2b0c49756b9bd6995d3707583fb03c4f8ed9eabea6f21",
    "permutad dim --preset permMag --n 5": "ced47e1513676389f3245ed90a8d133861d57c051eea745de36638c454fae1c4",
    "permutad dim --preset permMag --n 6": "b392d80dee25f308abc12a5bd41a1b29fc93867f5d11fef81776e1ad6b4c3bc3",
    "permutad dim --preset qPermAs --n 1": "3a10af085959d0485bc064c429bb708f4aa285b084212e52e734c047cf0469f4",
    "permutad dim --preset qPermAs --n 2": "536c31c2db8ec5082982952a9bd40e906d9e67486716ed5c91f61dce16e607c3",
    "permutad dim --preset qPermAs --n 3": "0f591f4495f4036e719e7a918d79e5a329eeff89d0c659feb29a98ef0718ab3e",
    "permutad dim --preset qPermAs --n 4": "6850f7b07cdcabcce05cf876b61489ae4a864bab2ffb9e0790054af8c4a2216c",
    "permutad dim --preset qPermAs --n 5": "6435cf2ae988435dc0eb414487028d3a12b85b9e7006d295ee70994b1bd4bed3",
    "permutad dim --preset qPermAs --n 6": "0dccba3f14000082cf6c56b8381d30c347d49a00b7c39387b3771a9693d90806",
    "permutad dim --preset permAsSh --n 1": "290f0ab685f9c3fc655d9cce734ee6821445dac25a07e8b14de285a1e75f09b3",
    "permutad dim --preset permAsSh --n 2": "cd7d8b3d643198390bf921794940c4031a05d228da1ad7d38a1074d39285e249",
    "permutad dim --preset permAsSh --n 3": "535a41cb4c01fc42c4b8b0c5a49aa436c32c4ce45e8f25899e4d1fc02fe8b76f",
    "permutad dim --preset permAsSh --n 4": "d537d01f005475574a013bc19796ed31d7bb017abea5a2008654247d338b55f1",
    "permutad dim --preset permAsSh --n 5": "a7e215b5ad98e8097f540879b3d9c7399d4fb1058c8e2fd8102ac9f6d86f8508",
    "permutad dim --preset permAsSh --n 6": "6736906c7011bd04be484d207d0b9d0e7dd7f1392493afcca94a03f977c91318",
}


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_output(command: str, tmp_path) -> str:
    command, _, producer = command.partition(" < ")
    argv = command.split()
    if argv[0] == "convert":
        source = tmp_path / "input.jsonl"
        producer = producer or f"enum {ENCODINGS[argv[2]]} --n 5"
        source.write_text(stdout_of(producer.split()))
        argv += ["--input", str(source)]
    return stdout_of(argv)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stream_digest(command, tmp_path, monkeypatch):
    monkeypatch.delenv("PERMUTAD_MAX_N", raising=False)
    assert digest(golden_output(command, tmp_path)) == GOLDEN[command]
