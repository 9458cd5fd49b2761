"""Byte-level pins: trace serialisations and netlist texts must not drift.

Each digest is the SHA-256 of the exact text a public function returns,
or, for a netlist, of its `oracles.netlist_text`.  A refactor that keeps
behaviour but renumbers a gate, reorders a trace event or changes a
payload shows up here even when every oracle still agrees.
"""

import contextlib
import hashlib
import io

import pytest

from xbar import query_circuits
from xbar.array_builder import build
from xbar.cli import main
from xbar.netlist import legalize
from xbar.pe_simulator import detect_write_conflicts, sort

import oracles


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# values -> (conflict count, sha256 of the JSON-lines trace, sha256 of the CSV trace)
TRACE_DIGESTS = [
    ([6, 7, 8, 5], 1,
     "1da51491b96fffa4c9970c31e37091833c2e06f5bc3788f78c04274b605a8775",
     "338272682d6ee1c219f441ae932b109efe7f340ef12bf95594e07b441b8a4955"),
    ([8, 6, 9, 5, 7], 0,
     "507e3b232da1637be9e1220532666ffb4a517b1b4f5605bd6bd9fb2f14d981cf",
     "ba1fed1bcd989939fde6c35e8239734853aa656eb462d319e0b1d9a2fbf02663"),
    ([4, 4, 1, 7, 0, 7], 2,
     "61ba79f26f451e7ce272cac71cdaa587212f37be79f5f7c26222533ac2fd3c08",
     "e7f5d7237ceaf4a056dd061eb39ae5eb1860c4c503253a3e62ef7a76806618e9"),
    ([3, -1, 3, 2**70, -5, 0, 0, 9, 3], 0,
     "04aa9e2d8dddfc6eac852b92a4f708b5b856f8f5d2ef4b1c25155337dd173397",
     "897062a1680e2b373e85148bd104e572a6341124c84c6d330256d9ab7a42397d"),
]


@pytest.mark.parametrize("values,conflicts,jsonl,csv", TRACE_DIGESTS,
                         ids=lambda p: f"n{len(p)}" if isinstance(p, list) else None)
def test_trace_bytes(values, conflicts, jsonl, csv):
    _, _, trace = sort(build(len(values)), values)
    assert len(detect_write_conflicts(trace)) == conflicts
    assert _sha(oracles.written(trace, "jsonl")) == jsonl
    assert _sha(oracles.written(trace, "csv")) == csv


# `xbar build --n n --format f` -> sha256 of its stdout.
BUILD_DIGESTS = {
    (2, "json"): "91d180ef4137f48b46464305152b72aebbc8988426b0834615b5261f801ac108",
    (2, "csv"): "bbb7da8d2e156d0036f41d3c449ee2e2a94cb675de2dacb210453fe2f278e695",
    (2, "text"): "ad3efa64b98825bffe3b1b2375ebaecdff1435951f2babc457303fd941d8442b",
    (3, "json"): "5ef9430e853e5c8fd05e0998a0d13d781812e8e9c1e22935a48ae3a07d350be7",
    (3, "csv"): "3248cbf70600715da0a1b3e2dec029b031075ba3aaa6285e9cc020f3274ab859",
    (3, "text"): "3b78455a0603ee3b7eb798518967ad3129d626367cdfbf90c48ac6599a0b535d",
    (4, "json"): "2f4780ba77709eb0165ed9cc92ff9761a1b86e7e83f0a6b8ddd82bc4d8c1865c",
    (4, "csv"): "70d4ea0f77380287fdd9c66777ec16e2c51b86766e1443f629e5352a2d249d61",
    (4, "text"): "1fe32c0963ccc13613b7b5d584f06974ed6de5311d8ad7b215a6d28c6af2316f",
    (5, "json"): "49d620341e0dc27a786ddaeacabcdf76310cd47c6a9b8f7203f0de46d7e7b034",
    (5, "csv"): "955d216d299829d1ad007a046c52b3a6df6f40edbb3b11fb722727f4e06b8056",
    (5, "text"): "85ac26cd39fb13c18136c0b9ceb00c311949fd4b30a2b86a57dfb7d5ee811c96",
    (8, "json"): "faf2a58e9b25f2e655555b2452c5017a83e33d6600b62db1b8f0d64e2b9c967e",
    (8, "csv"): "5ef73298e66e8a6d155514f9245a73b8482f18026e6c2c17622f978866a164db",
    (8, "text"): "e9fb1f376b88736117d2561052de5ba62f516c620b73640c0570a39dc7082242",
    (13, "json"): "77566e901eface309b6760b9b8e0a3bd68685ce17854e7ca5faff992c6ad066c",
    (13, "csv"): "37377224d758d25f913812cb670a138376df1b3a0c44e758787df78670dd3705",
    (13, "text"): "1d007859c65e68755ee0c311f33f8796d88d3fcce219a42616186cdfcf05ebbe",
    (16, "json"): "e75ad5ffeeb8729a5b4e3df5d7ee1f0009ee0ae8514815ce30a5f1fe07acecb6",
    (16, "csv"): "7b01a190af709effa9629acd357116895a86b797606d878bdb7ae84a3330b5e0",
    (16, "text"): "6f2a95370105a27a6d7c4c5761573ef4a6ca4b3946dc104367a5d68060aa7ca4",
}


@pytest.mark.parametrize("n,fmt", sorted(BUILD_DIGESTS))
def test_build_stdout_bytes(n, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", "--n", str(n), "--format", fmt]) == 0
    assert _sha(out.getvalue()) == BUILD_DIGESTS[n, fmt]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# `xbar sort` arguments -> (sha256 of the `--format csv` stdout, sha256 of the
# `--trace` file).  Inputs come from the default seed unless given.
SORT_OUTPUT_DIGESTS = {
    ("--n", "4"): (
        "2af02e9dc7ecdfcf8ab7a555ed6f2400117833be7f4778e8192f028dfa42b069",
        "6606a9fb4989f48d8d862d23e9ce71c984c44160ed506a500be812f1c6cc7712"),
    ("--n", "5"): (
        "4e4f08447e33b42312cd561f46e0c7c050da52a2545ac3799856c33ca3f6b111",
        "377614c673dee05e7935c1f02f9325277e1d5112546460595848217d3b39c596"),
    ("--n", "6", "--input", "4,4,1,7,0,7"): (
        "e7f5d7237ceaf4a056dd061eb39ae5eb1860c4c503253a3e62ef7a76806618e9",
        "61ba79f26f451e7ce272cac71cdaa587212f37be79f5f7c26222533ac2fd3c08"),
    ("--n", "10"): (
        "a8146d2d47c97f2f2fa4a6e2a0cb8738ba59ad76c7b5d680a9bd1f30b4062073",
        "3cf47d01394814c664c3b8a6080d84f44b2d433df8c7114b9f2ea85e53585af0"),
    ("--n", "65"): (
        "70452d5f606344ff22d5993ee124c1a621e9d5cff7f690193d2907f8551b613a",
        "4168c0a5788a62b92543741ab2f2c1aa2ace5ba1a2f99a63965b7e1339d0f2f9"),
}


@pytest.mark.parametrize("outputs", ["csv", "trace", "csv+trace"])
@pytest.mark.parametrize("args", sorted(SORT_OUTPUT_DIGESTS), ids=" ".join)
def test_sort_csv_and_trace_file_bytes(tmp_path, args, outputs):
    # Alone and from one command, which writes the trace file, then the CSV.
    csv_digest, trace_digest = SORT_OUTPUT_DIGESTS[args]
    path = tmp_path / "t.jsonl"
    argv = ["sort", *args]
    if "csv" in outputs:
        argv += ["--format", "csv"]
    if "trace" in outputs:
        argv += ["--trace", str(path)]
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    if "csv" in outputs:
        assert _sha(out) == csv_digest
    if "trace" in outputs:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_digest


def test_writers_stream_chunks():
    _, _, trace = sort(build(64), list(range(64, 0, -1)))
    for sink, reference in (("jsonl", oracles.jsonl_reference), ("csv", oracles.csv_reference)):
        pieces = []
        trace.write(**{sink: pieces.append})
        assert len(pieces) > 1
        assert {type(piece) for piece in pieces} == {bytes}
        assert b"".join(pieces) == reference(trace).encode()


# `xbar perm --n n [--j j] --format f` -> sha256 of its stdout; j None lists the Q partition.
PERM_DIGESTS = {
    (4, None, "text"): "405ea4224d06a0ce03ed1c7405bcf0296b2b0bd88c46734e85ca3e23962053ae",
    (6, None, "text"): "6646857f58b69b13e4b4edc88969bd492bdac2822d2b71ac2ee7bd364c888049",
    (12, None, "text"): "72d50423ec9a4b910635b8cc7ed18507f4071821fdd1b3d08e9dd6e980b66003",
    (64, None, "text"): "c0f0480f538a8b36f0f9c0ce48104098bad9b994ccc45471be26bfec43812e08",
    (2, 1, "text"): "53240af283b49c52bc03e7bc95545690fdcee25a075c546b93b6fb1e8f940bf9",
    (2, 2, "text"): "99d7ff590a55780e2d8a4157534cc1a951185b5e20306cbd313856018f72d41f",
    (5, 1, "text"): "2ba43dab71459ee890aa1555d6fe158cfead71dfec87ef88b53b56184ab2059e",
    (5, 5, "text"): "95b60fd023b4c7d52ba4eafbd634180352b59dbade60861a532a9730692b3b92",
    (12, 1, "text"): "fd93ba0d7d8e85a8ccb6f411d09cf24657f94ef50ecccb83ed6723f482fa08c2",
    (12, 5, "text"): "4171a1ae29af866eef294bbb8b2075c63728246b16379e3a10d6f112d6d94a74",
    (12, 12, "text"): "2dc7aa5c26f09ecfc19d602c9742aa1fb57efdc259362a84a06905bf216cb088",
    (4, None, "json"): "651acaa61a1f4ae3a957353157cddf5b512804716d85f00a5b1bb9f0b1ff1a43",
    (6, None, "json"): "9e99eb75bb9ef091b1a2656a396a3eb0523ff3be489db6b1730e0a7f1c6a4a8a",
    (12, None, "json"): "03341b19b7b5d980d4e263392304d32ebaea201cc9234e1c3d5bf2accccae0f1",
    (64, None, "json"): "49af8cd89c6257858ef9499077195095443f50487e97c0068aa90c95071fb3db",
    (2, 1, "json"): "0bcc986909a593aa2e81694ba5ed6434ed703afcd08d0155596d09616a29c947",
    (2, 2, "json"): "687d2b633c88a691828f1260886b9196465b3a4883826e71ae2b7f357fb8fc8f",
    (5, 1, "json"): "8089d8d7ca19a4a265c096bafa642df2a4ddf829ca3e045a619d12108f8aa205",
    (5, 5, "json"): "abcd60ef1e38d839fb1c7a6b58b8979c8e9b9a87171a7f29b2f36d2b1136bfc0",
    (12, 1, "json"): "47d9713f69dc3e1164ab8841807a6b91401bdc459733a5e8195077218a125123",
    (12, 5, "json"): "78ee457fea8495c768583fcb0925ff4b94c73210d4fb29a58334e5c076456e48",
    (12, 12, "json"): "5e15b2acd2e5f2ca67d07ed4277bdcfe38037b5031f7facea027bb43a70db8b0",
}


@pytest.mark.parametrize("n,j,fmt", sorted(PERM_DIGESTS, key=repr))
def test_perm_stdout_bytes(n, j, fmt):
    argv = ["perm", "--n", str(n), "--format", fmt] + (["--j", str(j)] if j else [])
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert _sha(out) == PERM_DIGESTS[n, j, fmt]


# `xbar perm` arguments -> (exit code, sha256 of stderr); stdout stays empty.
PERM_ERROR_DIGESTS = {
    ("--n", "1", "--j", "1"):
        (2, "643444e370908535e141e58bc655a26c5143c27fae1ae31cd705b91c21789f1e"),
    ("--n", "12", "--j", "0"):
        (2, "1d1298a202d56109835992c0455babcc45cd2124d9e0ecdb86c8e4685be57329"),
    ("--n", "12", "--j", "13"):
        (2, "4f8fb4b0734e2ecadc7a357e9b4534fa251f643e6644f3cb4b60aa0b0731874b"),
    ("--n", "7"):
        (2, "6b9af860ea900b5bc33d1996da00743e179e873c397feb6233be3d352ebd657d"),
    ("--n", "2"):
        (2, "3be83e9f2e1c30201c64ebeb1f2fdfa4223ae512686f5c7d5f900517b9ac39be"),
}


@pytest.mark.parametrize("args", sorted(PERM_ERROR_DIGESTS), ids=" ".join)
def test_perm_error_bytes(args):
    code, out, err = _run(["perm", *args])
    assert out == ""
    assert (code, _sha(err)) == PERM_ERROR_DIGESTS[args]



# `xbar` sort and query arguments -> sha256 of stdout; the command exits 0 and
# writes nothing to stderr.  Inputs come from the default seed unless given;
# each search looks for the value at index n // 2 and for the absent key 100.
QUERY_DIGESTS = {
    ("sort", "--n", "4", "--format", "text"):
        "39c3fe046f981b549862d777f9f34f45063a4edd43ad135d987bf80354a3201d",
    ("min", "--n", "4", "--format", "text"):
        "fa902b34e3a20fc1bee37c44ddf7da1b6cb3f0b7bf359c5388ccaca60d610c05",
    ("max", "--n", "4", "--format", "text"):
        "d462fc05549fbd56c85405247874e1c9d0a1480be122a236dfb63336161704ca",
    ("rank", "--n", "4", "--r", "2", "--format", "text"):
        "339dcfbfeb5f620f2e495bf03570535b089021f7cbfbde44b8bf8f8262f05d65",
    ("search", "--n", "4", "--key", "53", "--format", "text"):
        "339dcfbfeb5f620f2e495bf03570535b089021f7cbfbde44b8bf8f8262f05d65",
    ("search", "--n", "4", "--key", "100", "--format", "text"):
        "78d38a096b1cee2b3d399986542f5bc21f4bcfb4c2bcd5c81621cab4f938c15e",
    ("sort", "--n", "4", "--format", "json"):
        "cbf9c422c004d17e1e61d519e3aea9622d8fa3094c73356dd22e96c9205d15a5",
    ("min", "--n", "4", "--format", "json"):
        "3fcab4cd5744dc5ecea6d37ba4e631a9e0fd844549ff4239663d1a4304504a74",
    ("max", "--n", "4", "--format", "json"):
        "c0e1106ca43cb00cc1e7d1ebd133fbb165aa2bcbad394b805a5531098be101cf",
    ("rank", "--n", "4", "--r", "2", "--format", "json"):
        "4e3a62ce500d99a4dd7b6c630f76d1f4f4f94f8f6b095ef5737e55be44593393",
    ("search", "--n", "4", "--key", "53", "--format", "json"):
        "4e3a62ce500d99a4dd7b6c630f76d1f4f4f94f8f6b095ef5737e55be44593393",
    ("search", "--n", "4", "--key", "100", "--format", "json"):
        "33976cb9668ae2df412e33db9f3aa0fb0f69d0e02bb1bb896db3602695b9708c",
    ("sort", "--n", "5", "--format", "text"):
        "13e5b9d820a1defbc39a4b80f03fa087bbb19542309effae1adf83f33ad36594",
    ("min", "--n", "5", "--format", "text"):
        "fa902b34e3a20fc1bee37c44ddf7da1b6cb3f0b7bf359c5388ccaca60d610c05",
    ("max", "--n", "5", "--format", "text"):
        "d462fc05549fbd56c85405247874e1c9d0a1480be122a236dfb63336161704ca",
    ("rank", "--n", "5", "--r", "2", "--format", "text"):
        "6c87e52e85f3255bed04633bd509aa7dfcb92300221e0e78cab560fd1c9373ed",
    ("search", "--n", "5", "--key", "53", "--format", "text"):
        "339dcfbfeb5f620f2e495bf03570535b089021f7cbfbde44b8bf8f8262f05d65",
    ("search", "--n", "5", "--key", "100", "--format", "text"):
        "78d38a096b1cee2b3d399986542f5bc21f4bcfb4c2bcd5c81621cab4f938c15e",
    ("sort", "--n", "5", "--format", "json"):
        "7235585ec0505ddfe4b53f82b2dc05ba5c30f667d6c325f1f857a572e6820dcc",
    ("min", "--n", "5", "--format", "json"):
        "3fcab4cd5744dc5ecea6d37ba4e631a9e0fd844549ff4239663d1a4304504a74",
    ("max", "--n", "5", "--format", "json"):
        "c0e1106ca43cb00cc1e7d1ebd133fbb165aa2bcbad394b805a5531098be101cf",
    ("rank", "--n", "5", "--r", "2", "--format", "json"):
        "6c2dbee4e4e51e56f39a4daf9dc409345444ff0236b45a437194e2fe3b08a42c",
    ("search", "--n", "5", "--key", "53", "--format", "json"):
        "4e3a62ce500d99a4dd7b6c630f76d1f4f4f94f8f6b095ef5737e55be44593393",
    ("search", "--n", "5", "--key", "100", "--format", "json"):
        "33976cb9668ae2df412e33db9f3aa0fb0f69d0e02bb1bb896db3602695b9708c",
    ("sort", "--n", "10", "--format", "text"):
        "d19ecc069ddaadaf79d592220773f0986dbcd46c46df002003e2eb0c346c9015",
    ("min", "--n", "10", "--format", "text"):
        "fa902b34e3a20fc1bee37c44ddf7da1b6cb3f0b7bf359c5388ccaca60d610c05",
    ("max", "--n", "10", "--format", "text"):
        "d462fc05549fbd56c85405247874e1c9d0a1480be122a236dfb63336161704ca",
    ("rank", "--n", "10", "--r", "5", "--format", "text"):
        "339dcfbfeb5f620f2e495bf03570535b089021f7cbfbde44b8bf8f8262f05d65",
    ("search", "--n", "10", "--key", "65", "--format", "text"):
        "31426aa26ee19180babd5ff74a35b0a787184f0720101a22832dd957d7201e06",
    ("search", "--n", "10", "--key", "100", "--format", "text"):
        "78d38a096b1cee2b3d399986542f5bc21f4bcfb4c2bcd5c81621cab4f938c15e",
    ("sort", "--n", "10", "--format", "json"):
        "3b1b6c4b1fbbe96860e6156cd23ebf53a7bd366231ffc3fbfee017cc86d9bd69",
    ("min", "--n", "10", "--format", "json"):
        "3fcab4cd5744dc5ecea6d37ba4e631a9e0fd844549ff4239663d1a4304504a74",
    ("max", "--n", "10", "--format", "json"):
        "c0e1106ca43cb00cc1e7d1ebd133fbb165aa2bcbad394b805a5531098be101cf",
    ("rank", "--n", "10", "--r", "5", "--format", "json"):
        "4e3a62ce500d99a4dd7b6c630f76d1f4f4f94f8f6b095ef5737e55be44593393",
    ("search", "--n", "10", "--key", "65", "--format", "json"):
        "21246308b3af0e1c2742e618fed43e1809b7bfbb841d1abe56b00612832d0714",
    ("search", "--n", "10", "--key", "100", "--format", "json"):
        "33976cb9668ae2df412e33db9f3aa0fb0f69d0e02bb1bb896db3602695b9708c",
    ("sort", "--n", "65", "--format", "text"):
        "6a8ec5926d1b8528efd5390e6d901a339958f7511e9011440ad7a5913befcca2",
    ("min", "--n", "65", "--format", "text"):
        "030189969413c6307b742599ef28920dbd55fc73e84c504b2fa119b28dfd4646",
    ("max", "--n", "65", "--format", "text"):
        "d462fc05549fbd56c85405247874e1c9d0a1480be122a236dfb63336161704ca",
    ("rank", "--n", "65", "--r", "32", "--format", "text"):
        "339dcfbfeb5f620f2e495bf03570535b089021f7cbfbde44b8bf8f8262f05d65",
    ("search", "--n", "65", "--key", "71", "--format", "text"):
        "afd05e6a2b08d491d244e84712745261f42b403ba5ef1a8fc155c0afb99eaf94",
    ("search", "--n", "65", "--key", "100", "--format", "text"):
        "78d38a096b1cee2b3d399986542f5bc21f4bcfb4c2bcd5c81621cab4f938c15e",
    ("sort", "--n", "65", "--format", "json"):
        "65df8ad71b169cffa602a614100b0f01bfcc3e044459b2f20398dd1bc5b8cef8",
    ("min", "--n", "65", "--format", "json"):
        "bcad29a446c7a93dd50d9900146f4de8417a3f0f568059b3d74b2f90da42b8fd",
    ("max", "--n", "65", "--format", "json"):
        "c0e1106ca43cb00cc1e7d1ebd133fbb165aa2bcbad394b805a5531098be101cf",
    ("rank", "--n", "65", "--r", "32", "--format", "json"):
        "4e3a62ce500d99a4dd7b6c630f76d1f4f4f94f8f6b095ef5737e55be44593393",
    ("search", "--n", "65", "--key", "71", "--format", "json"):
        "af338fe6ca0392967f89b04a8e7ad86e9c8a3a708a3b37b247e7aa9c14e22d82",
    ("search", "--n", "65", "--key", "100", "--format", "json"):
        "33976cb9668ae2df412e33db9f3aa0fb0f69d0e02bb1bb896db3602695b9708c",
    ("sort", "--n", "6", "--input", "4,4,1,7,0,7", "--format", "text"):
        "b8e2a9b4c361be61a02ef38f9453e10a35d992543d0b6b68b91abac1991bdeae",
    ("rank", "--n", "6", "--input", "4,4,1,7,0,7", "--r", "5", "--format", "text"):
        "31426aa26ee19180babd5ff74a35b0a787184f0720101a22832dd957d7201e06",
    ("search", "--n", "6", "--input", "4,4,1,7,0,7", "--key", "7", "--format", "text"):
        "fa902b34e3a20fc1bee37c44ddf7da1b6cb3f0b7bf359c5388ccaca60d610c05",
    ("sort", "--n", "6", "--input", "4,4,1,7,0,7", "--format", "json"):
        "bab9571b210245c04085bbebb9388a252e72494aac3743106d2807926e4e406c",
    ("rank", "--n", "6", "--input", "4,4,1,7,0,7", "--r", "5", "--format", "json"):
        "21246308b3af0e1c2742e618fed43e1809b7bfbb841d1abe56b00612832d0714",
    ("search", "--n", "6", "--input", "4,4,1,7,0,7", "--key", "7", "--format", "json"):
        "3fcab4cd5744dc5ecea6d37ba4e631a9e0fd844549ff4239663d1a4304504a74",
}


@pytest.mark.parametrize("argv", sorted(QUERY_DIGESTS), ids=" ".join)
def test_query_stdout_bytes(argv):
    code, out, err = _run(list(argv))
    assert (code, err) == (0, "")
    assert _sha(out) == QUERY_DIGESTS[argv]


# `xbar` sort and query arguments -> (exit code, sha256 of stderr); stdout stays
# empty.  The layout is checked before the input, and the input before --r.
QUERY_ERROR_DIGESTS = {
    ("sort", "--n", "1"):
        (2, "643444e370908535e141e58bc655a26c5143c27fae1ae31cd705b91c21789f1e"),
    ("min", "--n", "1"):
        (2, "643444e370908535e141e58bc655a26c5143c27fae1ae31cd705b91c21789f1e"),
    ("max", "--n", "1"):
        (2, "643444e370908535e141e58bc655a26c5143c27fae1ae31cd705b91c21789f1e"),
    ("rank", "--n", "1", "--r", "0"):
        (2, "643444e370908535e141e58bc655a26c5143c27fae1ae31cd705b91c21789f1e"),
    ("search", "--n", "1", "--key", "0"):
        (2, "643444e370908535e141e58bc655a26c5143c27fae1ae31cd705b91c21789f1e"),
    ("sort", "--n", "1", "--input", "1,2,3"):
        (2, "643444e370908535e141e58bc655a26c5143c27fae1ae31cd705b91c21789f1e"),
    ("search", "--n", "1", "--key", "1", "--input", "1,2,3"):
        (2, "643444e370908535e141e58bc655a26c5143c27fae1ae31cd705b91c21789f1e"),
    ("rank", "--n", "5", "--r", "-1"):
        (2, "1ea5c6038a2b1fbd9074c4a20642fe3a2819297a21228468fbab2a662394ac0a"),
    ("rank", "--n", "5", "--r", "5"):
        (2, "0d1784d37792649f8ac22c9924a01cc94d2ddd75731e5791f7d7ac06f9cb2aa2"),
    ("rank", "--n", "5", "--r", "9", "--input", "1,2,3"):
        (2, "3b4cc6ba39aa2ef9970010a2dde48a89fbbc6523463e56cab573ab7328f640e4"),
    ("sort", "--n", "4", "--input", "1,2,3"):
        (2, "95a9c914a7154187b441b87c52a83af45f0df3a1eb05239a823aaff32cfc7aa1"),
    ("min", "--n", "4", "--input", "1,2,3"):
        (2, "95a9c914a7154187b441b87c52a83af45f0df3a1eb05239a823aaff32cfc7aa1"),
    ("max", "--n", "4", "--input", "1,2,3", "--format", "json"):
        (2, "95a9c914a7154187b441b87c52a83af45f0df3a1eb05239a823aaff32cfc7aa1"),
    ("search", "--n", "4", "--key", "1", "--input", "1,2,3"):
        (2, "95a9c914a7154187b441b87c52a83af45f0df3a1eb05239a823aaff32cfc7aa1"),
}


@pytest.mark.parametrize("argv", sorted(QUERY_ERROR_DIGESTS), ids=" ".join)
def test_query_error_bytes(argv):
    code, out, err = _run(list(argv))
    assert out == ""
    assert (code, _sha(err)) == QUERY_ERROR_DIGESTS[argv]


# `xbar depth --circuit encoder --n n --fanin f` -> its text and JSON stdout lines:
# the encoder stage that min, max and rank run, with no valid wire.
ENCODER_DEPTH_LINES = {
    (16, "unbounded"): ("depth 1 (fanin unbounded, 4 gates)",
                        '{"fanin_limit": "unbounded", "depth": 1, "gate_count": 4, '
                        '"max_threshold_fanin": null}'),
    (16, "2"): ("depth 3 (fanin 2, 28 gates)",
                '{"fanin_limit": 2, "depth": 3, "gate_count": 28, "max_threshold_fanin": null}'),
    (16, "3"): ("depth 2 (fanin 3, 16 gates)",
                '{"fanin_limit": 3, "depth": 2, "gate_count": 16, "max_threshold_fanin": null}'),
    (64, "unbounded"): ("depth 1 (fanin unbounded, 6 gates)",
                        '{"fanin_limit": "unbounded", "depth": 1, "gate_count": 6, '
                        '"max_threshold_fanin": null}'),
    (64, "2"): ("depth 5 (fanin 2, 186 gates)",
                '{"fanin_limit": 2, "depth": 5, "gate_count": 186, "max_threshold_fanin": null}'),
    (64, "3"): ("depth 4 (fanin 3, 102 gates)",
                '{"fanin_limit": 3, "depth": 4, "gate_count": 102, "max_threshold_fanin": null}'),
}


@pytest.mark.parametrize("n, fanin", sorted(ENCODER_DEPTH_LINES))
def test_encoder_depth_lines(n, fanin):
    argv = ["depth", "--circuit", "encoder", "--n", str(n), "--fanin", fanin]
    text, json_line = ENCODER_DEPTH_LINES[n, fanin]
    assert _run(argv) == (0, text + "\n", "")
    assert _run([*argv, "--format", "json"]) == (0, json_line + "\n", "")


SIZES = (2, 3, 5, 8, 16)

# builder name -> sha256 of its netlist_text for each n in SIZES.  The n-row
# min, max and threshold-rank builders are the references in tests/oracles.py.
NETLIST_DIGESTS = {
    "build_encoder": (
        "0f9670702ca30d02ce2ef4093a4eea73f7fbd855a0b1b01e94b4eb165a3382e2",
        "e77edbc9e0dc9010627d659e63fedc005fbaae2e84b341d598d6a2af2a90f84b",
        "53c620be1452d3b046765411c96577e79b4f100e26bbe2d5763ae003d5d8987c",
        "7a94243bd979f59018f860fd187640222cf4444818c684d985683f970ea722aa",
        "89ae9bed4d32e0e51359934a015ad8fe1b6e311ddeb1c69d3c66dddeea2a299d",
    ),
    "build_priority_encoder": (
        "4bf475049dbb16ec99c57c761c4a6c6e75a54ca3a30c08ca95948dd101e3d141",
        "54f1f98f3570a89fb831deff84cde44f45b2abefa6c93c705fc2bbba23182d5f",
        "d500e6d47267a974bc56c6359a2cb951003dd8ba7c0d3a6bb7a9d91fd367ebc8",
        "f8865306e5218585cd76834312bf79aebfd41e2b417fb7d09ae98f62f25f3d79",
        "e620987dbc507450cc892a65cbb7c77c0ace79d64a4e7049f77273e26eaf774a",
    ),
    "build_min_circuit": (
        "2af52d076a6b8530d0e2e47ddb5ba056b58c20e1a117b08906aff859ef9b545d",
        "94576dd623e39bf9855074c9cf861362a97c9b8b5b7a9df4a33da9859b881124",
        "3504039d0781e2d193599753af4bcdc5cc38cc803e2b18a465d14f3812957138",
        "2a75eefd36fef7c8bb1f865b422aadecb667147d7cbd54623d941606ccd5d76e",
        "70b87a3de573ca25107c5a49a3ffb26f1cd46888bc84c159fcb028345b819c8c",
    ),
    "build_max_circuit": (
        "134f2dc66f3da930ca54353c676647f6e28a5f07d59a6997ae61c60db3d3e682",
        "f04219184975fab01bc06d31f483b5672c75291a3d9159366d7f7db4acdb518a",
        "edb73c66574f90804db78ff4980b52ccd7e6c91089e6ed3148e6874a1c289864",
        "a04e141011d54086266cdb79400ba28440dd17d16636cf9ffb2f21db2049cf1b",
        "594a9d8188f9de4a6cee9a37636e32b0d2319a5075a9e8bf43b50f604db5f8c7",
    ),
    "build_ones_counter": (
        "576045c81d923ba25efb931e901b32b139d98a2dbdde9b3ce0af740dc7af4d97",
        "130f2f02573cde25e40f219eae8f2f785960fc1d30c63bd056b0b125c8f54b69",
        "0eee5ccd37a9018c378d3af7a46af07423484650ab3cf8651498bcc8d1a4a64b",
        "4b9e77c0cfdb1258f7141701a8c79978aeccf5d3ff45b10256e519f23b79638f",
        "70361a35bb307070e594a476ca0b185aa0f16c79520d532cb2e15a9727db0a44",
    ),
    "build_rank_circuit_threshold": (
        "4eea52dbd664842bef78ee5dbf341f84c776346dc97e3bd008532eb6b9f87610",
        "b352dbbcdb44104605f0d46cedb03621a3bbaad44a06ec01ff847972ee1b6420",
        "768aad6e39be9a667b0374d2c78ec22b01540a4ab96c238234015f31d91a4db8",
        "c93e4b722e4fe67e5a88a57310a988f164a75643fb96b0ee43496bf8decb49ec",
        "1a1a7c28cf29c2a2fb54d6ea6c8740621fdc63c7fa7e6a81ea61a4916e09289d",
    ),
    "build_popcount_tree": (
        "a4af35d6150b04da4c430b4b240df7a91ef2d45a692d857aa97e2504238d6649",
        "725a6360604947f224e7485875eb9324cdcb65ec00cdd6666b9a011698f0eaf2",
        "292e3c922ecef252f91741f0c6e0638778e3f8c9fd679288030d48e0607e5046",
        "842540ec5ed65ef3cb0e92b265ed534c434b44a7a44298e4333cdb65af46d310",
        "5da2ffff6b09b860912308e236e0184e30ad87c2a9259886acf2e62b387eeb4c",
    ),
}

# select_rank(reversed-order matrix, r = n // 2) builds one row netlist
# internally: sha256 of its netlist_text for each n in SIZES.
SELECT_RANK_ROW_DIGESTS = (
    "5c935a794b009b21b6fe219930d2125097abe0ab697d18f5869cc47233d30ddd",
    "1f838f24c631cbe4f0d0226d64e6b3ba3b17ef9f81cf481a56c0df3439897ef8",
    "3faf8bcc7a8469864e8aa8e41d15499785aa5c37c98b9be4064f65cd806f74d1",
    "fa1ef5678e8d024445d09aef6daea11ff867a76c94d18067d0a0e04109aa6493",
    "fc90d95148110fae86d7d0b9685bae3b18e3066c6a54ba3d0415bd00924edac0",
)

# Gates evaluated per query, (row netlist, encoder): the row netlist runs
# once over n lanes, then the encoder once.  At n = 2, r = 1 the row is
# `hit = b0` with no gate.
SELECT_RANK_GATES = ((0, 0), (4, 0), (15, 2), (36, 3), (96, 4))


@pytest.mark.parametrize("name", sorted(NETLIST_DIGESTS))
def test_netlist_text_bytes(name):
    builder = getattr(query_circuits, name, None) or getattr(oracles, name)
    got = tuple(_sha(oracles.netlist_text(builder(n))) for n in SIZES)
    assert got == NETLIST_DIGESTS[name]


# (builder name, n, fan-in limit) -> sha256 of the netlist_text of legalize(builder(n), b).
LEGALIZED_DIGESTS = {
    ("build_priority_encoder", 5, 2):
        "4f8975a90e2d500f5a368f2854651cfaeed54f3b226f8718ead665344fede14b",
    ("build_priority_encoder", 5, 3):
        "3222e809e6563523b459b190fe829069344d059a287e13618d1f8c1599d4aa85",
    ("build_priority_encoder", 16, 2):
        "91d549d27480b9977cceb425da833e0363966fa1e3c482c335e59d53ad8499fb",
    ("build_priority_encoder", 16, 3):
        "aa2c0e141dedd96619fdd3ac676f3219edebbad812c144b2246e8bea3ff62571",
    ("build_ones_counter", 8, 2):
        "9a03a838480979d8671c6192eeafd9831efb41bdf712c8b21270130c99c4a4f5",
}


@pytest.mark.parametrize("name, n, b", sorted(LEGALIZED_DIGESTS))
def test_legalized_netlist_bytes(name, n, b):
    net = legalize(getattr(query_circuits, name)(n), b)
    assert _sha(oracles.netlist_text(net)) == LEGALIZED_DIGESTS[name, n, b]


def test_select_rank_row_netlist_bytes(monkeypatch):
    evaluated = []
    evaluate = query_circuits.evaluate

    def recording(net, assignment, lanes=1):
        evaluated.append((net, lanes))
        return evaluate(net, assignment, lanes)

    monkeypatch.setattr(query_circuits, "evaluate", recording)
    for n, digest, gates in zip(SIZES, SELECT_RANK_ROW_DIGESTS, SELECT_RANK_GATES):
        evaluated.clear()
        t, _, _ = sort(build(n), list(range(n, 0, -1)))
        assert query_circuits.select_rank(t, n // 2) == n - 1 - n // 2
        (row, row_lanes), (encoder, encoder_lanes) = evaluated
        assert (row_lanes, encoder_lanes) == (n, 1)
        assert _sha(oracles.netlist_text(row)) == digest
        assert oracles.netlist_text(encoder) == oracles.netlist_text(
            query_circuits.build_encoder(n))
        assert (len(row.gates), len(encoder.gates)) == gates
