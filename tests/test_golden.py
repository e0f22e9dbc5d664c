"""Byte-level pins on CLI output.

The sha256 of every document written by ``build``, ``classify``,
``rigidity --dump-certificates`` and DOT ``export`` is pinned for a fixed
set of requests, so a refactor of the construction, classification,
rigidity or distance-table code must reproduce the old output exactly.
Rigidity runs twice per image, once on the embedding and once on the
classification document, and both runs must write the same bytes.
"""

import hashlib
import json

import pytest

from grassmann_lab.cli import main
from grassmann_lab.fields import GF
from grassmann_lab.independence import canonical_simplex, point_set
from grassmann_lab.linalg import identity

from helpers import pointset_to_json

# name -> (build arguments, apply the Frobenius x -> x^p to every entry
# of the built document before classifying it)
REQUESTS = {
    "sum-q2-n5-k2-l6": (["sum", "--p", 2, "--n", 5, "--k", 2, "--l", 6], False),
    "dual-q2-n4-k2-l5": (["dual", "--p", 2, "--n", 4, "--k", 2, "--l", 5], False),
    "sum-q3-n4-k2-l5": (["sum", "--p", 3, "--n", 4, "--k", 2, "--l", 5], False),
    "dual-q3-n5-k3-l6": (["dual", "--p", 3, "--n", 5, "--k", 3, "--l", 6], False),
    "sum-q4-n5-k2-l6": (["sum", "--p", 2, "--e", 2, "--n", 5, "--k", 2, "--l", 6], False),
    "sum-q4-n5-k2-l6-frobenius": (
        ["sum", "--p", 2, "--e", 2, "--n", 5, "--k", 2, "--l", 6], True),
    "dual-q4-n4-k2-l5": (["dual", "--p", 2, "--e", 2, "--n", 4, "--k", 2, "--l", 5], False),
    # l = 2m, n != 2k
    "sum-q2-n5-k2-l4": (["sum", "--p", 2, "--n", 5, "--k", 2, "--l", 4], False),
    # l = 2m and n = 2k: the complement automorphism needs a duality
    "apartment-q2-n4-k2": (["apartment", "--p", 2, "--n", 4, "--k", 2], False),
    # the presets on both sides of 2k <= n
    "apartment-q3-n5-k2": (["apartment", "--p", 3, "--n", 5, "--k", 2], False),
    "apartment-q2-n5-k3": (["apartment", "--p", 2, "--n", 5, "--k", 3], False),
    "simplex-faces-q2-n4-k2": (["simplex-faces", "--p", 2, "--n", 4, "--k", 2], False),
    "simplex-faces-q4-n5-k3": (
        ["simplex-faces", "--p", 2, "--e", 2, "--n", 5, "--k", 3], False),
    # l = 2m and n = 2k with the generators spanning a hyperplane
    "sum-q3-n6-k3-l4": (["sum", "--p", 3, "--n", 6, "--k", 3, "--m", 2, "--l", 4], False),
    "dual-q4-n6-k3-l4": (
        ["dual", "--p", 2, "--e", 2, "--n", 6, "--k", 3, "--m", 2, "--l", 4], False),
    # GF(16), four Frobenius twists: a frame, and a duality over a hyperplane
    "apartment-q16-n6-k3": (["apartment", "--p", 2, "--e", 4, "--n", 6, "--k", 3], False),
    "dual-q16-n6-k3-l4": (
        ["dual", "--p", 2, "--e", 4, "--n", 6, "--k", 3, "--m", 2, "--l", 4], False),
    # GF(9): a top-type image over an extension field of odd characteristic
    "dual-q9-n5-k3-l5": (["dual", "--p", 3, "--e", 2, "--n", 5, "--k", 3, "--l", 5], False),
}

DIGESTS = {
    "sum-q2-n5-k2-l6": (
        "9d3c2a4edb49e96d103cda9c82ba2c9ae868dc9739d87b604b05f812fd89b717",
        "9e22f134d9c816031d8aa13498604e680477d947133d2a28867b4f7b1a3865db",
        "923b52ef325d984b85dd60eb2244b3af8634d336d104a82bfb6627d35ecb2396"),
    "dual-q2-n4-k2-l5": (
        "81d95138d9d934901743136a6b6972b93f3d6e8233c2daa52ae826185c549e0a",
        "4eddd8037a6302d24a71419293b336e92c95487e0aad75ad74fe6ce05ca62046",
        "250fd3b90774a1dbabd549546949dd6c0cc3837d5410896e1f487aee7f8b8163"),
    "sum-q3-n4-k2-l5": (
        "45083d2fc606879821c181cb9cb9c3be43bebcb26788fa2594709e5ae39ede4d",
        "bf18d1ac6adcd5017c3b8f36d26560fc1e3d7da5e8a3a844db152494c85fa64a",
        "fdb7a5857f93b699b09b085115da8d291789a5aaa31da400675476b83a06d41d"),
    "dual-q3-n5-k3-l6": (
        "9d8af551815e2723542c66a1edd968d4c3d09038b39ba3c1a7652d9be1f840cd",
        "1ed6e46889f91f97689f2e17c6eaab07423b6f33a85810a8338ab03904732ac4",
        "2ead998700eeccd88dce3d21d60ad4b9e73a4dfa454af2eab68b9dcbd406dc3c"),
    "sum-q4-n5-k2-l6": (
        "1f6165224f3417f67bdeeb93b10280555547e480ea5740a946c3a976895bf646",
        "e30acbcc7591dd1c80a9c44cac2bd2811f9c271a377ba33841701715183a649d",
        "bce157c4809bff7907ce1901b24f6e0910343bea1cfd53598a1eba6fb053522f"),
    "sum-q4-n5-k2-l6-frobenius": (
        "1f6165224f3417f67bdeeb93b10280555547e480ea5740a946c3a976895bf646",
        "c705b62067a4ce5124bb87ee227c396e1b840002210f81f3cda702b1daea04c8",
        "525f335038acbe94bf0177cd06bc66578fe35e588b5e2df9c4cd34ba7c7a31c4"),
    "dual-q4-n4-k2-l5": (
        "71d69f0d0bed6c0e158568ecdc6c6ca0f5a71bab4f47d2145625091a53f15bc4",
        "807dd32cc197fa1988a66fedd625fae30fb170d4ec37241613a452a09a14f3ef",
        "455ec3936608bef98d396b739df14ec75275d184bc39bdb187fac76d279b587b"),
    "sum-q2-n5-k2-l4": (
        "6c369db523b0bd01704cb1a7544f31cc60178d047c8bb802515c51eaea3316fd",
        "57e011afbf0eecfc8704ab5e886d7209809724072780faa4617a217342f496b5",
        "8d83b79844d8e86df70cd2a595982898bf6dfc250bba171226012bc8ac4f7a42"),
    "apartment-q2-n4-k2": (
        "51e8106074c788dfacac7ca82e4631228050d39348a90b5856667bc8c6d43898",
        "29a18d3b1e2f5d012a9504771d5f5a78be3f8dae09ff95ebcd2dd0ab582c8129",
        "261c6af7da6fa334d4f57d7a1925be02d052226d0bd419fbabfcec9607303545"),
    "apartment-q3-n5-k2": (
        "0f5ff8b8fae1a582d690790e1d6945a3e4f8668aa27d0a3c4d3c0c26e0cef01d",
        "abaeed8436e20fb23228833b7bb7283abb66cac130601ff0fddc7380b85163e9",
        "0ceb7477378dd66e2fd13c5c1d908da58030c9b3a9456f64f6e4f41c04d8e9de"),
    "apartment-q2-n5-k3": (
        "f248aee71aa5229a99143f518bdd93324f232f5b06c274d13bef80eb7839a55a",
        "857a9f5c1152ba6c1e4a88ee9de3ea3d1c9d6632507c1c56c2d8051ec163a0a7",
        "d9d07fac5a3e43e8e02e1af380c4e0bac8a3c16211263f71f04b26c083b52258"),
    "simplex-faces-q2-n4-k2": (
        "fc30f499cb0e1cc2d976a1466a37fecdd4c3bb1cbcd777809330a9f9bacf073b",
        "e08fca3e334251f44f2ed2480881ef3654aecb3729cfe41b4ae8e1e26a4e9154",
        "57a029dde6ac1c825a3e30ba240082b8fe5efa5f51359c9e53989f106ee39479"),
    "simplex-faces-q4-n5-k3": (
        "09acf1053b411e3b17766034f547a87bb0f7c61e9e711dda535cc4b53c56cfe0",
        "a7c9e7486b88181c0fe4975a7a84e09104834e7fb90b33e4befa5122b47ebabd",
        "7841e079051b1a29b6820cda2b5b89f7a1f58989a0612bd554dedd2219d17ded"),
    "sum-q3-n6-k3-l4": (
        "20526bc63c95eabb7af95e16c7ee698c85302bec088afa0d71ab609a2578e823",
        "3e1353cec6c10683c045272e8906e58cba67ede7c486ef02e1ba07aa02c37f82",
        "e33c92220ad28cce73e5d83182968688bf2d1165f8d5ea08b2a15ac4a803eec3"),
    "dual-q4-n6-k3-l4": (
        "07848ef141a730c59b036c7895f531894d92752bba6ae1763e591f013e50ab42",
        "81f7d780fbc2ed3efaa3bf2c73d0e9b01a230756b25cc8b661f61e38f49e6653",
        "72306fef7f92c524c809f689caf1d2f007219dfb3b3322020725e48c87e442dd"),
    "apartment-q16-n6-k3": (
        "7b961e94fd7a52b35a8c000a4302033b851ca3890d49129deb9b7253589bd1c6",
        "27d44bd818fd54de6011d3c3daeb4536bd624f8e69a030a3258e2b3a72309117",
        "fa17e04689174749ece3112ff5a2b762b26b4f9e2182f8790eeeefaa159efbff"),
    "dual-q16-n6-k3-l4": (
        "d002521731367be773b7f9c937323f1627bd25c0202272e7a3d21677f61288a3",
        "76454de9641562970a9dc12b7f3a71e8fd61f7f2c0b458c7320e81f18453e635",
        "45ad3896b1c1af43ab4ec387fec38ac21a546b5975b6bb2ea0df4e3c062ce6c3"),
    "dual-q9-n5-k3-l5": (
        "819912c53be12b0a0ba77c4b7fe9c16e84c01ea970e8eda79b39308fbebcf88a",
        "f0e41b5ca9cead38e67429298f844c88f433b1071d6d6659a977b638e0d52955",
        "6139fc5cc3c9e9ec382fa761690ac9386331c9b16f75d96375bce4a4bc1ac206"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _twist(path, field: GF):
    doc = json.loads(path.read_text())
    for entry in doc["map"]:
        entry["subspace"] = [[field.frobenius(x, 1) for x in row]
                             for row in entry["subspace"]]
    path.write_text(json.dumps(doc))


def cli_digests(name: str, workdir) -> tuple[str, str, str]:
    """(build, classify, rigidity) digests for one request; asserts that
    rigidity on the classification document matches rigidity on the
    embedding byte for byte."""
    argv, twist = REQUESTS[name]
    argv = [str(a) for a in argv]
    emb, cls, rig, rig_cls = (workdir / f"{name}.{s}.json"
                              for s in ("build", "cls", "rig", "rig-cls"))
    assert main(["build", *argv, "--output", str(emb)]) == 0
    build_digest = _sha256(emb)
    if twist:
        p, e = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--e") + 1])
        _twist(emb, GF.get(p, e))
    assert main(["classify", "--input", str(emb), "--output", str(cls)]) == 0
    assert main(["rigidity", "--input", str(emb), "--dump-certificates",
                 "--output", str(rig)]) == 0
    assert main(["rigidity", "--input", str(cls), "--dump-certificates",
                 "--output", str(rig_cls)]) == 0
    assert rig.read_bytes() == rig_cls.read_bytes()
    return build_digest, _sha256(cls), _sha256(rig)


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_cli_output_is_pinned(name, tmp_path):
    assert cli_digests(name, tmp_path) == DIGESTS[name]


# stdout of `oracle --l 4 --m 2 --n 4 --k 2 --p 2 --symmetry-reduction`:
# 460 nodes (one leaf per image under the stabilizer-chain floors),
# 144 images, and no field that changes from run to run
ORACLE_ARGV = ["oracle", "--l", "4", "--m", "2", "--n", "4", "--k", "2", "--p", "2",
               "--symmetry-reduction"]
ORACLE_DIGEST = "0777c090889a1fe25303eea6871c39ea9d08c08f9981cd6ce8b32ef3c80338ca"


def test_oracle_stdout_is_pinned(capsys):
    assert main(ORACLE_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_DIGEST


PRESETS = sorted(name for name, (argv, _) in REQUESTS.items()
                 if argv[0] in ("apartment", "simplex-faces"))


@pytest.mark.parametrize("name", PRESETS)
def test_preset_is_the_default_construction_on_its_points(name, tmp_path):
    # a preset is `build sum` (2k <= n) or `build dual` with that side's
    # default m, on the identity frame or the canonical n-simplex
    argv = [str(a) for a in REQUESTS[name][0]]
    kind, flags = argv[0], dict(zip(argv[1::2], map(int, argv[2::2])))
    n, k = flags["--n"], flags["--k"]
    field = GF.get(flags["--p"], flags.get("--e", 1))
    rows = (identity(n) if kind == "apartment"
            else [p.rows[0] for p in canonical_simplex(field, n, n).points])
    side, m = ("sum", k) if 2 * k <= n else ("dual", n - k)
    points = tmp_path / "points.json"
    points.write_text(json.dumps(pointset_to_json(point_set(field, rows))))
    preset, explicit = tmp_path / "preset.json", tmp_path / "explicit.json"
    assert main(["build", *argv, "--output", str(preset)]) == 0
    assert main(["build", side, *argv[1:], "--m", str(m), "--points", str(points),
                 "--output", str(explicit)]) == 0
    assert preset.read_bytes() == explicit.read_bytes()


# DOT exports: name -> (argv, sha256 of stdout).  An induced export
# reads a built embedding, whose build arguments stand in for --input
DOT_REQUESTS = {
    "grassmann-q2-n4-k2": (
        ["export", "--graph", "grassmann", "--n", 4, "--k", 2, "--p", 2],
        "768d3eefc32fbfd97a38ca350006f417dd24129474d94e30220c58e9fcd1d9f2"),
    "grassmann-q2-n6-k2": (
        ["export", "--graph", "grassmann", "--n", 6, "--k", 2, "--p", 2],
        "e5b6a672573cea07734ffdfa74a5cbbbaf63b2446de92ebf215e0fdea82a9aa6"),
    "grassmann-q2-n6-k3": (
        ["export", "--graph", "grassmann", "--n", 6, "--k", 3, "--p", 2],
        "0ebc226d09cd44ba3e8943052505a722e0a6fc43c27fb6a4b30a8a90e3840386"),
    "grassmann-q3-n5-k2": (
        ["export", "--graph", "grassmann", "--n", 5, "--k", 2, "--p", 3],
        "e18847c7959ef6ce8119b2b2d8e609a292d9ae0edfc129b116d17090473d2022"),
    "grassmann-q4-n4-k2": (
        ["export", "--graph", "grassmann", "--n", 4, "--k", 2, "--p", 2, "--e", 2],
        "28d9692e6d964473bf28d314d6b3848a7f1ac0f02c8714c4b54934558a827af7"),
    "johnson-l5-m2": (
        ["export", "--graph", "johnson", "--l", 5, "--m", 2],
        "9ea7c9ce7d5058648ae4d25ee3974338e6936db2ea9949f6151bc016003ae410"),
    "induced-dual-q2-n4-k2-l5": (
        ["build", "dual", "--p", 2, "--n", 4, "--k", 2, "--l", 5],
        "ec0ea53083a4d1a2251c54f442a3d7ceb0454a30191c1593552cd756a576599f"),
}


@pytest.mark.parametrize("name", sorted(DOT_REQUESTS))
def test_dot_export_is_pinned(name, tmp_path, capsys):
    argv, digest = DOT_REQUESTS[name]
    argv = [str(a) for a in argv]
    if argv[0] == "build":
        emb = tmp_path / "embedding.json"
        assert main([*argv, "--output", str(emb)]) == 0
        argv = ["export", "--input", str(emb)]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
