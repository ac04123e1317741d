"""Every CLI command's output on the benchmark's seed-1 graphs, pinned byte for byte.

The graphs are the 11 that bench/workloads draws for its four
workloads at seed 1: K_8 (analyze_dense), two ring+chords n=8
(analyze_sparse) and four ring+chords n=12 each (curvature_sparse and
queries).  Each graph runs the seventeen commands of COMMANDS through
cli.main in process, and each (graph, command) is pinned as one
SHA-256 of its exit code, stdout and stderr, with the path of each file
the run reads replaced in both streams: the graph's by "<graph>", and
those of its two measure files, one proportional to 1, ..., n and its
reverse, by "<ramp>" and "<reversed>".  The commands cover every
output format of every subcommand that has more than one and the heat
of a function (--f); "analyze --k-override 2" asserts a K that none of
the graphs has, so a certificate fails and the report exits 1, and the
transport plan between the two measure files takes at least one pivot
on every graph.  A mismatch names the
command, so a change can run it at its parent and diff the two outputs.

A change that moves an output on purpose updates its pins in the same
commit and says which commands moved and why; a pin is never loosened
or skipped to pass.  The pins are bits of the numpy and BLAS they were
computed on, so a toolchain change that moves them is recorded the
same way.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from digricci import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 1
# each command as its label: the subcommand, then (after the graph path) its
# options, with {last} the graph's last vertex and {ramp} and {reversed} its
# measure files
COMMANDS = (
    "analyze",
    "analyze --cross-check",
    "analyze --format table",
    "verify-functional",
    "curvature",
    "curvature --cross-check",
    "curvature --pairs 0,1 --cross-check",
    "wasserstein dirac:0 dirac:{last} --plan",
    "heat --t 0.5 --kernel 0",
    "perron",
    "curvature --format csv",
    "curvature --format table",
    "verify-functional --format table",
    "perron --format table",
    "analyze --k-override 2",
    "wasserstein {ramp} {reversed} --plan",
    "heat --t 0.5 --f dirac:0",
)
# "workload/graph" -> command label -> SHA-256 of the run
PINS = {
    "analyze_dense/k8_0": {
        "analyze":
            "76e149ec64c9ff27ccd450dbc8f59bbd7796a6220e414c4766224240e4415913",
        "analyze --cross-check":
            "c2b880842779c13ce675c63b96a73a1f04999cee6bc96150799d0831003feded",
        "analyze --format table":
            "fa6c8c0d1eb16e9d49dc0e355a527528d28891dead194c191d7faa5065eddfde",
        "verify-functional":
            "8fa7bbe928684ca2d2b165967f0f32a340ec6122f2f71dc5088d4c0a25860e45",
        "curvature":
            "284ad84832f550621a0c40e3661759c50d156d9b3faafb4604425abb06380841",
        "curvature --cross-check":
            "a0e94871cb724b514df4541ca318fdc649c72f51b36afb40d3c3e842b52c821b",
        "curvature --pairs 0,1 --cross-check":
            "2253b9367a3467948ea7ee01e99a46e1ba5ac079672fd87dac364a9aced26948",
        "wasserstein dirac:0 dirac:{last} --plan":
            "50b464f8e01759941e61142e2bf4c3ef5cfce67ae6bcf75f537a739c7841201a",
        "heat --t 0.5 --kernel 0":
            "1f2d6a3e404a3fe563361d5cb941932ab9235dd5b6dcfbd72682d311033d0448",
        "perron":
            "9e5651d559e5e490113596d2ddf9c3e9cef963ac8717aaebb897d1ec4caf6b4c",
        "curvature --format csv":
            "cf7b0c66b7f2cc9c52b490604fd12f96144480d33d9245efafa44d0d4f290f53",
        "curvature --format table":
            "b027a0b5cc9d669ce47aa9106813189a4e2425378ff0567297ff186c08830304",
        "verify-functional --format table":
            "389d9cc5e495e5a45f0b778b7487d8905ffbe7a69b8b9459bf8c88e63a3dadcf",
        "perron --format table":
            "2d0a4cfb3fd668c33076809cb61e1a86663936fc2b5d69b651360227aab75b20",
        "analyze --k-override 2":
            "782ec01af52ab4496318f7f483b3f1eafe383dab0f494472aed82ae500a78d16",
        "wasserstein {ramp} {reversed} --plan":
            "8a70f1eb8597e5b4b6d0b31bd762b6a6d1a67633f1f77ca104dd6214b539e398",
        "heat --t 0.5 --f dirac:0":
            "e22946d98283b0f574863ad3c9d5e0e937488fbd20689abb6c513325b0784fd3",
    },
    "analyze_sparse/ring8_0": {
        "analyze":
            "07d5061c42b1a0e4019830217c3362459222ed10e77a4c1b2eed200701d119f5",
        "analyze --cross-check":
            "ddffadf3e73cae173275762454559ffd6f68917aff84de4eb0fc76b76f8299e4",
        "analyze --format table":
            "ae2042da3cbf746cf8839721df363e5e6f859166548a1134523c4ea37d4cb5c7",
        "verify-functional":
            "b78cad754ea7a188b1ea92c32d5f921bc0fffbeb7f9575ccbe72c2fac917f4e3",
        "curvature":
            "9697ffc7c621bcdea61e778acf9fee5505b738e326da635c69b2db27216fed7c",
        "curvature --cross-check":
            "74330942889f5d2d57027665d6f5e0dab6e3e049bf7d5ad555f13d5f4fdfe88a",
        "curvature --pairs 0,1 --cross-check":
            "0e43aba39d08dd0186bb2b4f0f4f458859d0e43a4ca544231d615be6c4ca6c35",
        "wasserstein dirac:0 dirac:{last} --plan":
            "61e12de5cbf3ba50b03452f1dc598ad7d2890d110cad8e3095dd56ed2c53f99a",
        "heat --t 0.5 --kernel 0":
            "61ce6f1a9e506cfe5de7ccfb296e305f84e27d3eb0627204df42e0f51f37e534",
        "perron":
            "d37d8991c804bf25e76bb43190cd6f9f96ce0f3457a56ff5c196408e50ace2d4",
        "curvature --format csv":
            "1f0006ddc82236daae511b926fae0edd89fd92dc2a610101feac5e5d17511182",
        "curvature --format table":
            "e3cff90274519a9989a81ff07a4a72b70525a9d056353597ed4e2ca298922c86",
        "verify-functional --format table":
            "f5ff5f966ed4c6970526a5e4b5993a4f3f77901a9dd7afbbdd65df6c104b4a71",
        "perron --format table":
            "2f47891142e26ed31218efa5e525906994734fbb8019186e6bb1f8d7c2fafb62",
        "analyze --k-override 2":
            "cf139fdbbba3a6b0bb68b98ab091fdd103fb09f3a680ac9ce22a2dd6cc603e23",
        "wasserstein {ramp} {reversed} --plan":
            "02969540d8c91309369999b1e23222fabafb5197c518664895991cf5ca9d9a7e",
        "heat --t 0.5 --f dirac:0":
            "1585ef397d606f46707dafd242bbbf8368b8561f0d0dcbba11de0e4a61e32e63",
    },
    "analyze_sparse/ring8_1": {
        "analyze":
            "ff0bdbe606946debea136fefb1d40343c3170fcfef00bbd085fd093b1932dd3f",
        "analyze --cross-check":
            "e85b4d9730beaf59fd857a6c2afdd5fab5a0692b4abd9c407b21e544c3741cf8",
        "analyze --format table":
            "1c3e6d6b97ec24c268798617f8fdd1a62c0d8a3ad608ee3fcb674a0bc2cf964a",
        "verify-functional":
            "a871241e04f7a2a99ab90f0b4cd4f8b496acba8d32dc7bf835b5d85cc2eb14be",
        "curvature":
            "bdc793ce72f51c7ecb0c0ecf5180a91ff854c078c33919ab05e2a9ff4bee58f9",
        "curvature --cross-check":
            "094c3048d929477369e9cfdea99683e76bf8b1a8c6aa1a49c4a8a4da5f448e1e",
        "curvature --pairs 0,1 --cross-check":
            "4077a34b2f602bd34ffe95a83747d67b9222e45fd84f390a37be6de9f608eac5",
        "wasserstein dirac:0 dirac:{last} --plan":
            "8774f7cfba7fe302ba7b06d0e495671d9024b6da4581d8389a2956915ece7239",
        "heat --t 0.5 --kernel 0":
            "765d8a312393bf7c5d75008b1506f044fea3e306e6b12144308202343808a142",
        "perron":
            "1e6d430dc31aea8428783dd52ba7b23cd112d01d34c9543007e144d35572c5f7",
        "curvature --format csv":
            "ac3d31c8ba1a46d122b1853a77753580a1c2dea41b78d4e4820a1abfee67b42a",
        "curvature --format table":
            "6fa1e8e6194d668e8d3b85c236fbfb6fdef5b54e5464028547728bae8cc03bbe",
        "verify-functional --format table":
            "912fc5ccb6a197d39a92d60b35c6ade6fc87e9f9118f3d80fbad2a3aaed3805c",
        "perron --format table":
            "1bc35496c3435f55df0d36f759fa6749385dcdfb8e2ee249c445cbb27b921256",
        "analyze --k-override 2":
            "53a00fb2cb10cd3b7269e6bba3322cd7b6116af3055af50c083667d053d16eaf",
        "wasserstein {ramp} {reversed} --plan":
            "6e412ba058e02a9517e63eb76e521928b02b8225d4c2f131abbd53f70a2c7ae8",
        "heat --t 0.5 --f dirac:0":
            "d2f38406fdeb6f1b62542b1d37572e08f7ae420f63b888d1d1fcf8b08a9dd623",
    },
    "curvature_sparse/ring12_0": {
        "analyze":
            "97944b2bbb1e380bf68307c44143f4bced20078f1b58f6bc26ec32fcfb8db9cf",
        "analyze --cross-check":
            "b628b6cd22e32dbc30548bbf3876995968d409399da1afc0a2ef3cff141ce382",
        "analyze --format table":
            "c0343662295194879fac70c8fa566a012dfd9133d9f448b6cde3d8d038e9e1cb",
        "verify-functional":
            "32cf8df8eff2a73c5786c843271f68e511a7eb3997ffba15c816bbe1f34a0ad4",
        "curvature":
            "09f1c7d2f7bdeeef6b2e1f8ec81488f0cf1a327cc6fd0abb071cbef05c03a136",
        "curvature --cross-check":
            "8e7588f82ff46dbb2885fa0d87407e42831fbc5d4887e0cb3f9c3f13134b2d99",
        "curvature --pairs 0,1 --cross-check":
            "86862bd69315a532b8f3e2e418897f4be734a1cd5175b0a406ff70a3383f9bd7",
        "wasserstein dirac:0 dirac:{last} --plan":
            "2a3b0e492b4ff3c6f30bc874817fa128025f8263a11f4375ce63d676220b31ea",
        "heat --t 0.5 --kernel 0":
            "5243b0396e4d141720edeb7a0d80f1a6a586125af1f4e65c24a4a824a3893595",
        "perron":
            "5a9a2d411b21f9655b8af989b0ba0ac386ecd0a0797996edb5d18e3e230770db",
        "curvature --format csv":
            "6cf87e07878d23db592f4931584f0e6ae661035fcbe9a0443cc38cb586b209a5",
        "curvature --format table":
            "a5f036382eadd8a7faf598e69a960182fc4deacfba07b7f1a7c2a90cf793cb91",
        "verify-functional --format table":
            "80632ca143da75e41f42441aed05f736ee67a5cea2e83eb63c1dca47f1af9aa9",
        "perron --format table":
            "6a7d552e2c2e02f22466d7f250d443b5e77794cece3463e5c44b027e92182d25",
        "analyze --k-override 2":
            "acf1a3810aa7eb27444cc72ead01cfcc293f1f62e60fd607447100f43631dd60",
        "wasserstein {ramp} {reversed} --plan":
            "89af66443bab73d52871a55b07c77632b0bdc5865d9e8ac37b45ad3b0ff7a247",
        "heat --t 0.5 --f dirac:0":
            "fd450f13464369caa9b0c2aace2aa1c8c7478087d95ac876d339fb26bbffe725",
    },
    "curvature_sparse/ring12_1": {
        "analyze":
            "3b3735f70262be8c60fc6713df7c7a46956bb3e35211651823842f1d07711c71",
        "analyze --cross-check":
            "20a9d4bef98276f46b6acf7d683b6193aa48ad29af7e533e5ab317e4e7749505",
        "analyze --format table":
            "0207f05136de8b7f86d8c21524eb4ae96ebc6dd281b463da43c7ff680e95b342",
        "verify-functional":
            "e0e173eec7b6ecf762975527b31fe8369b6819c2e29971c2e05513a91505d95e",
        "curvature":
            "1b752fdb11bff96f130f6a61a02cfe4409814f940fecb9a1039b5717167fa5d3",
        "curvature --cross-check":
            "1bbe50cf1ee9407c95b2deaf515032341c2c38a1ca882787baf3a0693f8c2329",
        "curvature --pairs 0,1 --cross-check":
            "628a80c3c78694161893ec545abac7b6f5342cf5db99b80729c2c461dbc3f4f1",
        "wasserstein dirac:0 dirac:{last} --plan":
            "7ccef98f6695483f48e21f2b67393049f0d2ba2ec7fdf2cdac82bf1514ae075e",
        "heat --t 0.5 --kernel 0":
            "b16756ac3b4a1e3e963b2d9bdb76d44905d4bba8c43d490dac913e39a640a574",
        "perron":
            "a03fa1992af57d1a1170a2cd706311359e51016021b37fcd4fad01cd0e600fae",
        "curvature --format csv":
            "be8e04dc120f9aaf88d62ec2417a5a1153cba6a08704032ac0968fe468e6c3ab",
        "curvature --format table":
            "88c849a3a128eccf5361ab6b9ba6500410e5f0680880a129ab9f25d72dbac280",
        "verify-functional --format table":
            "4fb47d0f767531c5054352bac1f3fff66427d0ef088eb2504b180198e2276cc1",
        "perron --format table":
            "b6a86805b9fabc6b0d3e7cb803627b4c23762714ce23513fb1e87841615ef71b",
        "analyze --k-override 2":
            "d8dfb45bc967027726defcae5e0b5106664e19c4f1feb8b9a2c3eb8b32a509a4",
        "wasserstein {ramp} {reversed} --plan":
            "cf23a32af71ac01744ce91929eea022ac3754550db3e03c7b72c328816977e70",
        "heat --t 0.5 --f dirac:0":
            "795faa00147afcc4c44b71ba09e3156f2c287ebb6eea8dd2897ced6143c9406d",
    },
    "curvature_sparse/ring12_2": {
        "analyze":
            "f417831150414bdae6d0d3a96152cb3c81f2c23c818f804347be4201762c7dc7",
        "analyze --cross-check":
            "9e5e69c98b31dcbc724b1a9628ddc0049f9dd4646778f45741783ec185e4a5e3",
        "analyze --format table":
            "11a2290c9faa93d893820f478df8fac9ecbf9ba54dc21d1517b3e288e7995a88",
        "verify-functional":
            "626d49a87082fcb3805535d5211a8de812122baf6c1ac56f9f88e6db424cc8c1",
        "curvature":
            "f5a1037af19a9a83d28029f870ba7d174ec88eb9b287f5f13b8670d8c5d767fc",
        "curvature --cross-check":
            "82b316d920b2c477840286cdcd9b57431404cd0551a3ebb3a6b14a3d7d7ac2af",
        "curvature --pairs 0,1 --cross-check":
            "3b0fa9f9f0f087fa2acef3b1aae9f9508ca802676151f32581a1ee6b3b25db6c",
        "wasserstein dirac:0 dirac:{last} --plan":
            "2f6036032c12d192f1cac5947e5f3e027ae3cfee01d45c364ca6027d21830803",
        "heat --t 0.5 --kernel 0":
            "e35e1c053d0447512af5a901d3a2be63f216dc72b38e54f516e8692bffaeb233",
        "perron":
            "ff74025dd3cc0bcaf22856b1e4a6a67de6688759df2867bbe01ab2a269ef20a4",
        "curvature --format csv":
            "59bb2fe3f26cd933332dc0d977e187bda28fabb6aa98cb8640327636d361c88b",
        "curvature --format table":
            "f5b9887037fed4becb14ea8795835d774e032704acdf56e5e43a36477a23049c",
        "verify-functional --format table":
            "bcb2b7440149ef270ddf5346b8c02eb6d060169436be708bba1f7a295b76cc74",
        "perron --format table":
            "6bf25a0ef1d0e628e8fa12b1150e56b94439180c41c3e423750c2d4731d2b985",
        "analyze --k-override 2":
            "76cb640c294492f641b54dc03641247a77a9cea5ee70cd2290b40aeb0efa8237",
        "wasserstein {ramp} {reversed} --plan":
            "a95312394341ac3b671fa3302a963bb39611eecd0d1424098ce3aa747234b3de",
        "heat --t 0.5 --f dirac:0":
            "8a3b117e4b8be5cfb38495dc00c1a0c557bd32adf9b108b7c714a297dde4dff4",
    },
    "curvature_sparse/ring12_3": {
        "analyze":
            "1d78f6d4593d2b6e16c519de823d7a5660aa137416c0e53f66e1752bf3378757",
        "analyze --cross-check":
            "112f3b7afbd6ee8a57a4371112c6456d65e48be5d393aca6ee0c7c383bfc99bb",
        "analyze --format table":
            "fa40f8952c454fd047592d8d0bdd0a59dd3f63c4624960291575f4b09e161eea",
        "verify-functional":
            "005feb92a407e9d9a198087f7eb17f6a20e19c37b848576549c313061be31be6",
        "curvature":
            "0bc398aacf0efdea4adb20256708fefcc548d541cbbb58048b25289911760ee5",
        "curvature --cross-check":
            "9a03f9d213f9a7872bb7ed2f39be25f72292a3ea2d5657260b9df76c2a65b869",
        "curvature --pairs 0,1 --cross-check":
            "3f2e18bfeb0cc39d4ea943a946c378d2f7242cd2abd1bd708b52c5d5ff0e762f",
        "wasserstein dirac:0 dirac:{last} --plan":
            "72c99cf352509ced4a7c414442ad1d46e85c48324277714ff867d576774a6196",
        "heat --t 0.5 --kernel 0":
            "9b72f967782b175943fc0350d37721cbbd7dc4d780cd0498cfffb8f47d81f84a",
        "perron":
            "310e320ec5de8623da2b3bace58aa6cb09e536ee4a3b353bc00a86a54d313471",
        "curvature --format csv":
            "8a80466377e8a47f8ef2df43025b3ffc0cda4a19fb8e876a994bc868f631ae6d",
        "curvature --format table":
            "82aff7ea5da9c42aa41c681cfce8f44194b86bb687308ebde7fa1f7539d8b6df",
        "verify-functional --format table":
            "ec3268aaadf4dd0dd7cffb327e48fe14cb644e7d33348a6caa92dd6ad540f6f9",
        "perron --format table":
            "19781e68dcf6f633befb13c3d75e30ea19cd430bd665e3963dd8470bcfd51c1e",
        "analyze --k-override 2":
            "d96fcd183278d9e0382d592fec4b19cb6b1138eb1bd065752e921e463a0186a0",
        "wasserstein {ramp} {reversed} --plan":
            "d7af5bef8b58b73938356e943ac1f0c9504704105744a86531d05663fc75be67",
        "heat --t 0.5 --f dirac:0":
            "ba9a606d55e1bfc2dac286002b9ca191b93ba8996c1eaa1569e0845a5c09ef12",
    },
    "queries/ring12_0": {
        "analyze":
            "11810048eb261e10dc1daf27eff0f9c8fec2835aeb872d86b9c6f99ab61375cb",
        "analyze --cross-check":
            "2c7d13dd1a4b6b82400b78c7306b6973814bc4eb670381369e74534ccbfeb0cc",
        "analyze --format table":
            "cec8d2aaaaaea0819cf64f84a7f703f3a94439b652d548699db60e905e05a400",
        "verify-functional":
            "756698299814d95d0f10ad60ecf1adcf8f9d831ee3605d48b6e8f77c9e219998",
        "curvature":
            "471c58f2cb50f111d0257472ac21604be4f3d56ea4d371d2c5a447f3704f7817",
        "curvature --cross-check":
            "abcfa63fb00ca16867d04d932825b20eda6a32cfe9ddeebd7d4f67ed326d274d",
        "curvature --pairs 0,1 --cross-check":
            "37432877d41d4f8217171a449dea9de36e2c6c69dc6aa2a5e93f40c1ea2ac3b2",
        "wasserstein dirac:0 dirac:{last} --plan":
            "eaa920fde7a7cd3d19a0cea5c15a5423322b9ded67a012712f51b3148c80e41f",
        "heat --t 0.5 --kernel 0":
            "2951d75abc6767c4ce0a40fa18baf96e98247771e88cbe7a47d4c8fcc7dc981f",
        "perron":
            "8dbba70881599245ff1c01601d1bbe3f1a725fd4c11c8478cafb89d127fde91b",
        "curvature --format csv":
            "7341e6a4b4a81c604e5d59062250001e96358e0e39dd77d6c89d7f23cb620601",
        "curvature --format table":
            "8a1751702f1206992487bb8aa24966925298202956463710ab9db21c19dc3854",
        "verify-functional --format table":
            "73109786de75aa045ee300f9b4f9824441caca9dc3b9542076f8092ae35b06c8",
        "perron --format table":
            "2c6b4afc0e9b35215bbba4eba7a027d526f8595c107694b66a7ac525d99d19d4",
        "analyze --k-override 2":
            "9409fd705981c7584b8bafaf7a91bcda6d743f718a28c150dd43119954e43577",
        "wasserstein {ramp} {reversed} --plan":
            "b6d946a2851ad64c9f9ef68c0a58e7c3f1e2f0552493ed6be9dad4e22c00dad9",
        "heat --t 0.5 --f dirac:0":
            "c543c9664405000be97cc493ef0fa718eeac0c633185317b2f2a3b1497b7c657",
    },
    "queries/ring12_1": {
        "analyze":
            "3b3735f70262be8c60fc6713df7c7a46956bb3e35211651823842f1d07711c71",
        "analyze --cross-check":
            "20a9d4bef98276f46b6acf7d683b6193aa48ad29af7e533e5ab317e4e7749505",
        "analyze --format table":
            "0207f05136de8b7f86d8c21524eb4ae96ebc6dd281b463da43c7ff680e95b342",
        "verify-functional":
            "e0e173eec7b6ecf762975527b31fe8369b6819c2e29971c2e05513a91505d95e",
        "curvature":
            "1b752fdb11bff96f130f6a61a02cfe4409814f940fecb9a1039b5717167fa5d3",
        "curvature --cross-check":
            "1bbe50cf1ee9407c95b2deaf515032341c2c38a1ca882787baf3a0693f8c2329",
        "curvature --pairs 0,1 --cross-check":
            "628a80c3c78694161893ec545abac7b6f5342cf5db99b80729c2c461dbc3f4f1",
        "wasserstein dirac:0 dirac:{last} --plan":
            "7ccef98f6695483f48e21f2b67393049f0d2ba2ec7fdf2cdac82bf1514ae075e",
        "heat --t 0.5 --kernel 0":
            "b16756ac3b4a1e3e963b2d9bdb76d44905d4bba8c43d490dac913e39a640a574",
        "perron":
            "a03fa1992af57d1a1170a2cd706311359e51016021b37fcd4fad01cd0e600fae",
        "curvature --format csv":
            "be8e04dc120f9aaf88d62ec2417a5a1153cba6a08704032ac0968fe468e6c3ab",
        "curvature --format table":
            "88c849a3a128eccf5361ab6b9ba6500410e5f0680880a129ab9f25d72dbac280",
        "verify-functional --format table":
            "4fb47d0f767531c5054352bac1f3fff66427d0ef088eb2504b180198e2276cc1",
        "perron --format table":
            "b6a86805b9fabc6b0d3e7cb803627b4c23762714ce23513fb1e87841615ef71b",
        "analyze --k-override 2":
            "d8dfb45bc967027726defcae5e0b5106664e19c4f1feb8b9a2c3eb8b32a509a4",
        "wasserstein {ramp} {reversed} --plan":
            "cf23a32af71ac01744ce91929eea022ac3754550db3e03c7b72c328816977e70",
        "heat --t 0.5 --f dirac:0":
            "795faa00147afcc4c44b71ba09e3156f2c287ebb6eea8dd2897ced6143c9406d",
    },
    "queries/ring12_2": {
        "analyze":
            "9f6b656144114fe06799c022832b8e04ef87d3e15d60a6308c1d14339157f18e",
        "analyze --cross-check":
            "8a366b39a1bc8b862831c9043dc95377c5d82b0349d6d25cfc702012ea74f68c",
        "analyze --format table":
            "d7e2ed67c0b8c2b2cf4cc1064d71d245df9e9ab631264634f471c1cfa3de6afe",
        "verify-functional":
            "52ba816ff4b92a6ad5fbe476e9d753d958214a87191d813c9da08157da3b53f7",
        "curvature":
            "1fe9856530dbe2529a1ce4cd004d1a07c23005abea5f41df8b3f690c4d3dd92a",
        "curvature --cross-check":
            "602ce4443a60d661850bdec2a24a0b75135e629aff63dade7af856abf8471d9b",
        "curvature --pairs 0,1 --cross-check":
            "ecc6135f4c74022cd8b4f95a6a0dd5d13d020e439b7f25a09fc5473c6e5477da",
        "wasserstein dirac:0 dirac:{last} --plan":
            "e9c1a756f1593804838d7e80fbe01265a337372cd879707a4b70eb0a3dff3ea8",
        "heat --t 0.5 --kernel 0":
            "ef60fb0a3865c7eb53eb0ce00d5b47916835e5cfaf3289a0a53d3f3620cf16d0",
        "perron":
            "36026f6977f7f0be5336610329ed5155deae490e1ca904c2e264df65ca33bff0",
        "curvature --format csv":
            "d0e20c839a70aea0f915b8f06d488f14c6e0435887d5f9568daf765cb751095a",
        "curvature --format table":
            "2a53cb83dcdb000d5b1145bb22725c8a6a9f4fb024a95a6b4dab627095072cca",
        "verify-functional --format table":
            "a9afcb99bf163cc02fe0897817b8a695f9c7050c9e7ceab88c12bd89a7127245",
        "perron --format table":
            "50879af94b94768e7150f224520aeae8f30ecd4f5de90fdb92cd7becd7ce2d19",
        "analyze --k-override 2":
            "514077d82ac3d24f6ca42d166e8a8c0018c2baab45e3bb8f2bc1de14bc6da032",
        "wasserstein {ramp} {reversed} --plan":
            "7efdf76bf9f214716e6f821ce3fd1543c9ebf8a0504cae959a4dd2bf346818d1",
        "heat --t 0.5 --f dirac:0":
            "d59b32d68bfd3d75dce52ac618921a0f8e5acdbec2546769a8e024b2d97c42a8",
    },
    "queries/ring12_3": {
        "analyze":
            "1d78f6d4593d2b6e16c519de823d7a5660aa137416c0e53f66e1752bf3378757",
        "analyze --cross-check":
            "112f3b7afbd6ee8a57a4371112c6456d65e48be5d393aca6ee0c7c383bfc99bb",
        "analyze --format table":
            "fa40f8952c454fd047592d8d0bdd0a59dd3f63c4624960291575f4b09e161eea",
        "verify-functional":
            "005feb92a407e9d9a198087f7eb17f6a20e19c37b848576549c313061be31be6",
        "curvature":
            "0bc398aacf0efdea4adb20256708fefcc548d541cbbb58048b25289911760ee5",
        "curvature --cross-check":
            "9a03f9d213f9a7872bb7ed2f39be25f72292a3ea2d5657260b9df76c2a65b869",
        "curvature --pairs 0,1 --cross-check":
            "3f2e18bfeb0cc39d4ea943a946c378d2f7242cd2abd1bd708b52c5d5ff0e762f",
        "wasserstein dirac:0 dirac:{last} --plan":
            "72c99cf352509ced4a7c414442ad1d46e85c48324277714ff867d576774a6196",
        "heat --t 0.5 --kernel 0":
            "9b72f967782b175943fc0350d37721cbbd7dc4d780cd0498cfffb8f47d81f84a",
        "perron":
            "310e320ec5de8623da2b3bace58aa6cb09e536ee4a3b353bc00a86a54d313471",
        "curvature --format csv":
            "8a80466377e8a47f8ef2df43025b3ffc0cda4a19fb8e876a994bc868f631ae6d",
        "curvature --format table":
            "82aff7ea5da9c42aa41c681cfce8f44194b86bb687308ebde7fa1f7539d8b6df",
        "verify-functional --format table":
            "ec3268aaadf4dd0dd7cffb327e48fe14cb644e7d33348a6caa92dd6ad540f6f9",
        "perron --format table":
            "19781e68dcf6f633befb13c3d75e30ea19cd430bd665e3963dd8470bcfd51c1e",
        "analyze --k-override 2":
            "d96fcd183278d9e0382d592fec4b19cb6b1138eb1bd065752e921e463a0186a0",
        "wasserstein {ramp} {reversed} --plan":
            "d7af5bef8b58b73938356e943ac1f0c9504704105744a86531d05663fc75be67",
        "heat --t 0.5 --f dirac:0":
            "ba9a606d55e1bfc2dac286002b9ca191b93ba8996c1eaa1569e0845a5c09ef12",
    },
}


@pytest.fixture(scope="module")
def graphs() -> dict:
    """"workload/graph" -> the seed-1 graph bench/workloads draws under that name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
    return {
        f"{name}/{graph.name}": graph
        for name in workloads.WORKLOADS
        for graph in workloads.build(name, SEED).graphs
    }


def run_hash(argv: list[str], paths: dict[str, str], capsys) -> str:
    """SHA-256 of cli.main(argv)'s exit code, stdout and stderr, each path replaced by its name.

    paths maps a name to the path of a file the run reads, which shows
    as "<name>" in both streams.
    """
    code = cli.main(argv)
    streams = capsys.readouterr()
    for name, path in paths.items():
        streams = [stream.replace(path, f"<{name}>") for stream in streams]
    return hashlib.sha256(json.dumps([code, *streams]).encode()).hexdigest()


def corpus_hashes(graph, directory: Path, capsys) -> dict[str, str]:
    """Command label -> the hash of that command's run on graph, its files written to directory.

    The graph goes to one file, and the measures proportional to
    1, ..., n and to n, ..., 1 each to a file of one weight per line.
    """
    ramp = np.arange(1, graph.n + 1) / (graph.n * (graph.n + 1) / 2)
    weights = {"ramp": ramp, "reversed": ramp[::-1]}
    texts = {"graph": graph.text()} | {
        name: "".join(f"{weight!r}\n" for weight in nu.tolist()) for name, nu in weights.items()
    }
    paths = {}
    for name, text in texts.items():
        path = directory / f"{graph.name}.{'edges' if name == 'graph' else name}"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    hashes = {}
    for label in COMMANDS:
        command, *options = label.format(last=graph.n - 1, **paths).split()
        hashes[label] = run_hash([command, paths["graph"], *options], paths, capsys)
    return hashes


@pytest.mark.parametrize("key", sorted(PINS))
def test_every_command_prints_its_pinned_output(key, graphs, tmp_path, capsys):
    """Each command's exit code, stdout and stderr on the graph hash to its pin."""
    hashes = corpus_hashes(graphs[key], tmp_path, capsys)
    moved = [label for label in COMMANDS if hashes[label] != PINS[key][label]]
    assert not moved, f"{key}: the output of {moved} moved"


def test_the_corpus_pins_every_graph_and_command(graphs):
    """The pins cover the 11 seed-1 graphs and every command, and nothing else."""
    assert len(graphs) == 11
    assert sorted(PINS) == sorted(graphs)
    assert all(list(pins) == list(COMMANDS) for pins in PINS.values())
