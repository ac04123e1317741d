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
A few SEQUENCES run commands back to back on one fresh file, an
analyze repeated among them, and each must print the pin the same
command has in PINS: a graph's set-up is kept between commands on the
same text, and what one run leaves must not move another's output.

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
# commands run back to back on one file of a graph, each pinned to its own pin in
# PINS: what ran before on the same graph in the process must not move an output.
# The K_8 runs analyze again after the functional suite has run on that graph; the
# queries graphs run the four commands of a question, in the benchmark's order.
SEQUENCES = (
    ("analyze_dense/k8_0",
     ("analyze", "verify-functional", "curvature --pairs 0,1 --cross-check", "analyze")),
    *((f"queries/ring12_{i}",
       ("wasserstein dirac:0 dirac:{last} --plan", "curvature --pairs 0,1 --cross-check",
        "heat --t 0.5 --kernel 0", "perron")) for i in range(4)),
)
# "workload/graph" -> command label -> SHA-256 of the run
PINS = {
    "analyze_dense/k8_0": {
        "analyze":
            "564eaff23a2ce5f5e377c31cbaabc1833a4276510aca975f6e791487eac6617b",
        "analyze --cross-check":
            "0fcf84b66fef84a54f22da635b85fe690d32314e143561243628dcd8aaa23694",
        "analyze --format table":
            "fa6c8c0d1eb16e9d49dc0e355a527528d28891dead194c191d7faa5065eddfde",
        "verify-functional":
            "7e63d2a3e933dc4da15a73f1928392182efc3a08029632e1caceb4c3bd210d65",
        "curvature":
            "3348b5865fd51b09ab695364cb2a4a0e68d83c12b26b941ce04e464f70b5ebf1",
        "curvature --cross-check":
            "a255424203ccb2e8c06540c8e7089ad56f6bfe951f147858e63c6f56b5f9d8d3",
        "curvature --pairs 0,1 --cross-check":
            "820d7489ff0d01d3b019c6c41cf26ca54537680af051c46fd925a0c92c095ed2",
        "wasserstein dirac:0 dirac:{last} --plan":
            "50b464f8e01759941e61142e2bf4c3ef5cfce67ae6bcf75f537a739c7841201a",
        "heat --t 0.5 --kernel 0":
            "1f2d6a3e404a3fe563361d5cb941932ab9235dd5b6dcfbd72682d311033d0448",
        "perron":
            "9e5651d559e5e490113596d2ddf9c3e9cef963ac8717aaebb897d1ec4caf6b4c",
        "curvature --format csv":
            "6f74ff30c2662ecaa6f64e398640025992d6d03e4a1128d5d9cbc20d3eec17ea",
        "curvature --format table":
            "b027a0b5cc9d669ce47aa9106813189a4e2425378ff0567297ff186c08830304",
        "verify-functional --format table":
            "389d9cc5e495e5a45f0b778b7487d8905ffbe7a69b8b9459bf8c88e63a3dadcf",
        "perron --format table":
            "2d0a4cfb3fd668c33076809cb61e1a86663936fc2b5d69b651360227aab75b20",
        "analyze --k-override 2":
            "2263b61724f7602db8799c2f4850b2f032920a448e4fc07712d5987f280cfd66",
        "wasserstein {ramp} {reversed} --plan":
            "8a70f1eb8597e5b4b6d0b31bd762b6a6d1a67633f1f77ca104dd6214b539e398",
        "heat --t 0.5 --f dirac:0":
            "e22946d98283b0f574863ad3c9d5e0e937488fbd20689abb6c513325b0784fd3",
    },
    "analyze_sparse/ring8_0": {
        "analyze":
            "fca60f37b90c91d6e8c7a2d2a5a68b776840f310131b51db7df04852e4165dec",
        "analyze --cross-check":
            "8eb5d1cbf37f382da1424b4d1ee0c3d39cd38bbdea7de17bec66f8f0ad067793",
        "analyze --format table":
            "22d23c5804feece23283f4269ae9e9fe5137cb4be791e998f8836c61930346a4",
        "verify-functional":
            "9fb366c1bcb3f4b2f582339916115366f44d507b9dd8bdff7507278e6b6cb743",
        "curvature":
            "bbdd7d8b258e011456b8b7d209bfd470364bb67ae5a437c7a26ebee0b99b7bdc",
        "curvature --cross-check":
            "34acaef32a3ff48831ecf29b548141404c834e20bff5faf2534228782fdc87df",
        "curvature --pairs 0,1 --cross-check":
            "12aa6ec69b9e64abaf2174bbf4f4fae21c40077c9371e422771df9ea3840b594",
        "wasserstein dirac:0 dirac:{last} --plan":
            "61e12de5cbf3ba50b03452f1dc598ad7d2890d110cad8e3095dd56ed2c53f99a",
        "heat --t 0.5 --kernel 0":
            "61ce6f1a9e506cfe5de7ccfb296e305f84e27d3eb0627204df42e0f51f37e534",
        "perron":
            "d37d8991c804bf25e76bb43190cd6f9f96ce0f3457a56ff5c196408e50ace2d4",
        "curvature --format csv":
            "b46242309b7bcefd03a0f7a1bef93d55251e5629dde94a78778ad3597ffc5627",
        "curvature --format table":
            "e3cff90274519a9989a81ff07a4a72b70525a9d056353597ed4e2ca298922c86",
        "verify-functional --format table":
            "f5ff5f966ed4c6970526a5e4b5993a4f3f77901a9dd7afbbdd65df6c104b4a71",
        "perron --format table":
            "2f47891142e26ed31218efa5e525906994734fbb8019186e6bb1f8d7c2fafb62",
        "analyze --k-override 2":
            "3cdfc4274fe1a004939b8e5cad9adfb468323ffe0eb1aeabc04cc45490dadb87",
        "wasserstein {ramp} {reversed} --plan":
            "02969540d8c91309369999b1e23222fabafb5197c518664895991cf5ca9d9a7e",
        "heat --t 0.5 --f dirac:0":
            "1585ef397d606f46707dafd242bbbf8368b8561f0d0dcbba11de0e4a61e32e63",
    },
    "analyze_sparse/ring8_1": {
        "analyze":
            "ec5030fc6d6c6f75c33db17869b158528626d64ef10a4493e2adf78e37ba9b7b",
        "analyze --cross-check":
            "bc5fa7b5dbf9309072ca8bc77d40a5a074444e0c18762c6cfee7e5459977a359",
        "analyze --format table":
            "79b3b5ad2021b3749230d3d7f50fec73357ef3eb2a217392a5b9b40d6df4fe7d",
        "verify-functional":
            "1897b80a23194a39d6f08c0e842b32ec301caa8ff0b581b664836a0c7522949a",
        "curvature":
            "407f482cf22984d2d2c203bffbd19e449fe7367213854c0d8ccd0957d021ad1a",
        "curvature --cross-check":
            "d84d16535fcf0d597deda21edee0b9a3afbde8a56739d15c68d5960eb3653348",
        "curvature --pairs 0,1 --cross-check":
            "b5cb075149290cfb5364146601d5f5cd41bd3ca58b43e1275157bbad5f3e8df8",
        "wasserstein dirac:0 dirac:{last} --plan":
            "8774f7cfba7fe302ba7b06d0e495671d9024b6da4581d8389a2956915ece7239",
        "heat --t 0.5 --kernel 0":
            "765d8a312393bf7c5d75008b1506f044fea3e306e6b12144308202343808a142",
        "perron":
            "1e6d430dc31aea8428783dd52ba7b23cd112d01d34c9543007e144d35572c5f7",
        "curvature --format csv":
            "dab8ef23b3fcb41fad8e1b92e8f8e22f61e9077236a6d8f76c1526c8d06a38cd",
        "curvature --format table":
            "6fa1e8e6194d668e8d3b85c236fbfb6fdef5b54e5464028547728bae8cc03bbe",
        "verify-functional --format table":
            "912fc5ccb6a197d39a92d60b35c6ade6fc87e9f9118f3d80fbad2a3aaed3805c",
        "perron --format table":
            "1bc35496c3435f55df0d36f759fa6749385dcdfb8e2ee249c445cbb27b921256",
        "analyze --k-override 2":
            "060b052f3ffbc42f5078b1d329610651a5455f43a460dd7b4daa5d851271cfe8",
        "wasserstein {ramp} {reversed} --plan":
            "6e412ba058e02a9517e63eb76e521928b02b8225d4c2f131abbd53f70a2c7ae8",
        "heat --t 0.5 --f dirac:0":
            "d2f38406fdeb6f1b62542b1d37572e08f7ae420f63b888d1d1fcf8b08a9dd623",
    },
    "curvature_sparse/ring12_0": {
        "analyze":
            "a46758add6e460d7bf39e9f1a8067b52f7764b531dfbf12636c4234b694ba35a",
        "analyze --cross-check":
            "30833924ac0e63d05ed6769396735e691985f272168abc4801e32072d61d192d",
        "analyze --format table":
            "186daefa1a634f0f69e53923f620190448615fd386d066bd114da27cd260d1a1",
        "verify-functional":
            "ce2d10d59c71c8d2d20f0c326d20ded8746f788e13250cee3d4441b8c926a755",
        "curvature":
            "1e0ae7cb90de7367a8840894a6af2ccf5bd6b8c81c4b621ddf633b9477b6c93e",
        "curvature --cross-check":
            "8a734caa9970db0f06f670bcdc17b3c671925f3cb3bce31647e2c96856975246",
        "curvature --pairs 0,1 --cross-check":
            "073ed103bbe25ad915648b3f6b7bdc14d5f155a5e2c98e6a0e6cf039a94a260e",
        "wasserstein dirac:0 dirac:{last} --plan":
            "2a3b0e492b4ff3c6f30bc874817fa128025f8263a11f4375ce63d676220b31ea",
        "heat --t 0.5 --kernel 0":
            "5243b0396e4d141720edeb7a0d80f1a6a586125af1f4e65c24a4a824a3893595",
        "perron":
            "5a9a2d411b21f9655b8af989b0ba0ac386ecd0a0797996edb5d18e3e230770db",
        "curvature --format csv":
            "80bdf22dfcc9563d19099749d2b6d1c6eda213abc3f45347d560fd5daeb3a95e",
        "curvature --format table":
            "a5f036382eadd8a7faf598e69a960182fc4deacfba07b7f1a7c2a90cf793cb91",
        "verify-functional --format table":
            "80632ca143da75e41f42441aed05f736ee67a5cea2e83eb63c1dca47f1af9aa9",
        "perron --format table":
            "6a7d552e2c2e02f22466d7f250d443b5e77794cece3463e5c44b027e92182d25",
        "analyze --k-override 2":
            "7ed45fbf0678718894c9b27aee14d3bcdd3ead3b7886d30b143af0519597284e",
        "wasserstein {ramp} {reversed} --plan":
            "89af66443bab73d52871a55b07c77632b0bdc5865d9e8ac37b45ad3b0ff7a247",
        "heat --t 0.5 --f dirac:0":
            "fd450f13464369caa9b0c2aace2aa1c8c7478087d95ac876d339fb26bbffe725",
    },
    "curvature_sparse/ring12_1": {
        "analyze":
            "8116a42d65e5615a01e9de2a9911a1a9946dd044dc9cc46a9602fba14e18bf4c",
        "analyze --cross-check":
            "1cf75fe8b8a8ae97bdf4bcd4459409075e53007135ff9f719c3c613458552b33",
        "analyze --format table":
            "44e03ed948db7c7e742c206adbd668016d2f9cf649a99537667bed6d08ce475a",
        "verify-functional":
            "5d8c004897744c8fb51b5beaea49dd19eb608966be6ce867f57b4ec244011339",
        "curvature":
            "eeb50480d06f7ca06ee056d7b4aa033d81ac170e9df58e3caa28615866ddebf7",
        "curvature --cross-check":
            "0eff0a499444db2983b72cd659fd24547d9a9439ccb2982321431898ceac46a9",
        "curvature --pairs 0,1 --cross-check":
            "f24dfd6589cc304d414bf0a6a61a7edbc019cd4d0ce68d2b4011ed8999f97b83",
        "wasserstein dirac:0 dirac:{last} --plan":
            "7ccef98f6695483f48e21f2b67393049f0d2ba2ec7fdf2cdac82bf1514ae075e",
        "heat --t 0.5 --kernel 0":
            "b16756ac3b4a1e3e963b2d9bdb76d44905d4bba8c43d490dac913e39a640a574",
        "perron":
            "a03fa1992af57d1a1170a2cd706311359e51016021b37fcd4fad01cd0e600fae",
        "curvature --format csv":
            "a0afa74e5f65627ec9ca7a7fd69e130651c7c468993733981d23f82de05aada2",
        "curvature --format table":
            "88c849a3a128eccf5361ab6b9ba6500410e5f0680880a129ab9f25d72dbac280",
        "verify-functional --format table":
            "4fb47d0f767531c5054352bac1f3fff66427d0ef088eb2504b180198e2276cc1",
        "perron --format table":
            "b6a86805b9fabc6b0d3e7cb803627b4c23762714ce23513fb1e87841615ef71b",
        "analyze --k-override 2":
            "64a25e95f6d8241d6865a634f2c6e4befe6b03969fc7ff39cc9ce4cbb6097d87",
        "wasserstein {ramp} {reversed} --plan":
            "cf23a32af71ac01744ce91929eea022ac3754550db3e03c7b72c328816977e70",
        "heat --t 0.5 --f dirac:0":
            "795faa00147afcc4c44b71ba09e3156f2c287ebb6eea8dd2897ced6143c9406d",
    },
    "curvature_sparse/ring12_2": {
        "analyze":
            "221e357b7f62376db6889e7f8c26947eb9981a6a818ec2de357b70b2792c97fa",
        "analyze --cross-check":
            "98b46aae7dcf77bbe51a0bff61b6a0b598498494a73d86d3c64a248ba8496245",
        "analyze --format table":
            "7cc72c4aff399c173b1648fb9e9d9519556de0c2e388b0af3e93b3c063ba0f2e",
        "verify-functional":
            "97cf28f33d4a54611528612ea7d9b786817516e497089674762d39f110f55ce6",
        "curvature":
            "117dc5e515f1b6a1ea8ea6e93f78c7dae456a165835311f59063c78af60879bc",
        "curvature --cross-check":
            "e031a6f4782377918441de3dba835c60c9e816c2f6c3032d9ca506cbca231282",
        "curvature --pairs 0,1 --cross-check":
            "2c55257f15be1eb3dea45da3cecce9b7c5f580cf56a06bd97e7b5b405631fda7",
        "wasserstein dirac:0 dirac:{last} --plan":
            "2f6036032c12d192f1cac5947e5f3e027ae3cfee01d45c364ca6027d21830803",
        "heat --t 0.5 --kernel 0":
            "e35e1c053d0447512af5a901d3a2be63f216dc72b38e54f516e8692bffaeb233",
        "perron":
            "ff74025dd3cc0bcaf22856b1e4a6a67de6688759df2867bbe01ab2a269ef20a4",
        "curvature --format csv":
            "2b5632e93dfc51fd9fb9ff3917129e5681110ed3f002a68660571ceaf3aa46a2",
        "curvature --format table":
            "f5b9887037fed4becb14ea8795835d774e032704acdf56e5e43a36477a23049c",
        "verify-functional --format table":
            "bcb2b7440149ef270ddf5346b8c02eb6d060169436be708bba1f7a295b76cc74",
        "perron --format table":
            "6bf25a0ef1d0e628e8fa12b1150e56b94439180c41c3e423750c2d4731d2b985",
        "analyze --k-override 2":
            "d77032187fe8beb6b081f7d1005dd845b0fbc73f0c4bcfe4943844d68ce291ee",
        "wasserstein {ramp} {reversed} --plan":
            "a95312394341ac3b671fa3302a963bb39611eecd0d1424098ce3aa747234b3de",
        "heat --t 0.5 --f dirac:0":
            "8a3b117e4b8be5cfb38495dc00c1a0c557bd32adf9b108b7c714a297dde4dff4",
    },
    "curvature_sparse/ring12_3": {
        "analyze":
            "d12f559dc0318ea8fbae8f8cab363daace69793fb14bc04a459f7e23ae8fcdf6",
        "analyze --cross-check":
            "e357768e64047c80409300f3c6b46c50f86a9a43a7624f8b4f3e079b62045650",
        "analyze --format table":
            "5b5ef0dc7ef3612adda60da37b20ccbc2945f9f3a0256c309bd9c69745b8e5dd",
        "verify-functional":
            "37cad4370d82cd2844dd7f89f871cc35e3150a1777d4b6c5ec3c0d2d041d9ad0",
        "curvature":
            "9ce9f702e720996ea3550ebd56dd7c855c99fa282f63faa6cdcd926f8e2246cb",
        "curvature --cross-check":
            "ee387e3447466e8c0787c258fb512d96ed87847c253e44cac4c4ea9a91ec3a9b",
        "curvature --pairs 0,1 --cross-check":
            "abf002df539511e2eec13297f1d5402d56eb30ddfba79d3b7ffcdea8be047b5d",
        "wasserstein dirac:0 dirac:{last} --plan":
            "72c99cf352509ced4a7c414442ad1d46e85c48324277714ff867d576774a6196",
        "heat --t 0.5 --kernel 0":
            "9b72f967782b175943fc0350d37721cbbd7dc4d780cd0498cfffb8f47d81f84a",
        "perron":
            "310e320ec5de8623da2b3bace58aa6cb09e536ee4a3b353bc00a86a54d313471",
        "curvature --format csv":
            "f2023b8decfe77054b112b0fafe1f83ffa3453734019b05f11d15adcf58538d8",
        "curvature --format table":
            "82aff7ea5da9c42aa41c681cfce8f44194b86bb687308ebde7fa1f7539d8b6df",
        "verify-functional --format table":
            "ec3268aaadf4dd0dd7cffb327e48fe14cb644e7d33348a6caa92dd6ad540f6f9",
        "perron --format table":
            "19781e68dcf6f633befb13c3d75e30ea19cd430bd665e3963dd8470bcfd51c1e",
        "analyze --k-override 2":
            "b6f587b2b5e88f9807b3cafe1998400b6175062af1b0e1a6dda3d0ee2ca50fa1",
        "wasserstein {ramp} {reversed} --plan":
            "d7af5bef8b58b73938356e943ac1f0c9504704105744a86531d05663fc75be67",
        "heat --t 0.5 --f dirac:0":
            "ba9a606d55e1bfc2dac286002b9ca191b93ba8996c1eaa1569e0845a5c09ef12",
    },
    "queries/ring12_0": {
        "analyze":
            "2e8a3808cddf1231d750192d8f13dbe5eaa05a76f703ee998ae32f42c2434abd",
        "analyze --cross-check":
            "41e7a5da37e34f64fd42b048f35d161ba9bedf7b99d90fdf16aaad4ca9a8fb5f",
        "analyze --format table":
            "8e296dca2bc65520868cbfedab1424dca7aa0bd449dc77ab37ada639e897b3f8",
        "verify-functional":
            "05123a404e8a1f7c31b1ab0b6b88af27e4414ba32a599480de36f3d120a20055",
        "curvature":
            "988c59da817daa1e5187c2cb3eace641a98302b5704275226c2fed7b431117d5",
        "curvature --cross-check":
            "f38a56d913bef81b6e9ed1ffbb9e83721b648deffa23462c8acd8454d05e8ed5",
        "curvature --pairs 0,1 --cross-check":
            "37df843f734c43daa8d2bcf0537b8047cb07d297a6bbeda2ac026d67b79dc57e",
        "wasserstein dirac:0 dirac:{last} --plan":
            "eaa920fde7a7cd3d19a0cea5c15a5423322b9ded67a012712f51b3148c80e41f",
        "heat --t 0.5 --kernel 0":
            "2951d75abc6767c4ce0a40fa18baf96e98247771e88cbe7a47d4c8fcc7dc981f",
        "perron":
            "8dbba70881599245ff1c01601d1bbe3f1a725fd4c11c8478cafb89d127fde91b",
        "curvature --format csv":
            "fe8b7e6a08b0f830890af15cad2e0f7c04f82203d96e4cb9e9be016688e5d537",
        "curvature --format table":
            "8a1751702f1206992487bb8aa24966925298202956463710ab9db21c19dc3854",
        "verify-functional --format table":
            "73109786de75aa045ee300f9b4f9824441caca9dc3b9542076f8092ae35b06c8",
        "perron --format table":
            "2c6b4afc0e9b35215bbba4eba7a027d526f8595c107694b66a7ac525d99d19d4",
        "analyze --k-override 2":
            "243df8772537aa3f7a8429110425ad191ad9a47fdb41a2ef4d3b3d113ade8ce5",
        "wasserstein {ramp} {reversed} --plan":
            "b6d946a2851ad64c9f9ef68c0a58e7c3f1e2f0552493ed6be9dad4e22c00dad9",
        "heat --t 0.5 --f dirac:0":
            "c543c9664405000be97cc493ef0fa718eeac0c633185317b2f2a3b1497b7c657",
    },
    "queries/ring12_1": {
        "analyze":
            "8116a42d65e5615a01e9de2a9911a1a9946dd044dc9cc46a9602fba14e18bf4c",
        "analyze --cross-check":
            "1cf75fe8b8a8ae97bdf4bcd4459409075e53007135ff9f719c3c613458552b33",
        "analyze --format table":
            "44e03ed948db7c7e742c206adbd668016d2f9cf649a99537667bed6d08ce475a",
        "verify-functional":
            "5d8c004897744c8fb51b5beaea49dd19eb608966be6ce867f57b4ec244011339",
        "curvature":
            "eeb50480d06f7ca06ee056d7b4aa033d81ac170e9df58e3caa28615866ddebf7",
        "curvature --cross-check":
            "0eff0a499444db2983b72cd659fd24547d9a9439ccb2982321431898ceac46a9",
        "curvature --pairs 0,1 --cross-check":
            "f24dfd6589cc304d414bf0a6a61a7edbc019cd4d0ce68d2b4011ed8999f97b83",
        "wasserstein dirac:0 dirac:{last} --plan":
            "7ccef98f6695483f48e21f2b67393049f0d2ba2ec7fdf2cdac82bf1514ae075e",
        "heat --t 0.5 --kernel 0":
            "b16756ac3b4a1e3e963b2d9bdb76d44905d4bba8c43d490dac913e39a640a574",
        "perron":
            "a03fa1992af57d1a1170a2cd706311359e51016021b37fcd4fad01cd0e600fae",
        "curvature --format csv":
            "a0afa74e5f65627ec9ca7a7fd69e130651c7c468993733981d23f82de05aada2",
        "curvature --format table":
            "88c849a3a128eccf5361ab6b9ba6500410e5f0680880a129ab9f25d72dbac280",
        "verify-functional --format table":
            "4fb47d0f767531c5054352bac1f3fff66427d0ef088eb2504b180198e2276cc1",
        "perron --format table":
            "b6a86805b9fabc6b0d3e7cb803627b4c23762714ce23513fb1e87841615ef71b",
        "analyze --k-override 2":
            "64a25e95f6d8241d6865a634f2c6e4befe6b03969fc7ff39cc9ce4cbb6097d87",
        "wasserstein {ramp} {reversed} --plan":
            "cf23a32af71ac01744ce91929eea022ac3754550db3e03c7b72c328816977e70",
        "heat --t 0.5 --f dirac:0":
            "795faa00147afcc4c44b71ba09e3156f2c287ebb6eea8dd2897ced6143c9406d",
    },
    "queries/ring12_2": {
        "analyze":
            "3d1821b3cee67d93958f35c79e969834c6131d863abf9f3797eec289344b7dab",
        "analyze --cross-check":
            "a29febf1076175f757cff8c4207ab79a5aeccec38edeb0d403f1632876e73011",
        "analyze --format table":
            "8c3a207490cb774c4e717d7210fa22f8c3849c89fbbd2f8d5f7d72d11a73d664",
        "verify-functional":
            "e20a41ef091ba79bfc8acbccd31ba012337050aa211c401c97aff705859c5573",
        "curvature":
            "8bb193c384ed5e1260d61ef51928b55d992433a02489836fda96a57266633845",
        "curvature --cross-check":
            "e205dd1fa27805f20bf74f0868059e6f757a0a4f761f5e616bd28941fab340d7",
        "curvature --pairs 0,1 --cross-check":
            "9e55ff48c90a8336beb08dfaba903222979b7e8343ac0fe104ae92d3739fb4c6",
        "wasserstein dirac:0 dirac:{last} --plan":
            "e9c1a756f1593804838d7e80fbe01265a337372cd879707a4b70eb0a3dff3ea8",
        "heat --t 0.5 --kernel 0":
            "ef60fb0a3865c7eb53eb0ce00d5b47916835e5cfaf3289a0a53d3f3620cf16d0",
        "perron":
            "36026f6977f7f0be5336610329ed5155deae490e1ca904c2e264df65ca33bff0",
        "curvature --format csv":
            "765592e3a2ceee3a963cb19c8e3aa150c7588a8715f9f37adee17272e06c88fa",
        "curvature --format table":
            "2a53cb83dcdb000d5b1145bb22725c8a6a9f4fb024a95a6b4dab627095072cca",
        "verify-functional --format table":
            "a9afcb99bf163cc02fe0897817b8a695f9c7050c9e7ceab88c12bd89a7127245",
        "perron --format table":
            "50879af94b94768e7150f224520aeae8f30ecd4f5de90fdb92cd7becd7ce2d19",
        "analyze --k-override 2":
            "800f03ed07db163142cec07fc43f5a025488f946f70d60ae5d8a66cc4975a050",
        "wasserstein {ramp} {reversed} --plan":
            "7efdf76bf9f214716e6f821ce3fd1543c9ebf8a0504cae959a4dd2bf346818d1",
        "heat --t 0.5 --f dirac:0":
            "d59b32d68bfd3d75dce52ac618921a0f8e5acdbec2546769a8e024b2d97c42a8",
    },
    "queries/ring12_3": {
        "analyze":
            "d12f559dc0318ea8fbae8f8cab363daace69793fb14bc04a459f7e23ae8fcdf6",
        "analyze --cross-check":
            "e357768e64047c80409300f3c6b46c50f86a9a43a7624f8b4f3e079b62045650",
        "analyze --format table":
            "5b5ef0dc7ef3612adda60da37b20ccbc2945f9f3a0256c309bd9c69745b8e5dd",
        "verify-functional":
            "37cad4370d82cd2844dd7f89f871cc35e3150a1777d4b6c5ec3c0d2d041d9ad0",
        "curvature":
            "9ce9f702e720996ea3550ebd56dd7c855c99fa282f63faa6cdcd926f8e2246cb",
        "curvature --cross-check":
            "ee387e3447466e8c0787c258fb512d96ed87847c253e44cac4c4ea9a91ec3a9b",
        "curvature --pairs 0,1 --cross-check":
            "abf002df539511e2eec13297f1d5402d56eb30ddfba79d3b7ffcdea8be047b5d",
        "wasserstein dirac:0 dirac:{last} --plan":
            "72c99cf352509ced4a7c414442ad1d46e85c48324277714ff867d576774a6196",
        "heat --t 0.5 --kernel 0":
            "9b72f967782b175943fc0350d37721cbbd7dc4d780cd0498cfffb8f47d81f84a",
        "perron":
            "310e320ec5de8623da2b3bace58aa6cb09e536ee4a3b353bc00a86a54d313471",
        "curvature --format csv":
            "f2023b8decfe77054b112b0fafe1f83ffa3453734019b05f11d15adcf58538d8",
        "curvature --format table":
            "82aff7ea5da9c42aa41c681cfce8f44194b86bb687308ebde7fa1f7539d8b6df",
        "verify-functional --format table":
            "ec3268aaadf4dd0dd7cffb327e48fe14cb644e7d33348a6caa92dd6ad540f6f9",
        "perron --format table":
            "19781e68dcf6f633befb13c3d75e30ea19cd430bd665e3963dd8470bcfd51c1e",
        "analyze --k-override 2":
            "b6f587b2b5e88f9807b3cafe1998400b6175062af1b0e1a6dda3d0ee2ca50fa1",
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


def corpus_hashes(graph, directory: Path, capsys, labels=COMMANDS) -> list[str]:
    """The hash of each command of labels run in turn on graph, its files written to directory.

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
    hashes = []
    for label in labels:
        command, *options = label.format(last=graph.n - 1, **paths).split()
        hashes.append(run_hash([command, paths["graph"], *options], paths, capsys))
    return hashes


@pytest.mark.parametrize("key", sorted(PINS))
def test_every_command_prints_its_pinned_output(key, graphs, tmp_path, capsys):
    """Each command's exit code, stdout and stderr on the graph hash to its pin."""
    hashes = corpus_hashes(graphs[key], tmp_path, capsys)
    moved = [label for label, sha in zip(COMMANDS, hashes) if sha != PINS[key][label]]
    assert not moved, f"{key}: the output of {moved} moved"


@pytest.mark.parametrize("key, labels", SEQUENCES, ids=[key for key, _ in SEQUENCES])
def test_a_command_prints_its_pin_whatever_ran_before_on_the_graph(
    key, labels, graphs, tmp_path, capsys
):
    """Commands run back to back on one file each hash to the pin of the command alone."""
    hashes = corpus_hashes(graphs[key], tmp_path, capsys, labels)
    moved = [(k, label) for k, (label, sha) in enumerate(zip(labels, hashes))
             if sha != PINS[key][label]]
    assert not moved, f"{key}: the output of {moved} moved"


def test_the_corpus_pins_every_graph_and_command(graphs):
    """The pins cover the 11 seed-1 graphs and every command, and nothing else."""
    assert len(graphs) == 11
    assert sorted(PINS) == sorted(graphs)
    assert all(list(pins) == list(COMMANDS) for pins in PINS.values())
