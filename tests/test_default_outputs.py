"""Every byte the default runs yield, pinned by sha256.

The six experiments at their default configs, plus ``spectra`` at
``oracle.k=2``, yield 61 files (CSV, SVG and spectrum traces). Each run is
computed in memory and every file's sha256 is compared with the table
below. A change that moves an output byte, even in a plot no other test
reads, fails here and names the file; a change that means to move one
records the new hashes and says why.
"""

import hashlib

import pytest

from fpsearch.config import build_config
from fpsearch.experiments import EXPERIMENTS

SHA256 = {
    "table1": {
        "table1.csv": "1da20e86d46d2eccb0097e14f837fc6e9f5aa8dee70898f1e933086351fd9cb3",
    },
    "k1-curves": {
        "k1-curves.csv": "6b5163f1879ee7f259d366a0a7f35bfe8b69da8153f356a851e79bcdb36fe076",
        "k1-curves.svg": "ac8c9ac2c619bab97306829a07541de745626eb7bc5a395e24068a8f4ac4ebed",
    },
    "k2-curves": {
        "k2-curves.csv": "8cae7eeca2393a9b633655d8a371a624dced699838d23cdd5cee535b17944630",
        "k2-curves.svg": "6c861d5696c0cef51023222a4e91fc2057b471a42148231fe83b5b2d9089d48e",
    },
    "robustness": {
        "robustness.csv": "011af7b40cb06581f88f3810dad5dda74c0b534e9b384233aec7816092de46f5",
        "robustness.svg": "faeeb2765444022602ebfe4427c1e1d0b99a04180197bdfedd2be9e07bcc763c",
    },
    "bb1-scaling": {
        "bb1_scaling.csv": "6e525fc6b8e5b31271065a52deee2d0280c10d0f170229137ce307b656b7aafb",
        "bb1_scaling.svg": "dcec2cd2c2cd55c3172ce02826190553ff9ce2eb23ae71f9a58dacc408bacf57",
    },
    "spectra": {
        "spectrum_k1_00_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k1_00_r1.txt": "4e7b2072edde2d093b1fba422d653c9b871665135bce96621cfbd810426695fe",
        "spectrum_k1_00_r2.txt": "b5afa276f993c162b9387311831340fcae1d51b8c208621f8619494837dd0d97",
        "spectrum_k1_00_r3.txt": "09414a1e1b4bdfcb12dcf55262364e94ebb04ccfb8e6641b33d4edcd8cd0385f",
        "spectrum_k1_00_rinf.txt": "6d7c09919f9ff4d2ccbba215c0decb4d4ba64f54dc0516494033acf5315d8ee4",
        "spectrum_k1_01_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k1_01_r1.txt": "51b09b573c6469ef1091891379dc26977780cda8c35da99968916058fb70b6fa",
        "spectrum_k1_01_r2.txt": "4b1aab74e6be352efaed74352018c359f11b925b5fa023f8540cef72ff14150e",
        "spectrum_k1_01_r3.txt": "1c5bd234d59fe7df2359e417f660158d8fb2924baeff14d1be1c37071e02bf51",
        "spectrum_k1_01_rinf.txt": "6b9ab63605535d00c04f4d1df1c6f8dcbe94a8f3607c62d67bd4ed6d2371f240",
        "spectrum_k1_10_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k1_10_r1.txt": "bf93ceefd7eab3fb8b3266c40d44d1fcb8ab07f1ccdd7b1c808630b9c262e473",
        "spectrum_k1_10_r2.txt": "439bb0b83d36fdaf71fcb0162dbf8b4d636fbedfcc17ea32d272ad3d095806fd",
        "spectrum_k1_10_r3.txt": "ff64703067878f9802da1cfb0ddf12ae7c5ae4b5556d6729fc5230c9a57c5302",
        "spectrum_k1_10_rinf.txt": "40b9724dcc40e52e8ee3fb96c09d4ffe7b282ca7d7f237021031f7bf1f2554dd",
        "spectrum_k1_11_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k1_11_r1.txt": "59b88fa173210cfb051558021c8d98486a042e15b294591fb4dfc06e6c04082f",
        "spectrum_k1_11_r2.txt": "778214f5ef7df58c878c9544bd5b0acab969780c7cbbd4ee59f740dabd6de0bd",
        "spectrum_k1_11_r3.txt": "9c8e76a03fde35f13f159fd9853a0d6478ec8c420ff832e59fdbf12be2d9cdb0",
        "spectrum_k1_11_rinf.txt": "64fde46bffebccd41887c877cfe7d18bf10cc4fe21e79fa30bb16f67d04a7f2c",
        "spectra_k1.svg": "87a7db70e683e8d39c575e803d4367926a5a352cbdea6784451f5c4a94a27db2",
    },
    "spectra oracle.k=2": {
        "spectrum_k2_00+01_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k2_00+01_r1.txt": "7fef910afb84919d6b6291739d61c51b00c6741f1c33f28ebf9483ac6ef0ffd8",
        "spectrum_k2_00+01_r2.txt": "3aae36e96887641f165f2ea5f55d8ebe91dbaed493c8426d25e26cbf1243e5ef",
        "spectrum_k2_00+01_r3.txt": "4d4d789f15724b5557140abdeb3090a3ac3d4710b34be8afe489ca42b1ec7d11",
        "spectrum_k2_00+01_rinf.txt": "37e46d0d7476f46b1b3191836c4353f079baddb34f44c2419728f712ede5087e",
        "spectrum_k2_00+10_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k2_00+10_r1.txt": "235c613691c576e6e9db5c69699a9a71fc039d1f7150bf49ea106805ac3f6768",
        "spectrum_k2_00+10_r2.txt": "26978571dd2760d2f1f6935eb72d49288d98dfea91124525a657725ead90861d",
        "spectrum_k2_00+10_r3.txt": "2ff95738274c6b4ab75880ac60577cb23e55e3562176d36a901604f2945eaba5",
        "spectrum_k2_00+10_rinf.txt": "ef0e7e8ae55f395b8700b34888aa60e7431180df4fed59234f7def1e58ff036b",
        "spectrum_k2_00+11_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k2_00+11_r1.txt": "0d757b0b98ee29f6ba0a0fcbdac4e2ecbb4957dd7546cf057ce18e04e07773a3",
        "spectrum_k2_00+11_r2.txt": "151dd93c5e78efc447962e24d75040eeebb3434766813a28f9486adcb06b537c",
        "spectrum_k2_00+11_r3.txt": "7a91ade4ba45d8301fffa008a85b388d828b8fe84a2bdc8ffc22f911fa3ddf63",
        "spectrum_k2_00+11_rinf.txt": "b975629fef232d7970adb0ea9db0f0952a08fadeaba6f3b58e6e54c082adb013",
        "spectrum_k2_01+10_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k2_01+10_r1.txt": "3fb606cc0c509faec9c8853201314de166d7dba3568c2820d11688b406e2108e",
        "spectrum_k2_01+10_r2.txt": "c150650ac6b033de1ba5dd64d43e28f51dc81b266ef68e4557eab68d13427818",
        "spectrum_k2_01+10_r3.txt": "5904be880642e7046147cb14698f78270ac74e26153de8678f89654e0beba33f",
        "spectrum_k2_01+10_rinf.txt": "3b644376c97b4e25bbe35a915c0a083a78e324ca53b59b6bb6012e8f87e2a75f",
        "spectrum_k2_01+11_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k2_01+11_r1.txt": "b3551a12712f9c91abccae1628ca9034d4b41ecef66ed4ededff778ff1648708",
        "spectrum_k2_01+11_r2.txt": "30950e1923a4b9fce371a374642aa8c5e4c4ae10cbb41ca705a51065de3f06f9",
        "spectrum_k2_01+11_r3.txt": "1b0541dbef3383ffe7ec04537d391d28527bc89cc19d2eb8942ede8ddacf09e9",
        "spectrum_k2_01+11_rinf.txt": "ef0e7e8ae55f395b8700b34888aa60e7431180df4fed59234f7def1e58ff036b",
        "spectrum_k2_10+11_r0.txt": "275af51cf1df98c64a4a213ee6a4654fd87e297dbe76943750f8b61280581cc6",
        "spectrum_k2_10+11_r1.txt": "8e702e11d8a286857389163717fd100f57c02d02a748a0ae2afaa8b961923297",
        "spectrum_k2_10+11_r2.txt": "e7d7b8f7743cd71791ef203ee53ecdc267d7267660892927b5c51d1094770353",
        "spectrum_k2_10+11_r3.txt": "238a3a158da00c6e7cbd5bb22ca5a5523220232937795e6e3753d649258b03db",
        "spectrum_k2_10+11_rinf.txt": "2bd7369b2d0d9df2f3e2cc36ac39a91fda29500fe06931ac87e71e672f05deea",
        "spectra_k2.svg": "df2448ae5bb3eacc72c9c897ead97a141377f67cb15df1ee4b65f49b76350ca9",
    },
}


@pytest.mark.parametrize("run", SHA256)
def test_default_output_bytes(run):
    experiment, *overrides = run.split()
    cfg = build_config(experiment, dict(item.split("=") for item in overrides))
    runner, _ = EXPERIMENTS[experiment]
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in runner(cfg)}
    assert got == SHA256[run]
