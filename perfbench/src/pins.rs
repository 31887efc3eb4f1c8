//! Pinned `(report digest, rng_fingerprint)` per operation, generated by
//! `perfbench --pin` (then `cargo fmt`). A declared behaviour change re-pins
//! them.

pub const COMPETE: &[&[(u64, u64)]] = &[
    &[
        (0x6c54cd4078537b2c, 0x624495e01f97b1bc),
        (0x3765fd00961b17d5, 0x05716585b517ed81),
        (0x96b3cc524bb395f9, 0x0bca1decf2d2c6db),
    ],
    &[
        (0xfd1dda1855888e62, 0xb56a66dbd35f9224),
        (0xf27b34e2b4cb0ba8, 0x4c1e63cd1ce963dc),
        (0xb62313003e0564cc, 0xd63630262757807c),
    ],
    &[
        (0xe541183d16767795, 0xf72d7476fa74bbbe),
        (0x13ca59bf23145925, 0x8b9ed498acd44f7a),
        (0x11a08184789d2470, 0x94032dd4d2ed75a1),
    ],
    &[
        (0xdc7d31a18fa63890, 0xadbadb14837ddbd2),
        (0x6963045a41a3ea6f, 0xce9730cd2182c033),
        (0x4b16df2ad4a80ebd, 0xd7286c961cdbf954),
    ],
    &[
        (0x63edd7061e9986fb, 0xace813f2ce20ac9d),
        (0x9ed723d7bb6e1136, 0x7c4d00a9f0ecf73b),
        (0xba6ae169ddbeeb9d, 0xa3e3957e0e844a7d),
    ],
    &[
        (0x55fb83360d4b98d9, 0x569797956bc5ae2f),
        (0x51f895d51e79b9ba, 0xe8ece87904cde54b),
        (0xf18a4605f9a446fa, 0x05770a7d2be6a706),
    ],
    &[
        (0x8771588524c3fcfd, 0x61949a9656d571cf),
        (0xbcb26f6368e88747, 0xa764ce18325b311b),
        (0xe81512d75e96876e, 0x72a31649f3a06d80),
    ],
    &[
        (0xa563be4f278029e8, 0xddc37df0de377261),
        (0xb906413e9a9f4e44, 0xd09e0bbdd441e2ff),
        (0x92d4a46c161c329d, 0xd660b6d81b9a08f6),
    ],
    &[
        (0x8ff464d6d73cada9, 0x933975bf1bd13244),
        (0x755403da54d21dc2, 0xb5be9347c7f0e657),
        (0x1862d80d7314fb9b, 0xb39e2018e504e816),
    ],
    &[
        (0x75570e27cc4ff4ed, 0x940fad8bb7aba4a1),
        (0x5ca5a628e00e49ae, 0x0bc91064392c09dd),
        (0x3291b008b2dfb3fb, 0x84ce33a16e189e96),
    ],
];

pub const TRAFFIC: &[&[(u64, u64)]] =
    &[&[(0x7ebadd0622d37f3e, 0x1c5c93ee60e484d6), (0x1b5f06184534e008, 0xcf32019370c01956)]];

pub const SETUP: &[&[(u64, u64)]] = &[
    &[
        (0xb41f0d88f51d754b, 0x305c2f43afd2b76d),
        (0x21d28b603ea19bb0, 0x4aaa16c8b270e0d8),
        (0x01e431614c14bd82, 0x3d1b22a9a7eb723a),
        (0x955a490b2f504b67, 0x3c489e6639ef35df),
    ],
    &[
        (0x894b5ce1d461165c, 0x0e4301115a640294),
        (0x9323ca78552798aa, 0xded49245343fbbe9),
        (0xb2974aa69025881d, 0xcafbc66c69df9ca9),
        (0xdaffdd0a570a7446, 0x0980700d93202189),
    ],
    &[
        (0xdd1ffc2e3d4e959b, 0xbcf3e67a333bb567),
        (0x7d58e6c1b20cc2a9, 0x2eeb7b9508aba9fc),
        (0x6a940d667831f29c, 0x3dd4adc1c4100043),
        (0x5cdd8557185ed299, 0x2b233159cade0620),
    ],
    &[
        (0x8f47e9e9d1d48680, 0xc31a3fffe611bb24),
        (0x8153c6924bdc1118, 0xa46898595b26f01c),
        (0x9f9d4c0acf03ba6f, 0x55e2b52ae087707a),
        (0x4434692bf92fb599, 0x8666cadc0d3f5f32),
    ],
    &[
        (0xd43cff283212d18d, 0x75ab4019db5d4384),
        (0x9822d097510e0f54, 0xc41d393af421f9fe),
        (0x0fb42d59e4e94ede, 0x1cc98c3a7849e3dc),
        (0xbab745a565ffcb39, 0x2a15f2ef25aa7b1f),
    ],
    &[
        (0x7ad1d4b11bf15b01, 0x7064c9c08178fe6d),
        (0xe6baf18d56d14fd7, 0xf2e7391a9a02e1a4),
        (0x95a88ada59a5e790, 0x8edce56b59753271),
        (0x44f0c88cf0f181f3, 0xe37573cd04092fdb),
    ],
    &[
        (0x7b0928bae726acba, 0x8c156c61290352e4),
        (0xe1182a048f34fb10, 0xcc42b09a61e8a71d),
        (0x1737c11bab1a1c11, 0x0e4de85782023b3f),
        (0x8ed6f4e0c7123afb, 0xadb35ebaf6d867fc),
    ],
    &[
        (0x9eb746e1d80211d8, 0xd44fe9331c25a363),
        (0xf3a633f3bef10f9a, 0xb9a03f989ffe97a2),
        (0x171df7d0d60c1bb8, 0xec6f9723992d1e6d),
        (0xe342585dbc087eee, 0xa6e0c8c0fa853895),
    ],
    &[
        (0xc627bd1c3e5167ef, 0x916a55e7d4f3f88d),
        (0x7e8963ec8fb18872, 0x25cfd070da5f3b78),
        (0x288f99176805f1f2, 0xfc08772598bc56da),
        (0x3a1f5b5d7b88f1da, 0x70a8d0b6be0b2f2d),
    ],
    &[
        (0x91f371e999bf7ab1, 0xd0a78af021733270),
        (0x9c7dc3d1a1aa33c6, 0x95b632dfaf58c823),
        (0xa1c7179057d84bef, 0x8eba3c10f9dbdbdb),
        (0x667a20c449cec9f3, 0x3351055613097f32),
    ],
];

pub const SERVICE: &[(u64, u64)] = &[
    (0xf2b0065c5c691d80, 0xf999214400970225),
    (0x6814802fee96e40f, 0x9503f444435a83ae),
    (0xf3323cc4604b2a2a, 0x6a6124247c891b59),
    (0xafb0f57a201a421c, 0x9d5d7cb4933915b3),
    (0xc1276e46992667c8, 0xafd8d58d6005cb53),
    (0x8244630e9ae26ea5, 0x8bb9f4c2f515a78f),
    (0x1a33f67e019d8062, 0xacd310be40be9cfa),
    (0xc54f989ab3c9c6e5, 0x35028e99b3629782),
    (0x0bc8b0adf9a391a7, 0xb3ee8f1b65a59761),
    (0xa30ada9ab7093f59, 0x08996b9e3d989d22),
    (0xe14ec523bafe0524, 0xfe417bb6fd91c4d8),
    (0xa7607368c04375e8, 0x56318714371c2ee7),
    (0x70a71604d984286f, 0x09def3d52d2e8026),
    (0x0ce9856d3f65d41e, 0x3148975bd24c37ac),
    (0xc454f0f41982ce20, 0x0bd57214cbb06f57),
    (0x83c70f617883fbe0, 0x3bfdbfc94873db6c),
    (0xe3b2f23d6b77a5eb, 0xc109718c23ab5702),
    (0xd4dbb368ea132880, 0xe2705038811e7551),
    (0x4012513d15dfd77c, 0xb546fe57e41a3445),
    (0x3a3f70ed6082bc49, 0x0d3e3bddb7968247),
    (0x4ea33fefb0fa9e2c, 0x63e61cc4fab49f41),
    (0x0611c5c950f9cc03, 0xe3fc222756086f2c),
    (0xef3e1afa88d6d53c, 0xdc388e4891f70326),
    (0x93247c50f25db272, 0x95f78d4bce6f3473),
    (0x3a2eab48e76c2cf8, 0x7f87fbf83cf532d0),
    (0xe72b681ff408d41a, 0xa5814e1ed8994fe7),
    (0xa145a872d1bcfe72, 0x7ddd3ee4076c054b),
    (0x0a1dbde84c4f0f08, 0xce0bd3371c9a1a80),
    (0x286994638c131abc, 0x8686fbe86cdd412d),
    (0xb3e2c4579972a616, 0x067768007f7e2f61),
    (0xf26722c79061ae14, 0xd19b52df4a3f9328),
    (0xbe1637030d12018b, 0xd4e356dbf9215b5b),
    (0x082fc452d6932677, 0xe76fd9cf02a3142c),
    (0xa67feb6e07d056b1, 0xa10052993060910b),
    (0x37f483d5081e21e9, 0xd6fda13022c36ce9),
    (0x1452523519b7f3aa, 0x613d7136aa8e7981),
    (0x929d1470969fd0ef, 0x47dea4fcb7e541c1),
    (0x2adefee319a6674f, 0x36257a4c62a300b1),
    (0x66b0e5d77ceb75d6, 0x85a92a35d2895937),
    (0xd3e8629e0c721b67, 0x68c150ac9c15ced0),
];
