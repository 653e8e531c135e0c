//! Results recorded at the commit that introduced this benchmark. A run
//! whose results differ is reported as incorrect.

/// One Table 2 row: ETR, ECS0.35 and ECS0.07 as `f64` bits, and whether
/// SA matched the exhaustive optimum (`None` when ES was skipped).
#[derive(Debug)]
pub struct RowGolden {
    pub name: &'static str,
    pub bits: [u64; 3],
    pub sa_matches_es: Option<bool>,
}

/// `paper-table2`: the 18 rows of `table2::run` with `Table2Config::quick()`.
pub const TABLE2_ROWS: &[RowGolden] = &[
    RowGolden {
        name: "objrec-a",
        bits: [0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
        sa_matches_es: Some(true),
    },
    RowGolden {
        name: "fft8-a",
        bits: [0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
        sa_matches_es: Some(true),
    },
    RowGolden {
        name: "imgenc-a",
        bits: [0x3fca32f1d7083a9b, 0x0000000000000000, 0x3fc8243cbdf03268],
        sa_matches_es: Some(true),
    },
    RowGolden {
        name: "romberg-a",
        bits: [0x3f9396edbeff8e06, 0x3f4d6541837c8e24, 0x3f92fe8a0c72f3d2],
        sa_matches_es: None,
    },
    RowGolden {
        name: "imgenc-b",
        bits: [0x3fa1e9eb962f135f, 0x0000000000000000, 0x3f93d6e024bc25eb],
        sa_matches_es: None,
    },
    RowGolden {
        name: "fft8-b",
        bits: [0xbf55129a6c53a1d5, 0x3f8ac7da6cd8a893, 0xbf381dc1328c7e8a],
        sa_matches_es: None,
    },
    RowGolden {
        name: "romberg-b",
        bits: [0x3fbbd37a6f4de9bd, 0x3fa32eeacf264acd, 0x3fb7ebc8310fea9e],
        sa_matches_es: None,
    },
    RowGolden {
        name: "fft8-c",
        bits: [0x0000000000000000, 0xbfa1dd9eaa1978ef, 0xbf5c7125184dbbf0],
        sa_matches_es: None,
    },
    RowGolden {
        name: "objrec-b",
        bits: [0x3facb376c34c893d, 0xbfaf6598603c08ae, 0x3fa27e8eca7e84c2],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-a",
        bits: [0x3fc44aed44aed44b, 0x3f912e52a4d2dceb, 0x3fc3c4020470b40a],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-b",
        bits: [0x3fd4316de3e05f73, 0x3fa3d31817167833, 0x3fd304ea0c616637],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-c",
        bits: [0x3fe1320fb8f8f97b, 0x3fb171869e863253, 0x3fe098780c812fdc],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-d",
        bits: [0x3fd1171171171171, 0xbf9dfa9963a05d5b, 0x3fd05f8eb45676a9],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-e",
        bits: [0x3fbcbb860020e02b, 0xbfaa0c1f9ebe4f35, 0x3fb94c576bb8319d],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-f",
        bits: [0x3fd46283355243c5, 0xbfa272d51d8c00a8, 0x3fd304be09be9e0b],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-g",
        bits: [0x3fc20e1365918d6e, 0xbf69cf35d3866739, 0x3fbfde24c14da315],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-h",
        bits: [0x3fca901151e07517, 0xbfa1a4a38e22967a, 0x3fc7daf7b6ebacd8],
        sa_matches_es: None,
    },
    RowGolden {
        name: "tgff-i",
        bits: [0x3fc737ab1a39d6ca, 0x3fab3c07603acc84, 0x3fc50e20eaa0731b],
        sa_matches_es: None,
    },
];
/// `paper-table2`: the "Average" line (ETR, ECS0.35, ECS0.07).
pub const TABLE2_AVERAGE: [u64; 3] = [0x3fc2ecf91f7f8b73, 0xbf53c95a882d51f2, 0x3fc16e9065c59fe4];
/// `paper-table2`: evaluations billed by all of its searches.
pub const TABLE2_EVALS: u64 = 166_081;

/// `shift64-ga`: seed → `best_cost_pj` bits (GA budget 150).
pub const SHIFT64_GA: &[(u64, u64)] = &[
    (0, 0x41911a30db22d0e9),
    (1, 0x41916c0f6a7ef9e0),
    (2, 0x419178b6e560418d),
    (3, 0x41916f2172b020ca),
    (4, 0x41916548e978d502),
    (5, 0x4191572c6041893c),
    (6, 0x41916238fdf3b64b),
    (7, 0x419113199ba5e359),
    (8, 0x4190f39d2f1a9fc3),
    (9, 0x41917ffa20c49bab),
    (10, 0x41914a0f7ced916d),
    (11, 0x4191505843958109),
    (12, 0x419156f9020c49be),
    (13, 0x41915439c49ba5e8),
    (14, 0x41914cfde353f7d3),
    (15, 0x419109b88f5c28fa),
    (16, 0x419159c4ced9168b),
    (17, 0x41915e04a5e353fc),
    (18, 0x4190f1ad7ae147b3),
    (19, 0x41914e02d70a3d74),
    (20, 0x419125ee9581062a),
    (21, 0x4190ef4eac08312c),
    (22, 0x41915cca3f7ced96),
    (23, 0x41910cab2f1a9fc4),
    (24, 0x41916fb858106252),
    (25, 0x419169136872b025),
    (26, 0x4191750158106253),
    (27, 0x419154a39db22d12),
    (28, 0x41916c107ef9db27),
    (29, 0x41913d307ef9db28),
    (30, 0x41913ada0a3d70a8),
    (31, 0x41915244cac08316),
    (2718, 0x4190cde7c49ba5e8),
];

/// `service-mix`: seed → digest of every solve job's cost bits in
/// submission order (1200 jobs, SA budget 300).
pub const SERVICE_MIX: &[(u64, u64)] = &[
    (0, 0x02fd7f142347a580),
    (1, 0xc24e988a8f920ed1),
    (2, 0x91c7009f2eea3e1b),
    (3, 0x3db15a4e719aa79b),
    (4, 0xe3c0773abaa0312a),
    (5, 0x432f8d89968ec9a4),
    (6, 0xba2ebe28495d5b13),
    (7, 0x5735e0dc64d81293),
    (8, 0x30e476cefaf7dada),
    (9, 0x6e582dcd1416c90b),
    (10, 0x5bed563804044888),
    (11, 0x9982a27c67f648bb),
    (12, 0xd29c2df3b0c0f594),
    (13, 0x907a06f28a51d348),
    (14, 0xdd7604f266d97c3e),
    (15, 0x9a4c495423942c70),
    (16, 0xa95209c812fd4be6),
    (17, 0xa6d6b5717cb0b84f),
    (18, 0x1535650f3929d591),
    (19, 0x6d91e8da7cda739b),
    (20, 0xa01436e46915a233),
    (21, 0x44e95acaeab83b4b),
    (22, 0x03a0f18c480fe6b3),
    (23, 0xf02003bf5961ad4b),
    (24, 0x212c810922cda17d),
    (25, 0x58436b397b882eec),
    (26, 0x02f05b49ff183bc7),
    (27, 0x583909ae0e195d5e),
    (28, 0xb4efd84416eba54f),
    (29, 0x67097fe1fa470243),
    (30, 0x5f060ae0ff1e0ca9),
    (31, 0x0e56305075e77681),
    (2718, 0xe82d272ff795403c),
];

/// The golden of a seed-keyed table, if one was recorded.
pub fn lookup(table: &[(u64, u64)], seed: u64) -> Option<u64> {
    table.iter().find(|(s, _)| *s == seed).map(|(_, v)| *v)
}
