//! Golden digests of the full interval-model artifacts.
//!
//! `schedule_with` produces more than `texec`: per-packet timelines, the
//! per-resource cost variable lists (the paper's Figure 3) and the
//! contention log. The paper figures pin those artifacts on one 2×2
//! example and the DES cross-validation pins only injections, deliveries
//! and `texec`. These tests pin everything, on 200 seeded TGFF
//! workloads with random mappings: each case hashes the JSON of every
//! schedule in its group with FNV-1a and compares the digest with the
//! value recorded when the suite was written. Any change to the timing
//! model, the recording of intervals or contention events, or the order
//! of either shows up here.
//!
//! The groups cover 2D XY, YX and torus-XY, a 3D mesh under XYZ and
//! torus-XYZ, and five parameter sets: the paper example, `tr = 4`,
//! strict ejection arbitration, un-serialized injection and 4-bit flits.
//! One more group routes with a custom algorithm whose name is not a
//! library name.
//!
//! A last group reaches the event queue's slow paths, which those
//! workloads never do (their packets stay under ~220 flits and every
//! router and link takes at least one cycle): packets longer than the
//! queue's 1024-cycle ring, whose far-future events go through its
//! overflow heap, and zero-cycle links and routers, whose events land
//! at the present or behind it.

use noc::apps::TgffConfig;
use noc::model::{
    Mapping, Mesh, Path, RoutingAlgorithm, TileId, TorusXyRouting, TorusXyzRouting, XyRouting,
    XyzRouting, YxRouting,
};
use noc::sim::{schedule_with, SimParams};

/// Schedules per (routing, parameter set) group.
const WORKLOADS: u64 = 8;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The five parameter sets every routing is scheduled under.
fn param_sets() -> [(&'static str, SimParams); 5] {
    let paper = SimParams::paper_example();
    [
        ("paper", paper),
        (
            "tr4",
            SimParams {
                routing_cycles: 4,
                ..paper
            },
        ),
        (
            "ejection",
            SimParams {
                ejection_contention: true,
                ..paper
            },
        ),
        (
            "free-injection",
            SimParams {
                injection_serialization: false,
                ..paper
            },
        ),
        (
            "flit4",
            SimParams {
                flit_width_bits: 4,
                ..paper
            },
        ),
    ]
}

/// Mesh of workload `seed`: a 2D mesh of 2–4 × 2–3 tiles, or the fixed
/// 3×2×2 stack for the 3D groups.
fn mesh_for(seed: u64, three_d: bool) -> Mesh {
    if three_d {
        return Mesh::new3(3, 2, 2).expect("valid 3D mesh");
    }
    let mut state = seed ^ 0x5EED;
    let width = 2 + (splitmix(&mut state) % 3) as usize;
    let height = 2 + (splitmix(&mut state) % 2) as usize;
    Mesh::new(width, height).expect("valid mesh")
}

/// Digest of every schedule of one group: `WORKLOADS` seeded TGFF
/// applications, each on a random injective mapping, with a mean
/// packet size of `base + r % spread` bits for `(base, spread) =
/// bits_per_packet`.
/// Also returns how many contention events the group logged, so a
/// group that never contends cannot pass vacuously.
fn group_digest(
    routing: &dyn RoutingAlgorithm,
    mesh_of: impl Fn(u64) -> Mesh,
    bits_per_packet: (u64, u64),
    params: &SimParams,
) -> (u64, usize) {
    let (base, spread) = bits_per_packet;
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut contended = 0;
    for seed in 0..WORKLOADS {
        let mesh = mesh_of(seed);
        let mut state = seed.wrapping_mul(0x9E37_79B9) ^ 0xC0FFEE;
        let cores = 3 + (splitmix(&mut state) % 6) as usize;
        let cores = cores.min(mesh.tile_count());
        let packets = 4 + (splitmix(&mut state) % 27) as usize;
        let bits = packets as u64 * (base + splitmix(&mut state) % spread);
        let cdcg = noc::apps::generate(&TgffConfig::new(cores, packets, bits, seed));
        let mut tiles: Vec<TileId> = mesh.tiles().collect();
        for i in (1..tiles.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            tiles.swap(i, j);
        }
        let mapping = Mapping::from_tiles(&mesh, tiles.into_iter().take(cores))
            .expect("shuffled prefix is injective");
        let sched = schedule_with(&cdcg, &mesh, &mapping, params, routing).expect("schedules");
        contended += sched.contention_events().len();
        let json = serde_json::to_string(&sched).expect("schedule serializes");
        fnv1a(&mut hash, json.as_bytes());
        fnv1a(&mut hash, b"\n");
    }
    (hash, contended)
}

/// Checks the five parameter-set digests of one routing against the
/// recorded values, reporting every mismatch at once.
fn check(routing: &dyn RoutingAlgorithm, three_d: bool, expected: [u64; 5]) {
    let mut mismatches = Vec::new();
    for ((label, params), want) in param_sets().iter().zip(expected) {
        let (got, contended) =
            group_digest(routing, |seed| mesh_for(seed, three_d), (20, 200), params);
        assert!(contended > 0, "{}/{label} never contends", routing.name());
        if got != want {
            mismatches.push(format!(
                "{}/{label}: got {got:#018x}, recorded {want:#018x}",
                routing.name()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A custom routing outside the library: XY from even tiles, YX from
/// odd ones. Its name is no library name, so schedulers cannot resolve
/// it to a coordinate walker and must call `route` back.
#[derive(Debug)]
struct ParityRouting;

impl RoutingAlgorithm for ParityRouting {
    fn route(&self, mesh: &Mesh, src: TileId, dst: TileId) -> Path {
        if src.index().is_multiple_of(2) {
            XyRouting.route(mesh, src, dst)
        } else {
            YxRouting.route(mesh, src, dst)
        }
    }

    fn name(&self) -> &'static str {
        "parity-XY/YX"
    }
}

#[test]
fn xy_schedules_match_recorded_digests() {
    check(
        &XyRouting,
        false,
        [
            0x7888_476e_5bcb_115d,
            0xaf36_233b_74ee_4fb7,
            0x2703_d758_a760_3dd6,
            0xe890_bb7d_8672_5446,
            0xe7c3_cc66_f28d_3a56,
        ],
    );
}

#[test]
fn yx_schedules_match_recorded_digests() {
    check(
        &YxRouting,
        false,
        [
            0xcf97_4a6b_192b_f586,
            0xe182_d63b_064a_1c62,
            0x8115_e733_dffb_0120,
            0xabcc_98c6_2202_868f,
            0x5d71_6914_3f7e_91f4,
        ],
    );
}

#[test]
fn torus_xy_schedules_match_recorded_digests() {
    check(
        &TorusXyRouting,
        false,
        [
            0x2fc3_1f5e_57b8_fc67,
            0x2b01_6c00_d365_4186,
            0xd339_119d_138e_55fc,
            0x0cae_a032_58f3_c11b,
            0x1bed_0a40_2891_0aaa,
        ],
    );
}

#[test]
fn xyz_3d_schedules_match_recorded_digests() {
    check(
        &XyzRouting,
        true,
        [
            0x3e3a_0d8c_2f02_4b19,
            0x0a57_cbe6_6929_ab12,
            0xd222_2fc3_99e9_bb6f,
            0x7174_0e83_159a_b3b0,
            0xe456_52a5_c530_fe45,
        ],
    );
}

#[test]
fn torus_xyz_3d_schedules_match_recorded_digests() {
    check(
        &TorusXyzRouting,
        true,
        [
            0x595a_6fdf_46c0_f956,
            0x9faf_d04f_5c55_dabe,
            0x793b_68a6_a441_15be,
            0x9c9d_227b_5b69_5d34,
            0x6dd2_2f35_9b68_1ee6,
        ],
    );
}

#[test]
fn custom_routing_schedules_match_recorded_digests() {
    check(
        &ParityRouting,
        false,
        [
            0xdd71_47ec_fd61_7051,
            0x4f8a_7c81_caa1_3bba,
            0x2f38_a1d4_e5d4_e75f,
            0xd693_c453_3f1a_e268,
            0xdd30_3be1_9824_1b74,
        ],
    );
}

/// The slow-path group: 8 workloads on a 3×3 mesh under XY for each
/// of four parameter sets. "long" keeps the paper parameters with
/// packets of 1500–4500 flits on average, well past the queue's ring;
/// the other three zero the link and/or router latency.
#[test]
fn event_queue_slow_path_schedules_match_recorded_digests() {
    let paper = SimParams::paper_example();
    let sets = [
        ("long", paper, (1500, 3000), 0xf9d9_472c_9fab_fb0c),
        (
            "tl0",
            SimParams {
                link_cycles: 0,
                ..paper
            },
            (20, 200),
            0x884c_8cb6_2049_23eb,
        ),
        (
            "tr0",
            SimParams {
                routing_cycles: 0,
                ..paper
            },
            (20, 200),
            0xc89b_c5fd_44e0_74c9,
        ),
        (
            "tl0-tr0",
            SimParams {
                link_cycles: 0,
                routing_cycles: 0,
                ..paper
            },
            (20, 200),
            0x1323_ca45_fc36_7e28,
        ),
    ];
    let mesh = Mesh::new(3, 3).expect("valid mesh");
    let mut mismatches = Vec::new();
    for (label, params, bits_per_packet, want) in sets {
        let (got, contended) = group_digest(&XyRouting, |_| mesh, bits_per_packet, &params);
        assert!(contended > 0, "slow-path/{label} never contends");
        if got != want {
            mismatches.push(format!(
                "slow-path/{label}: got {got:#018x}, recorded {want:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
