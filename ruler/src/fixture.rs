//! Seeded inputs: the dense odometry sequences and the closed-circuit
//! maps every serving and mapping workload runs over.
//!
//! Two seeds shape a run. The *fixture seed* (`--fixture-seed`, 7 by
//! default) fixes the worlds: scenes, trajectories and the mapped
//! frames, so every run serves the same maps. The *run seed* (`--seed`)
//! draws the held-out traffic: every scan a workload localizes, tracks
//! or maps is taken at its ground-truth pose moved by a small seeded
//! offset ([`Offsets`]), with the scanner's noise on top. Fixture `k` of a run
//! uses [`sub_seed`]`(fixture_seed, k)`; fixture 0 uses the fixture seed
//! itself, so the default reproduces the repository's serving fixture.

use std::sync::Arc;
use std::time::Instant;

use tigris::data::{LidarConfig, Sequence, SequenceConfig};
use tigris::geom::{Mat3, RigidTransform, Vec3};
use tigris::map::{Mapper, MapperConfig};
use tigris::serve::shard::{EpochPublisher, ShardConfig, ShardService, SnapshotEpoch};

/// Circumference of the closed circuit (meters).
const CIRCUIT_M: f64 = 60.0;
/// Frames driven past the circuit's start to re-observe it.
const CIRCUIT_OVERLAP: usize = 6;
/// Frames of trajectory generated beyond the mapped circuit, so a
/// tracking script starting at a late seam frame still has consecutive
/// held-out scans to track.
const TRACK_EXTRA: usize = 16;
/// Radius of every map probe (meters): the tracking correspondence scale.
pub const PROBE_RADIUS: f64 = 2.0;
/// Largest horizontal offset of a held-out pose from ground truth (m).
const OFFSET_M: f64 = 0.2;
/// Largest yaw offset of a held-out pose from ground truth (degrees).
const OFFSET_DEG: f64 = 0.5;
/// Frames per period of a drive's lateral weave.
const WEAVE_FRAMES: f64 = 20.0;

/// Seed of fixture `k` under `seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A small deterministic generator (xorshift64*) for the run's traffic.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, zero included): the seed is
    /// mixed through one SplitMix64 step so nearby seeds start far apart.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// How held-out poses depart from the fixture's ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offsets {
    /// Each pose moved independently (up to `OFFSET_M` in x and y, up to
    /// `OFFSET_DEG` of yaw): independent clients somewhere on the road.
    Spot,
    /// Another drive along the same road: a smooth seeded lateral weave
    /// (amplitude up to `OFFSET_M`) and one seeded yaw offset (up to
    /// `OFFSET_DEG`), so consecutive frames still move like a vehicle.
    Drive,
}

impl Offsets {
    /// `poses`, moved by seeded offsets of this kind.
    fn apply(self, poses: &[RigidTransform], rng: &mut Rng) -> Vec<RigidTransform> {
        let amplitude = OFFSET_M * rng.symmetric();
        let phase = std::f64::consts::PI * rng.symmetric();
        let heading = (OFFSET_DEG * rng.symmetric()).to_radians();
        let step = std::f64::consts::TAU / WEAVE_FRAMES;
        poses
            .iter()
            .enumerate()
            .map(|(i, pose)| {
                let (offset, yaw) = match self {
                    Offsets::Spot => (
                        Vec3::new(OFFSET_M * rng.symmetric(), OFFSET_M * rng.symmetric(), 0.0),
                        (OFFSET_DEG * rng.symmetric()).to_radians(),
                    ),
                    Offsets::Drive => {
                        (Vec3::new(0.0, amplitude * (step * i as f64 + phase).sin(), 0.0), heading)
                    }
                };
                *pose * RigidTransform::new(Mat3::rotation_z(yaw), offset)
            })
            .collect()
    }
}

/// A dense sequence (the medium scanner, ~50k points a frame): another
/// drive along fixture `fixture_seed`'s trajectory.
pub fn dense_sequence(fixture_seed: u64, run_seed: u64) -> Sequence {
    let cfg = SequenceConfig::medium();
    // The trajectory does not depend on the scanner: take it from a
    // cheap low-resolution pass over the same world.
    let base =
        Sequence::generate(&SequenceConfig { lidar: LidarConfig::tiny(), ..cfg }, fixture_seed);
    let mut rng = Rng::new(sub_seed(run_seed, fixture_seed as usize));
    let poses = Offsets::Drive.apply(base.poses(), &mut rng);
    Sequence::scan_at(&cfg, fixture_seed, &poses)
}

/// The closed-circuit sequence configuration: the 60 m ring at the
/// low-resolution scanner, the repository's serving fixture.
pub fn circuit_config() -> SequenceConfig {
    let mut cfg = SequenceConfig::loop_circuit(CIRCUIT_M, CIRCUIT_OVERLAP);
    cfg.lidar = LidarConfig::tiny();
    cfg
}

/// One closed circuit: the fixture's mapping frames, and rounds of
/// held-out scans of the same world at offset poses along (and past)
/// it — each round offset afresh.
pub struct Circuit {
    /// The fixture's own frames over the circuit and its overlap — the
    /// input every served map is built from.
    pub map_frames: Sequence,
    /// Fixture ground-truth poses (`map_frames.len() + TRACK_EXTRA`).
    pub base: Vec<RigidTransform>,
    /// Per round, held-out scans at offset `base` poses; each
    /// sequence's poses are their ground truth.
    pub rounds: Vec<Sequence>,
}

impl Circuit {
    /// Generates fixture `fixture_seed`'s circuit with `rounds` rounds
    /// of run `run_seed`'s held-out scans.
    pub fn generate(fixture_seed: u64, run_seed: u64, rounds: usize, offsets: Offsets) -> Self {
        let cfg = circuit_config();
        let mapped = cfg.frames;
        let long = Sequence::generate(
            &SequenceConfig { frames: mapped + TRACK_EXTRA, ..cfg },
            fixture_seed,
        );
        let base = long.poses().to_vec();
        let mut rng = Rng::new(sub_seed(run_seed, fixture_seed as usize));
        let rounds = (0..rounds)
            .map(|_| Sequence::scan_at(&cfg, fixture_seed, &offsets.apply(&base, &mut rng)))
            .collect();
        let map_frames =
            Sequence::from_parts(long.frames()[..mapped].to_vec(), long.poses()[..mapped].to_vec());
        Circuit { map_frames, base, rounds }
    }

    /// Frames in the mapped circuit.
    pub fn mapped(&self) -> usize {
        self.map_frames.len()
    }

    /// Ground-truth motion from held-out frame `i - 1` to frame `i` of
    /// round `r` (frame `i` coordinates into frame `i - 1`'s).
    pub fn truth_step(&self, r: usize, i: usize) -> RigidTransform {
        let poses = self.rounds[r].poses();
        poses[i - 1].inverse() * poses[i]
    }

    /// The map-frame reference pose of held-out frame `i` of round `r`:
    /// the map's own pose of the nearest mapped frame, moved by ground
    /// truth from that frame to the held-out scan.
    pub fn reference_pose(
        &self,
        map_poses: &[RigidTransform],
        r: usize,
        i: usize,
    ) -> RigidTransform {
        let j = i.min(map_poses.len() - 1);
        map_poses[j] * (self.base[j].inverse() * self.rounds[r].poses()[i])
    }
}

/// Builds the map over the circuit's fixture frames and publishes it.
fn build_map(circuit: &Circuit) -> (Mapper, Arc<SnapshotEpoch>) {
    let mut mapper = Mapper::new(MapperConfig::serving());
    for frame in circuit.map_frames.frames() {
        // A frame that fails to match still enters the map as a bridged
        // break; it is reported through `MapperStats::breaks`.
        let _ = mapper.push(frame);
    }
    let epoch = EpochPublisher::new().publish(&mapper).expect("publishing a built map");
    (mapper, epoch)
}

/// Probes around a pose: a 3×3 ground grid 1.5 m apart, dropped just
/// below the scanner mount where the map is densest.
pub fn probes_around(pose: &RigidTransform) -> Vec<Vec3> {
    let mut out = Vec::with_capacity(9);
    for dx in [-1.5, 0.0, 1.5] {
        for dy in [-1.5, 0.0, 1.5] {
            out.push(pose.apply(Vec3::new(dx, dy, -1.0)));
        }
    }
    out
}

/// A served circuit: the held-out data, the published map and the
/// service over it.
pub struct Served {
    /// The circuit's inputs and ground truth.
    pub circuit: Circuit,
    /// The map's own pose of every mapped frame.
    pub map_poses: Vec<RigidTransform>,
    /// The service (one epoch, installed at set-up).
    pub service: ShardService,
    /// Bytes of every tile resident at once (measured on an unbounded
    /// warm service at set-up).
    pub full_resident_bytes: usize,
}

/// Sets up one served circuit and returns it with the seconds set-up
/// took. `budget_share` scales the tile budget against the fully
/// resident tile bytes (`None`: unbounded, every tile warm).
pub fn serve_circuit(
    fixture_seed: u64,
    run_seed: u64,
    rounds: usize,
    offsets: Offsets,
    budget_share: Option<f64>,
) -> (Served, f64) {
    let t0 = Instant::now();
    let circuit = Circuit::generate(fixture_seed, run_seed, rounds, offsets);
    let (mapper, epoch) = build_map(&circuit);
    let map_poses = mapper.poses().to_vec();
    drop(mapper);
    // Touch every tile once on an unbounded service: its resident bytes
    // are the fully resident figure the cold budget is a share of.
    let warm = ShardService::with_epoch(Arc::clone(&epoch), ShardConfig::default());
    let all_probes: Vec<Vec3> = map_poses.iter().flat_map(probes_around).collect();
    warm.query_batch(&all_probes, PROBE_RADIUS).expect("warming an installed epoch");
    let full_resident_bytes = warm.stats().tiles.resident_bytes;
    let service = match budget_share {
        None => warm,
        Some(share) => {
            let budget = ((full_resident_bytes as f64) * share) as usize;
            let config = ShardConfig { tile_budget_bytes: budget.max(1), ..ShardConfig::default() };
            ShardService::with_epoch(epoch, config)
        }
    };
    let served = Served { circuit, map_poses, service, full_resident_bytes };
    (served, t0.elapsed().as_secs_f64())
}
