//! Sharded ≡ resident under generated schedules: whatever the index
//! budget (one byte to unbounded), and however epoch
//! installs, session opens and drops, and reads interleave, every
//! answer a budgeted `ShardService` gives equals an unbounded service's
//! over the same epoch; at rest the resident index bytes fit the budget
//! unless one index alone is resident; and once no session or install
//! holds a superseded epoch, none of its payloads' indexes stays
//! resident.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use tigris_data::{LidarConfig, Sequence, SequenceConfig};
use tigris_geom::Vec3;
use tigris_map::{Mapper, MapperConfig};
use tigris_serve::shard::{EpochPublisher, ShardConfig, ShardService, ShardSession, SnapshotEpoch};

/// Frame counts the three published epochs are cut at.
const EPOCH_FRAMES: [usize; 3] = [8, 16, 24];

/// Epoch slot meaning "a fresh publish of the final map": its payloads
/// are new allocations that only the service and its sessions hold.
const OWNED: usize = EPOCH_FRAMES.len();

/// One small map, published at each of [`EPOCH_FRAMES`], with an
/// unbounded reference service per epoch.
struct Fixture {
    /// The mapper after the last frame count (the content of the last
    /// epoch), re-published fresh for [`OWNED`] installs.
    mapper: Mapper,
    epochs: Vec<Arc<SnapshotEpoch>>,
    references: Vec<ShardService>,
    probes: Vec<Vec3>,
    /// Rebuilt-index bytes of the last epoch with every index resident.
    full_bytes: usize,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
        cfg.lidar = LidarConfig::tiny();
        let seq = Sequence::generate(&cfg, 11);
        let mut mapper = Mapper::new(MapperConfig::serving());
        let mut publisher = EpochPublisher::new();
        let mut epochs = Vec::new();
        let mut mapped = 0;
        for &frames in &EPOCH_FRAMES {
            for i in mapped..frames {
                mapper.push(seq.frame(i)).unwrap_or_else(|e| panic!("map frame {i} failed: {e}"));
            }
            mapped = frames;
            epochs.push(publisher.publish(&mapper).expect("publish"));
        }
        let references: Vec<ShardService> = epochs
            .iter()
            .map(|e| ShardService::with_epoch(Arc::clone(e), ShardConfig::default()))
            .collect();
        let probes: Vec<Vec3> = mapper
            .poses()
            .iter()
            .flat_map(|pose| [-2.0, 0.0, 2.0].map(|d| pose.apply(Vec3::new(d, -d, -1.0))))
            .collect();
        let last = references.last().expect("three epochs");
        last.query_batch(&probes, 3.0).expect("warming the last epoch");
        let full_bytes = last.stats().tiles.resident_bytes;
        Fixture { mapper, epochs, references, probes, full_bytes }
    })
}

#[derive(Debug, Clone)]
enum Op {
    /// Install epoch slot `0..=OWNED`.
    Install(usize),
    Open,
    /// Drop the session at this index (modulo the open count).
    Close(usize),
    /// Query through the session at `reader` (modulo the open count
    /// plus one; the extra slot is the service itself).
    Query {
        reader: usize,
        probe: usize,
        radius: f64,
    },
    Batch {
        reader: usize,
        probes: Vec<usize>,
        radius: f64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let probes = fixture().probes.len();
    prop_oneof![
        2 => (0usize..OWNED + 1).prop_map(Op::Install),
        2 => Just(Op::Open),
        1 => (0usize..8).prop_map(Op::Close),
        3 => (0usize..8, 0usize..probes, 0.0f64..3.0)
            .prop_map(|(reader, probe, radius)| Op::Query { reader, probe, radius }),
        2 => (0usize..8, prop::collection::vec(0usize..probes, 0..6), 0.0f64..3.0)
            .prop_map(|(reader, probes, radius)| Op::Batch { reader, probes, radius }),
    ]
}

fn budget() -> impl Strategy<Value = usize> {
    let full = fixture().full_bytes;
    prop_oneof![
        1 => Just(1usize),
        4 => 1usize..full,
        1 => Just(usize::MAX),
    ]
}

/// The epoch an install of `slot` serves.
fn epoch(fx: &Fixture, slot: usize) -> Arc<SnapshotEpoch> {
    match fx.epochs.get(slot) {
        Some(epoch) => Arc::clone(epoch),
        None => EpochPublisher::new().publish(&fx.mapper).expect("owned publish"),
    }
}

/// Notes a read through epoch `slot`, then answers with the reference
/// service for it (an owned publish has the last epoch's content).
fn reference<'a>(fx: &'a Fixture, slot: usize, read: &mut HashSet<usize>) -> &'a ShardService {
    if let Some(epoch) = fx.epochs.get(slot) {
        read.extend(epoch.payloads().iter().map(|p| Arc::as_ptr(p) as usize));
    }
    &fx.references[slot.min(OWNED - 1)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn budgeted_service_answers_like_an_unbounded_one(
        budget in budget(),
        first in 0usize..OWNED + 1,
        schedule in prop::collection::vec(op(), 1..24),
    ) {
        let fx = fixture();
        let config = ShardConfig { tile_budget_bytes: budget, ..ShardConfig::default() };
        let service = ShardService::with_epoch(epoch(fx, first), config);
        let mut current = first;
        // Each open session with the slot of its pinned epoch.
        let mut sessions: Vec<(ShardSession, usize)> = Vec::new();
        // Fixture payloads some read may have built an index for.
        let mut read: HashSet<usize> = HashSet::new();
        for op in schedule {
            match op {
                Op::Install(slot) => {
                    service.install_epoch(epoch(fx, slot));
                    current = slot;
                }
                Op::Open => sessions.push((service.open_session().expect("admission"), current)),
                Op::Close(i) => {
                    if !sessions.is_empty() {
                        sessions.remove(i % sessions.len());
                    }
                }
                Op::Query { reader, probe, radius } => {
                    let p = fx.probes[probe];
                    let (got, slot) = match sessions.get(reader % (sessions.len() + 1)) {
                        Some((session, slot)) => (session.query(p, radius), *slot),
                        None => (service.query(p, radius).expect("installed"), current),
                    };
                    let want = reference(fx, slot, &mut read).query(p, radius).expect("installed");
                    prop_assert_eq!(got, want, "query at {:?} r {}", p, radius);
                }
                Op::Batch { reader, probes, radius } => {
                    let points: Vec<Vec3> = probes.iter().map(|&i| fx.probes[i]).collect();
                    let (got, slot) = match sessions.get(reader % (sessions.len() + 1)) {
                        Some((session, slot)) => (session.query_batch(&points, radius), *slot),
                        None => (service.query_batch(&points, radius).expect("installed"), current),
                    };
                    let want = reference(fx, slot, &mut read)
                        .query_batch(&points, radius)
                        .expect("installed");
                    prop_assert_eq!(got, want, "batch of {} r {}", points.len(), radius);
                }
            }
            let tiles = service.stats().tiles;
            prop_assert!(
                tiles.resident_bytes <= budget || tiles.resident_tiles == 1,
                "{} B resident over a {} B budget in {} indexes",
                tiles.resident_bytes,
                budget,
                tiles.resident_tiles
            );
        }
        // With every session gone and a fixture epoch installed, nothing
        // holds an owned publish any more: only indexes of fixture
        // payloads that some read reached may stay.
        sessions.clear();
        service.install_epoch(Arc::clone(&fx.epochs[0]));
        let resident = service.stats().tiles.resident_tiles;
        prop_assert!(
            resident <= read.len(),
            "{} indexes resident, {} fixture payloads read",
            resident,
            read.len()
        );
    }
}
