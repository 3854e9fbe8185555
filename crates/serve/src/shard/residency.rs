//! Lazy index residency: one rebuilt search index per submap payload,
//! under an explicit byte budget.
//!
//! An epoch's payload archives are compact (bare point arrays); what
//! costs real memory per *servable* submap is the rebuilt search index.
//! The (crate-internal) `TileCache` builds a payload's index on first
//! demand and keys it by the payload's identity — its `Arc` allocation —
//! so every epoch sharing a payload shares its index, and an
//! `install_epoch` keeps the index of every payload the publish left
//! unchanged. Residency is per payload; no tile groups submaps. The
//! `TileCache` / [`TileStats`] names, the `resident_tiles` field and the
//! `serve.tiles.*`, `tile.load` and `tile.evict` metric and span names
//! are kept because the benchmark reads them: each "tile" is one
//! submap index.
//!
//! This module alone decides when an index dies:
//!
//! * the byte budget evicts least-recently-touched indexes, one at a
//!   time, while the resident bytes exceed it — never the index just
//!   fetched, so a single index larger than the whole budget still
//!   serves (the budget bounds *steady-state* residency);
//! * `TileCache::sweep` drops every index whose payload nothing holds
//!   any more (no current or pinned epoch, no caller's epoch `Arc`). The
//!   service sweeps at `install_epoch` and at session release. An epoch
//!   `Arc` a caller keeps outside the service therefore keeps its
//!   payloads' indexes cached, though the budget still evicts them.
//!
//! An entry holds a `Weak` to its payload: the `Weak` keeps the
//! allocation, so a freed payload's address is never reused under a
//! stale key. Only reclaimable bytes are charged: the payload archives
//! (and `Arc`-shared keyframes) survive eviction by design, so charging
//! them would make the budget double-count memory eviction cannot free.
//!
//! Indexes are handed out as `Arc`s — eviction drops the cache's
//! reference while in-flight queries keep theirs. Correctness does not
//! depend on residency: a rebuilt index answers bit-identically to the
//! live submap's index (the `DynamicMapIndex` rebuild contract), so
//! load/evict churn can change only latency, never results.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use tigris_core::DynamicMapIndex;
use tigris_obs::{Counter, Gauge, Registry};

use super::epoch::SubmapPayload;
use crate::stats::TileStats;

#[derive(Debug)]
struct CacheEntry {
    /// Pins the payload's allocation (and so the entry's key); dead once
    /// nothing holds the payload.
    payload: Weak<SubmapPayload>,
    index: Arc<DynamicMapIndex>,
    last_touch: u64,
}

/// The LRU-by-touch index cache; see the [module docs](self). The
/// residency counters are handles into the owning service's obs
/// registry (`serve.tiles.*` names), so [`TileCache::stats`] and a
/// registry snapshot report the same numbers.
#[derive(Debug)]
pub(crate) struct TileCache {
    budget_bytes: usize,
    /// Payload allocation address → the index rebuilt over it.
    entries: HashMap<usize, CacheEntry>,
    /// Logical clock: bumped per lookup, stamped on the touched entry.
    clock: u64,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    loads: Arc<Counter>,
    evictions: Arc<Counter>,
    resident_tiles: Arc<Gauge>,
    resident_bytes: Arc<Gauge>,
    peak_resident_bytes: Arc<Gauge>,
}

impl TileCache {
    pub(crate) fn new(budget_bytes: usize, registry: &Registry) -> Self {
        TileCache {
            budget_bytes,
            entries: HashMap::new(),
            clock: 0,
            hits: registry.counter("serve.tiles.hits"),
            misses: registry.counter("serve.tiles.misses"),
            loads: registry.counter("serve.tiles.loads"),
            evictions: registry.counter("serve.tiles.evictions"),
            resident_tiles: registry.gauge("serve.tiles.resident_tiles"),
            resident_bytes: registry.gauge("serve.tiles.resident_bytes"),
            peak_resident_bytes: registry.gauge("serve.tiles.peak_resident_bytes"),
        }
    }

    /// `payload`'s index, resident: returns the cached build (a hit
    /// refreshes its LRU stamp) or rebuilds it, then evicts
    /// least-recently-touched indexes while over budget.
    pub(crate) fn fetch(&mut self, payload: &Arc<SubmapPayload>) -> Arc<DynamicMapIndex> {
        self.clock += 1;
        let key = Arc::as_ptr(payload) as usize;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_touch = self.clock;
            self.hits.inc();
            return Arc::clone(&entry.index);
        }
        self.misses.inc();
        let span = tigris_obs::span!("tile.load", submap = payload.id(), points = payload.len());
        let index = Arc::new(DynamicMapIndex::build(payload.points()));
        drop(span);
        self.loads.inc();
        self.resident_tiles.add(1);
        let resident = self.resident_bytes.add(index.memory_bytes() as i64);
        self.peak_resident_bytes.set_max(resident);
        let entry = CacheEntry {
            payload: Arc::downgrade(payload),
            index: Arc::clone(&index),
            last_touch: self.clock,
        };
        self.entries.insert(key, entry);
        self.evict_over_budget(key);
        index
    }

    fn evict_over_budget(&mut self, keep: usize) {
        while self.resident_bytes.get().max(0) as usize > self.budget_bytes {
            let Some((&victim, _)) =
                self.entries.iter().filter(|(&k, _)| k != keep).min_by_key(|(_, e)| e.last_touch)
            else {
                break;
            };
            let bytes = self.remove(victim);
            self.evictions.inc();
            tigris_obs::event!("tile.evict", bytes = bytes);
        }
    }

    /// Drops every index whose payload nothing holds any more. Not
    /// counted as budget evictions.
    pub(crate) fn sweep(&mut self) {
        let dead: Vec<usize> = self
            .entries
            .iter()
            .filter(|(_, e)| e.payload.strong_count() == 0)
            .map(|(&k, _)| k)
            .collect();
        for key in dead {
            self.remove(key);
        }
    }

    /// Removes the entry at `key` from the cache and the resident
    /// gauges, returning its reclaimed bytes.
    fn remove(&mut self, key: usize) -> usize {
        let entry = self.entries.remove(&key).expect("removing a resident entry");
        let bytes = entry.index.memory_bytes();
        self.resident_tiles.add(-1);
        self.resident_bytes.add(-(bytes as i64));
        bytes
    }

    /// A point-in-time copy of the residency counters, assembled from
    /// the registry handles.
    pub(crate) fn stats(&self) -> TileStats {
        TileStats {
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
            loads: self.loads.get() as usize,
            evictions: self.evictions.get() as usize,
            resident_tiles: self.resident_tiles.get().max(0) as usize,
            resident_bytes: self.resident_bytes.get().max(0) as usize,
            peak_resident_bytes: self.peak_resident_bytes.get().max(0) as usize,
        }
    }
}
