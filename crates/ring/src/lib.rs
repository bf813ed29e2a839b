//! Consistent-hashing ring, Swift style.
//!
//! OpenStack Swift maps an object name to one of `2^part_power` partitions by
//! hashing, and maps each partition to `replicas` storage devices via a
//! precomputed table (the "ring"). This crate reproduces that model:
//!
//! * [`RingBuilder`] collects weighted devices grouped into zones and builds
//!   an immutable [`Ring`].
//! * Placement uses *weighted rendezvous hashing* per partition, which gives
//!   the three properties the paper relies on (§2, §3.1): load proportional
//!   to device weight, replicas on distinct devices (and distinct zones when
//!   possible), and minimal data movement when devices join or leave — only
//!   the partitions whose best device changed move.
//! * [`Ring::lookup`] returns primary + replica devices for a key in O(1)
//!   (table lookup); [`Ring::handoffs`] yields fallback devices for failure
//!   handling, in deterministic preference order.
//!
//! Both H2Cloud and every single-cloud baseline place *all* their objects —
//! file content, directory descriptors, NameRings, patches — through this
//! one ring, exactly as Figure 4(c) of the paper shows.
//!
//! ```
//! use h2ring::{DeviceId, RingBuilder};
//!
//! let mut builder = RingBuilder::new(10, 3); // 2^10 partitions, 3 replicas
//! for i in 0..8 {
//!     builder.add_device(DeviceId(i), i as u8, 1.0); // one zone per server
//! }
//! let ring = builder.build();
//! let replicas = ring.lookup(b"/alice/fs/home/notes.txt");
//! assert_eq!(replicas.len(), 3);
//! // Deterministic: the same key always lands on the same devices.
//! assert_eq!(replicas, ring.lookup(b"/alice/fs/home/notes.txt"));
//! ```

use h2util::hash::hash64_seeded;

/// Identifier of a storage device (disk on a storage node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u16);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// A weighted device in a failure zone.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    pub id: DeviceId,
    /// Failure-isolation zone (Swift zone / paper's "storage server").
    pub zone: u8,
    /// Relative capacity; partitions are assigned proportionally.
    pub weight: f64,
}

/// Builder for a [`Ring`].
#[derive(Debug, Clone)]
pub struct RingBuilder {
    part_power: u8,
    replicas: usize,
    devices: Vec<Device>,
}

impl RingBuilder {
    /// `part_power` bits of partition space (Swift default 18 in prod; tests
    /// use 8–12), `replicas` copies of each object.
    pub fn new(part_power: u8, replicas: usize) -> Self {
        assert!(
            part_power > 0 && part_power <= 24,
            "part_power out of range"
        );
        assert!(replicas >= 1, "need at least one replica");
        RingBuilder {
            part_power,
            replicas,
            devices: Vec::new(),
        }
    }

    pub fn add_device(&mut self, id: DeviceId, zone: u8, weight: f64) -> &mut Self {
        assert!(weight > 0.0, "device weight must be positive");
        assert!(
            self.devices.iter().all(|d| d.id != id),
            "duplicate device {id}"
        );
        self.devices.push(Device { id, zone, weight });
        self
    }

    pub fn remove_device(&mut self, id: DeviceId) -> bool {
        let before = self.devices.len();
        self.devices.retain(|d| d.id != id);
        self.devices.len() != before
    }

    pub fn set_weight(&mut self, id: DeviceId, weight: f64) -> bool {
        assert!(weight > 0.0);
        for d in &mut self.devices {
            if d.id == id {
                d.weight = weight;
                return true;
            }
        }
        false
    }

    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Builder seeded from an existing ring's topology, for incremental
    /// rebuilds: same partition space and replica count, same devices.
    /// Mutate (add/remove/re-weight devices) and [`RingBuilder::build`] to
    /// get the successor ring; [`Ring::changed_parts`] then tells exactly
    /// which partitions must migrate.
    pub fn from_ring(ring: &Ring) -> Self {
        RingBuilder {
            part_power: ring.part_power,
            replicas: ring.replicas,
            devices: ring.devices.clone(),
        }
    }

    /// Materialise the placement table.
    pub fn build(&self) -> Ring {
        assert!(
            self.devices.len() >= self.replicas,
            "need at least as many devices ({}) as replicas ({})",
            self.devices.len(),
            self.replicas
        );
        let parts = 1usize << self.part_power;
        let mut table = Vec::with_capacity(parts * self.replicas);
        for part in 0..parts as u64 {
            let ranked = rank_devices(&self.devices, part);
            let chosen = choose_replicas(&ranked, &self.devices, self.replicas);
            table.extend(chosen);
        }
        Ring {
            part_power: self.part_power,
            replicas: self.replicas,
            devices: self.devices.clone(),
            table,
        }
    }
}

/// Rank all devices for a partition by weighted-rendezvous score, best first.
/// Returns indices into `devices`.
fn rank_devices(devices: &[Device], part: u64) -> Vec<usize> {
    let mut scored: Vec<(f64, usize)> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (rendezvous_score(d, part), i))
        .collect();
    // Descending score; ties broken by device id for determinism.
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap()
            .then_with(|| devices[a.1].id.cmp(&devices[b.1].id))
    });
    scored.into_iter().map(|(_, i)| i).collect()
}

/// Weighted rendezvous: score = -weight / ln(u), u = uniform(0,1) from
/// hashing (device, partition). The device with max score "owns" the
/// partition; weights bias ownership proportionally, and a device's score
/// for a partition never depends on other devices — hence minimal movement.
fn rendezvous_score(dev: &Device, part: u64) -> f64 {
    let h = hash64_seeded(&part.to_le_bytes(), 0xD1CE ^ dev.id.0 as u64);
    let u = (h >> 11) as f64 / ((1u64 << 53) as f64);
    let u = u.max(f64::MIN_POSITIVE);
    -dev.weight / u.ln()
}

/// Pick `replicas` devices from the ranked list, preferring distinct zones.
/// Falls back to distinct devices once zones are exhausted.
fn choose_replicas(ranked: &[usize], devices: &[Device], replicas: usize) -> Vec<DeviceId> {
    let mut chosen: Vec<usize> = Vec::with_capacity(replicas);
    let mut used_zones: Vec<u8> = Vec::with_capacity(replicas);
    // Pass 1: distinct zones.
    for &i in ranked {
        if chosen.len() == replicas {
            break;
        }
        if !used_zones.contains(&devices[i].zone) {
            chosen.push(i);
            used_zones.push(devices[i].zone);
        }
    }
    // Pass 2: fill remaining with distinct devices regardless of zone.
    for &i in ranked {
        if chosen.len() == replicas {
            break;
        }
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    chosen.into_iter().map(|i| devices[i].id).collect()
}

/// Immutable partition→devices table plus key hashing.
#[derive(Debug, Clone)]
pub struct Ring {
    part_power: u8,
    replicas: usize,
    devices: Vec<Device>,
    /// Row-major `[part][replica]` flattened.
    table: Vec<DeviceId>,
}

impl Ring {
    pub fn part_power(&self) -> u8 {
        self.part_power
    }

    pub fn partitions(&self) -> usize {
        1 << self.part_power
    }

    pub fn replicas(&self) -> usize {
        self.replicas
    }

    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Partition of a key (top `part_power` bits of the key hash, like
    /// Swift).
    pub fn partition_of(&self, key: &[u8]) -> u64 {
        self.partition_of_hash(hash64_seeded(key, 0))
    }

    /// Partition of a key whose placement hash (`h2util::hash64` of the
    /// key) the caller already holds.
    pub fn partition_of_hash(&self, hash: u64) -> u64 {
        hash >> (64 - self.part_power)
    }

    /// Primary + replica devices for a partition.
    pub fn devices_for_part(&self, part: u64) -> &[DeviceId] {
        let p = part as usize;
        &self.table[p * self.replicas..(p + 1) * self.replicas]
    }

    /// Primary + replica devices for a key.
    pub fn lookup(&self, key: &[u8]) -> &[DeviceId] {
        self.devices_for_part(self.partition_of(key))
    }

    /// Fallback devices for a partition when assigned devices fail:
    /// the remaining devices in rendezvous preference order.
    pub fn handoffs(&self, part: u64) -> Vec<DeviceId> {
        let assigned = self.devices_for_part(part);
        rank_devices(&self.devices, part)
            .into_iter()
            .map(|i| self.devices[i].id)
            .filter(|id| !assigned.contains(id))
            .collect()
    }

    /// Weighted rebuild: clone this ring's topology, apply the operator's
    /// mutation (add/remove/re-weight devices) and materialise the
    /// successor ring. Rendezvous scores of untouched devices never change,
    /// so only partitions whose winner set involves a touched device move —
    /// the bounded-movement property the live migrator relies on.
    pub fn rebuild(&self, mutate: impl FnOnce(&mut RingBuilder)) -> Ring {
        let mut b = RingBuilder::from_ring(self);
        mutate(&mut b);
        b.build()
    }

    /// Partitions whose replica set (first `min(replicas)` rows) differs
    /// between two rings, ascending — exactly the partitions a rebalance
    /// must migrate.
    pub fn changed_parts(&self, other: &Ring) -> Vec<u64> {
        assert_eq!(self.part_power, other.part_power);
        let r = self.replicas.min(other.replicas);
        (0..self.partitions() as u64)
            .filter(|&p| {
                let a = self.devices_for_part(p);
                let b = other.devices_for_part(p);
                a[..r] != b[..r]
            })
            .collect()
    }

    /// Number of partitions whose replica set (first `min` rows) differs
    /// between two rings — used to verify the minimal-movement property.
    pub fn moved_partitions(&self, other: &Ring) -> usize {
        self.changed_parts(other).len()
    }

    /// Partition count per device (primaries only, or across all replica
    /// rows).
    pub fn load(&self, primaries_only: bool) -> std::collections::HashMap<DeviceId, usize> {
        let mut m = std::collections::HashMap::new();
        for d in &self.devices {
            m.insert(d.id, 0usize);
        }
        for part in 0..self.partitions() {
            let devs = &self.table[part * self.replicas..(part + 1) * self.replicas];
            let take = if primaries_only { 1 } else { self.replicas };
            for id in &devs[..take] {
                *m.get_mut(id).expect("assigned device exists") += 1;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder(n_dev: u16, zones: u8, part_power: u8, replicas: usize) -> RingBuilder {
        let mut b = RingBuilder::new(part_power, replicas);
        for i in 0..n_dev {
            b.add_device(DeviceId(i), (i % zones as u16) as u8, 1.0);
        }
        b
    }

    #[test]
    fn lookup_is_deterministic_and_complete() {
        let ring = builder(8, 4, 10, 3).build();
        let a = ring.lookup(b"/alice/docs/report.pdf").to_vec();
        let b = ring.lookup(b"/alice/docs/report.pdf").to_vec();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn replicas_land_on_distinct_devices_and_zones() {
        let ring = builder(8, 4, 8, 3).build();
        for part in 0..ring.partitions() as u64 {
            let devs = ring.devices_for_part(part);
            let ids: std::collections::HashSet<_> = devs.iter().collect();
            assert_eq!(ids.len(), 3, "duplicate device in part {part}");
            let zones: std::collections::HashSet<u8> = devs
                .iter()
                .map(|id| ring.devices().iter().find(|d| d.id == *id).unwrap().zone)
                .collect();
            assert_eq!(zones.len(), 3, "zone collision in part {part}");
        }
    }

    #[test]
    fn fewer_zones_than_replicas_still_gives_distinct_devices() {
        let ring = builder(6, 2, 8, 3).build();
        for part in 0..ring.partitions() as u64 {
            let devs = ring.devices_for_part(part);
            let uniq: std::collections::HashSet<_> = devs.iter().collect();
            assert_eq!(uniq.len(), 3);
        }
    }

    #[test]
    fn load_is_proportional_to_weight() {
        let mut b = RingBuilder::new(12, 1);
        b.add_device(DeviceId(0), 0, 1.0);
        b.add_device(DeviceId(1), 1, 2.0);
        b.add_device(DeviceId(2), 2, 1.0);
        let ring = b.build();
        let load = ring.load(true);
        let total = ring.partitions() as f64;
        let f0 = load[&DeviceId(0)] as f64 / total;
        let f1 = load[&DeviceId(1)] as f64 / total;
        assert!((f0 - 0.25).abs() < 0.03, "dev0 fraction {f0}");
        assert!((f1 - 0.50).abs() < 0.03, "dev1 fraction {f1}");
    }

    #[test]
    fn equal_weights_balance_evenly() {
        let ring = builder(8, 8, 12, 3).build();
        let load = ring.load(false);
        let expect = ring.partitions() * 3 / 8;
        for (id, &n) in &load {
            assert!(
                (n as f64 - expect as f64).abs() < expect as f64 * 0.12,
                "{id} has {n}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn adding_a_device_moves_roughly_its_share() {
        let old = builder(8, 8, 12, 3).build();
        let mut b = builder(8, 8, 12, 3);
        b.add_device(DeviceId(100), 7, 1.0);
        let new = b.build();
        let moved = old.moved_partitions(&new) as f64 / old.partitions() as f64;
        // New device owns 1/9 of primaries; replica-set changes touch up to
        // ~3× that share. Anything near a full reshuffle (→1.0) is a bug.
        assert!(moved < 0.40, "moved fraction {moved}");
        assert!(moved > 0.02, "suspiciously little movement {moved}");
    }

    #[test]
    fn removing_a_device_only_moves_its_partitions() {
        let old = builder(9, 9, 12, 1).build();
        let mut b = builder(9, 9, 12, 1);
        b.remove_device(DeviceId(4));
        let new = b.build();
        // With replicas=1 exactly the partitions owned by dev4 must move.
        let owned = old.load(true)[&DeviceId(4)];
        assert_eq!(old.moved_partitions(&new), owned);
    }

    #[test]
    fn handoffs_exclude_assigned_and_cover_rest() {
        let ring = builder(8, 4, 8, 3).build();
        let part = 5;
        let assigned = ring.devices_for_part(part).to_vec();
        let hand = ring.handoffs(part);
        assert_eq!(hand.len(), 5);
        for h in &hand {
            assert!(!assigned.contains(h));
        }
    }

    #[test]
    fn partition_of_spreads_keys() {
        let ring = builder(4, 4, 8, 2).build();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            seen.insert(ring.partition_of(format!("key-{i}").as_bytes()));
        }
        // 1000 keys into 256 partitions: expect most partitions hit.
        assert!(seen.len() > 200, "only {} partitions hit", seen.len());
    }

    #[test]
    #[should_panic(expected = "duplicate device")]
    fn duplicate_device_rejected() {
        let mut b = RingBuilder::new(8, 1);
        b.add_device(DeviceId(0), 0, 1.0);
        b.add_device(DeviceId(0), 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least as many devices")]
    fn too_few_devices_rejected() {
        let mut b = RingBuilder::new(8, 3);
        b.add_device(DeviceId(0), 0, 1.0);
        b.build();
    }

    /// Core bounded-movement property: across add / remove / re-weight
    /// rebuilds, every changed partition involves the touched device in its
    /// old or new replica set — no collateral movement — and the moved
    /// fraction is bounded by the touched device's share of total weight
    /// (times the replica count, with slack for zone-preference shifts).
    #[test]
    fn rebuild_moves_only_changed_winner_partitions() {
        let check = |old: &Ring, new: &Ring, touched: DeviceId, share: f64| {
            let changed = old.changed_parts(new);
            for &p in &changed {
                let in_old = old.devices_for_part(p).contains(&touched);
                let in_new = new.devices().iter().any(|d| d.id == touched)
                    && new.devices_for_part(p).contains(&touched);
                assert!(
                    in_old || in_new,
                    "partition {p} moved without involving {touched}"
                );
            }
            let moved = changed.len() as f64 / old.partitions() as f64;
            let bound = (old.replicas() as f64 * share * 3.0).min(1.0);
            assert!(
                moved <= bound,
                "moved {moved:.3} of partitions, bound {bound:.3} for share {share:.3}"
            );
        };
        for (n_dev, zones, replicas) in [(8u16, 8u8, 3usize), (6, 3, 3), (9, 9, 1), (5, 5, 2)] {
            let old = builder(n_dev, zones, 12, replicas).build();
            let total: f64 = old.devices().iter().map(|d| d.weight).sum();

            // Add a device (fresh zone and shared zone).
            for zone in [zones, 0] {
                let new = old.rebuild(|b| {
                    b.add_device(DeviceId(100), zone, 1.0);
                });
                check(&old, &new, DeviceId(100), 1.0 / (total + 1.0));
            }

            // Remove one device (only if enough remain for the replicas).
            if n_dev as usize > replicas {
                let new = old.rebuild(|b| {
                    assert!(b.remove_device(DeviceId(2)));
                });
                // A removed device's partitions must all move; its share of
                // *rows* is what bounds the movement.
                check(&old, &new, DeviceId(2), 1.0 / total);
            }

            // Re-weight up and down.
            for w in [2.5, 0.4] {
                let new = old.rebuild(|b| {
                    assert!(b.set_weight(DeviceId(1), w));
                });
                let delta = (w - 1.0).abs() / (total - 1.0 + w);
                // Weight-change movement tracks the share delta; keep a
                // floor on the bound so tiny deltas tolerate hash noise.
                check(&old, &new, DeviceId(1), delta.max(0.08));
            }
        }
    }

    #[test]
    fn rebuild_is_identity_when_nothing_changes() {
        let old = builder(8, 8, 10, 3).build();
        let new = old.rebuild(|_| {});
        assert_eq!(old.moved_partitions(&new), 0);
        assert!(old.changed_parts(&new).is_empty());
        assert_eq!(new.part_power(), old.part_power());
        assert_eq!(new.replicas(), old.replicas());
    }

    #[test]
    fn changed_parts_matches_moved_partitions_and_is_sorted() {
        let old = builder(8, 8, 10, 3).build();
        let new = old.rebuild(|b| {
            b.add_device(DeviceId(42), 3, 2.0);
        });
        let changed = old.changed_parts(&new);
        assert_eq!(changed.len(), old.moved_partitions(&new));
        assert!(changed.windows(2).all(|w| w[0] < w[1]), "not ascending");
        // Every listed partition genuinely differs; every unlisted one is
        // identical.
        for p in 0..old.partitions() as u64 {
            let differs = old.devices_for_part(p) != new.devices_for_part(p);
            assert_eq!(differs, changed.binary_search(&p).is_ok(), "part {p}");
        }
    }

    #[test]
    fn set_weight_shifts_load() {
        let mut b = builder(4, 4, 12, 1);
        let even = b.build();
        assert!(b.set_weight(DeviceId(0), 3.0));
        let skewed = b.build();
        assert!(
            skewed.load(true)[&DeviceId(0)] > even.load(true)[&DeviceId(0)] * 3 / 2,
            "weight increase did not attract partitions"
        );
        assert!(!b.set_weight(DeviceId(99), 1.0));
    }
}
