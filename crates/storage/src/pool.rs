//! The LRU [`BufferPool`] and the [`PageSource`]s it faults pages from.
//!
//! Integrity contract of the verified path
//! ([`BufferPool::get_verified`]): every access computes the page CRC
//! exactly once. A resident hit re-verifies its frame before serving it,
//! so a frame that rotted while cached is evicted and re-read as a miss,
//! never served; a miss verifies the freshly read bytes before admitting
//! them, so a damaged source copy is a typed
//! [`SnapshotError::ChecksumMismatch`] naming the page and is never
//! cached.

use crate::snapshot::{page_checksum_ok, SnapshotError, SnapshotRegion};
use crate::{PageId, SimulatedDisk};
use std::collections::{BTreeMap, HashMap};

/// A backing store the [`BufferPool`] can fault sealed pages from.
///
/// Implementations return the **sealed** page — full transfer unit with
/// the embedded CRC trailer in place — so the pool can re-verify the
/// seal on every access, resident or not. Verification lives in the pool
/// (not the source) on purpose: a source that pre-verified and stripped
/// the seal would force the pool to trust frames that may have rotted
/// while cached.
pub trait PageSource {
    /// Fetch the sealed bytes of `id`, charging whatever cost model the
    /// source keeps. I/O-level failures (short file, unreadable page)
    /// surface as typed [`SnapshotError`]s; checksum verification is the
    /// pool's job, not the source's.
    fn read_sealed_page(&mut self, id: PageId) -> Result<Box<[u8]>, SnapshotError>;
}

impl PageSource for SimulatedDisk {
    fn read_sealed_page(&mut self, id: PageId) -> Result<Box<[u8]>, SnapshotError> {
        Ok(self.read_page(id).into())
    }
}

impl PageSource for crate::SnapshotReader {
    fn read_sealed_page(&mut self, id: PageId) -> Result<Box<[u8]>, SnapshotError> {
        crate::SnapshotReader::read_sealed_page(self, id.0).map(Vec::into_boxed_slice)
    }
}

/// An LRU page cache in front of a [`SimulatedDisk`].
///
/// Stands in for the OS page cache the paper's experiments rely on
/// ("we leave caching up to the operating system and the disk drive").
/// Hits are free; misses read through to the disk (charging it a
/// sequential or random access) and evict the least recently used frame
/// when full. Every access stamps its frame with a fresh tick of a
/// logical clock, and a recency index keyed by that tick finds the victim
/// in O(log n) instead of a scan over every frame.
///
/// Pages sealed with an embedded CRC (see
/// [`seal_page`](crate::snapshot::seal_page)) can be fetched through
/// [`get_verified`](Self::get_verified), which checks the checksum
/// exactly once on every access — the resident frame on a hit, the
/// freshly read bytes on a miss, before they are admitted. A resident
/// frame that fails verification is **not** a hit: it is evicted and the
/// page re-read from disk as a miss, so the hit ratio never counts reads
/// that had to fall back to the disk.
pub struct BufferPool {
    capacity: usize,
    frames: HashMap<PageId, Frame>,
    /// Every resident frame by its `last_used` tick. Ticks are unique, so
    /// the first entry is always the one LRU victim.
    recency: BTreeMap<u64, PageId>,
    clock: u64,
    hits: u64,
    misses: u64,
    checksum_evictions: u64,
}

struct Frame {
    data: Box<[u8]>,
    last_used: u64,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            capacity,
            frames: HashMap::with_capacity(capacity),
            recency: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            checksum_evictions: 0,
        }
    }

    fn evict_if_full(&mut self) {
        if self.frames.len() >= self.capacity {
            if let Some((_, victim)) = self.recency.pop_first() {
                self.frames.remove(&victim);
            }
        }
    }

    /// Serve resident frame `id`, restamping it as most recently used at
    /// `clock`.
    fn touch(&mut self, id: PageId, clock: u64) -> Option<&[u8]> {
        let f = self.frames.get_mut(&id)?;
        self.recency.remove(&f.last_used);
        self.recency.insert(clock, id);
        f.last_used = clock;
        Some(&f.data)
    }

    /// Read `id` from the source into a frame, evicting first if needed.
    /// With `verify`, the freshly read bytes are checked against their
    /// embedded CRC before they are cached: a damaged source copy is
    /// never admitted, so its bytes cannot later be served as a hit.
    fn admit<S: PageSource + ?Sized>(
        &mut self,
        src: &mut S,
        id: PageId,
        clock: u64,
        verify: bool,
    ) -> Result<(), SnapshotError> {
        self.evict_if_full();
        let data = src.read_sealed_page(id)?;
        if verify && !page_checksum_ok(&data) {
            return Err(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(id.0),
            });
        }
        self.recency.insert(clock, id);
        self.frames.insert(
            id,
            Frame {
                data,
                last_used: clock,
            },
        );
        Ok(())
    }

    /// Fetch a page through the cache. On a miss the disk is charged and
    /// the LRU frame evicted if the pool is full.
    pub fn get(&mut self, disk: &mut SimulatedDisk, id: PageId) -> &[u8] {
        self.clock += 1;
        let clock = self.clock;
        if self.frames.contains_key(&id) {
            self.hits += 1;
        } else {
            self.misses += 1;
            // SimulatedDisk's PageSource impl cannot fail; on the
            // impossible error path the frame is simply absent and the
            // fallback below serves an empty page.
            let _infallible = self.admit(disk, id, clock, false);
        }
        // Present on both paths; the empty fallback is unreachable.
        self.touch(id, clock).unwrap_or(&[])
    }

    /// Fetch a CRC-sealed page through the cache, verifying the embedded
    /// checksum exactly once per access: a resident frame is re-verified
    /// before it is served as a hit, a freshly read page before it is
    /// admitted. Generic over the [`PageSource`] backing the pool — the
    /// in-memory [`SimulatedDisk`] and the real-file
    /// [`SnapshotReader`](crate::SnapshotReader) both qualify.
    ///
    /// A resident frame that fails verification does **not** count as a
    /// hit: the stale frame is evicted (tallied in
    /// [`checksum_evictions`](Self::checksum_evictions)) and the page is
    /// re-read from the source as a miss. If the source copy itself fails
    /// verification, nothing is cached and a typed
    /// [`SnapshotError::ChecksumMismatch`] is returned.
    pub fn get_verified<S: PageSource + ?Sized>(
        &mut self,
        disk: &mut S,
        id: PageId,
    ) -> Result<&[u8], SnapshotError> {
        self.clock += 1;
        let clock = self.clock;
        let resident = self.frames.get(&id).map(|f| page_checksum_ok(&f.data));
        match resident {
            Some(true) => self.hits += 1,
            Some(false) => {
                // The frame went bad while cached: never a hit, never
                // served.
                self.checksum_evictions += 1;
                if let Some(f) = self.frames.remove(&id) {
                    self.recency.remove(&f.last_used);
                }
                self.misses += 1;
                self.admit(disk, id, clock, true)?;
            }
            None => {
                self.misses += 1;
                self.admit(disk, id, clock, true)?;
            }
        }
        // Every path that reaches here left a verified frame; a missing
        // one is reported as unverified rather than served.
        self.touch(id, clock)
            .ok_or(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(id.0),
            })
    }

    /// Corrupt a resident frame in place (fault injection for tests and
    /// cache-integrity experiments). Returns `false` if `id` is not
    /// resident.
    pub fn poison_resident(&mut self, id: PageId) -> bool {
        match self.frames.get_mut(&id) {
            Some(f) if !f.data.is_empty() => {
                // lint: allow — index 0 of a frame proved non-empty above.
                f.data[0] ^= 0xFF;
                true
            }
            _ => false,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident frames evicted because their checksum no longer
    /// verified.
    pub fn checksum_evictions(&self) -> u64 {
        self.checksum_evictions
    }

    /// Fraction of accesses served from the cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            // lint: allow — f64 division, divisor proved non-zero above.
            self.hits as f64 / total as f64
        }
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Drop every frame and forget statistics.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.recency.clear();
        self.hits = 0;
        self.misses = 0;
        self.checksum_evictions = 0;
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::seal_page;

    fn disk_with(n: u8) -> (SimulatedDisk, Vec<PageId>) {
        let mut d = SimulatedDisk::new(8);
        let ids = (0..n).map(|i| d.write_page(&[i])).collect();
        (d, ids)
    }

    fn sealed_disk_with(n: u8) -> (SimulatedDisk, Vec<PageId>) {
        let mut d = SimulatedDisk::new(64);
        let ids = (0..n)
            .map(|i| d.write_page(&seal_page(&[i; 16], 64)))
            .collect();
        (d, ids)
    }

    #[test]
    fn caches_repeated_reads() {
        let (mut d, ids) = disk_with(3);
        d.reset_stats();
        let mut pool = BufferPool::new(4);
        for _ in 0..10 {
            pool.get(&mut d, ids[0]);
        }
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 9);
        assert_eq!(d.stats().total_reads(), 1, "disk touched once");
    }

    #[test]
    fn evicts_lru_when_full() {
        let (mut d, ids) = disk_with(3);
        let mut pool = BufferPool::new(2);
        pool.get(&mut d, ids[0]);
        pool.get(&mut d, ids[1]);
        pool.get(&mut d, ids[0]); // 0 now more recent than 1
        pool.get(&mut d, ids[2]); // evicts 1
        assert_eq!(pool.resident(), 2);
        d.reset_stats();
        pool.get(&mut d, ids[0]); // hit
        assert_eq!(d.stats().total_reads(), 0);
        pool.get(&mut d, ids[1]); // miss: was evicted
        assert_eq!(d.stats().total_reads(), 1);
    }

    #[test]
    fn hit_ratio_tracks() {
        let (mut d, ids) = disk_with(2);
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.hit_ratio(), 0.0);
        pool.get(&mut d, ids[0]);
        pool.get(&mut d, ids[0]);
        assert!((pool.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn returned_data_is_page_content() {
        let (mut d, ids) = disk_with(3);
        let mut pool = BufferPool::new(1);
        assert_eq!(pool.get(&mut d, ids[2])[0], 2);
        assert_eq!(pool.get(&mut d, ids[1])[0], 1);
        assert_eq!(pool.get(&mut d, ids[2])[0], 2); // refetched after eviction
    }

    #[test]
    fn clear_resets_everything() {
        let (mut d, ids) = disk_with(1);
        let mut pool = BufferPool::new(2);
        pool.get(&mut d, ids[0]);
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.hits() + pool.misses(), 0);
        assert_eq!(pool.checksum_evictions(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        let _ = BufferPool::new(0);
    }

    #[test]
    fn verified_get_serves_sealed_pages() {
        let (mut d, ids) = sealed_disk_with(3);
        d.reset_stats();
        let mut pool = BufferPool::new(2);
        let page = pool.get_verified(&mut d, ids[1]).expect("clean page");
        assert_eq!(page[0], 1);
        assert_eq!(pool.misses(), 1);
        let page = pool.get_verified(&mut d, ids[1]).expect("cached page");
        assert_eq!(page[0], 1);
        assert_eq!(pool.hits(), 1);
        assert_eq!(d.stats().total_reads(), 1);
    }

    #[test]
    fn checksum_failed_resident_frame_is_not_a_hit() {
        // Regression test: a resident frame whose checksum no longer
        // verifies used to be counted as a hit and served as-is. It must
        // instead be evicted, re-read from disk, and counted as a miss.
        let (mut d, ids) = sealed_disk_with(2);
        let mut pool = BufferPool::new(2);
        pool.get_verified(&mut d, ids[0]).expect("clean load");
        assert_eq!((pool.hits(), pool.misses()), (0, 1));

        assert!(pool.poison_resident(ids[0]));
        d.reset_stats();
        let page = pool
            .get_verified(&mut d, ids[0])
            .expect("disk copy is clean");
        assert_eq!(page[0], 0, "served bytes come from the clean disk copy");
        assert_eq!(pool.hits(), 0, "a checksum-failed frame must not be a hit");
        assert_eq!(pool.misses(), 2, "the fallback read is a miss");
        assert_eq!(pool.checksum_evictions(), 1);
        assert_eq!(d.stats().total_reads(), 1, "page re-read from disk");

        // And the healed frame is a genuine hit afterwards.
        pool.get_verified(&mut d, ids[0]).expect("healed frame");
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn corrupt_disk_copy_is_a_typed_error_and_not_cached() {
        let (mut d, ids) = sealed_disk_with(2);
        let mut bad = vec![0u8; 64];
        bad[5] = 7; // no valid embedded CRC
        d.overwrite_page(ids[0], &bad);
        let mut pool = BufferPool::new(2);
        let err = pool.get_verified(&mut d, ids[0]).expect_err("corrupt page");
        assert!(matches!(
            err,
            SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(n)
            } if n == ids[0].0
        ));
        assert_eq!(pool.resident(), 0, "damaged bytes must not stay cached");
        // The clean sibling page still loads fine.
        assert!(pool.get_verified(&mut d, ids[1]).is_ok());
    }

    /// The textbook LRU the recency index must reproduce: residents in
    /// recency order, least recent first, found by linear search.
    struct ReferenceLru {
        capacity: usize,
        order: Vec<PageId>,
        hits: u64,
        misses: u64,
    }

    impl ReferenceLru {
        fn access(&mut self, id: PageId, rotted: bool) {
            match self.order.iter().position(|&p| p == id) {
                Some(i) => {
                    self.order.remove(i);
                    if rotted {
                        // A rotted frame is dropped and re-read: a miss
                        // that evicts nobody, since its own slot freed up.
                        self.misses += 1;
                    } else {
                        self.hits += 1;
                    }
                }
                None => {
                    self.misses += 1;
                    if self.order.len() >= self.capacity {
                        self.order.remove(0);
                    }
                }
            }
            self.order.push(id);
        }
    }

    #[test]
    fn recency_index_matches_reference_lru_at_every_step() {
        let (mut d, ids) = sealed_disk_with(12);
        let mut pool = BufferPool::new(5);
        let mut reference = ReferenceLru {
            capacity: 5,
            order: Vec::new(),
            hits: 0,
            misses: 0,
        };
        // A fixed trace with locality: a splitmix-style generator picks
        // mostly among four hot pages, sometimes among all twelve.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..3_000u32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let r = (state >> 33) as usize;
            let page = if r % 3 == 0 { r % 12 } else { r % 4 };
            let id = ids[page];
            // Every 97th step first rots the page's frame (if resident),
            // so the checksum-eviction path must keep the index in sync.
            let rotted = step % 97 == 0 && pool.poison_resident(id);
            if step % 2 == 0 {
                pool.get_verified(&mut d, id).expect("clean disk copy");
            } else if !rotted {
                pool.get(&mut d, id);
            } else {
                // The unverified path would serve the rot; heal it first.
                pool.get_verified(&mut d, id).expect("clean disk copy");
            }
            reference.access(id, rotted);

            let mut resident: Vec<PageId> = pool.frames.keys().copied().collect();
            resident.sort_by_key(|p| p.0);
            let mut expected = reference.order.clone();
            expected.sort_by_key(|p| p.0);
            assert_eq!(resident, expected, "residency diverged at step {step}");
            assert_eq!(
                (pool.hits(), pool.misses()),
                (reference.hits, reference.misses),
                "counters diverged at step {step}"
            );
            let by_recency: Vec<PageId> = pool.recency.values().copied().collect();
            assert_eq!(by_recency, reference.order, "recency order at step {step}");
        }
        assert!(
            reference.hits > 0 && reference.misses > 12,
            "trace too tame"
        );
    }

    #[test]
    fn unverified_get_still_serves_poisoned_frames() {
        // get() is the checksum-oblivious path; only get_verified()
        // re-reads. This pins the behavioural difference.
        let (mut d, ids) = sealed_disk_with(1);
        let mut pool = BufferPool::new(1);
        pool.get(&mut d, ids[0]);
        pool.poison_resident(ids[0]);
        d.reset_stats();
        let page = pool.get(&mut d, ids[0]);
        assert_eq!(page[0], 0xFF, "unverified path serves the cached bytes");
        assert_eq!(d.stats().total_reads(), 0);
        assert_eq!(pool.hits(), 1);
    }
}
