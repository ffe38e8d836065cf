//! A generic set-associative tag array with LRU replacement.

use ar_types::json::{Json, JsonError};
use ar_types::Addr;

/// A line evicted from a [`CacheArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Block-aligned address of the evicted line.
    pub addr: Addr,
    /// Whether the line was dirty (requires a writeback).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: u64,
    dirty: bool,
    last_used: u64,
}

/// `CacheArray::start` value of a set that has never held a line.
const UNFILLED: u32 = u32::MAX;

/// A set-associative cache tag array with true-LRU replacement.
///
/// The array tracks presence and dirtiness only; coherence state lives in the
/// directory of the [`crate::hierarchy::CacheHierarchy`].
///
/// A set's ways materialise the first time it takes a line: building an
/// array allocates one start index per set, and the line store grows by
/// `ways` empty slots per filled set, so a run whose footprint is a small
/// part of a 16 MiB L2 never builds or frees the rest. An unfilled set
/// behaves exactly like a set of empty ways.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// The ways of every filled set, `ways` slots each, in first-fill order.
    lines: Vec<Option<Line>>,
    /// Per set, the index in `lines` of its first way, or [`UNFILLED`].
    start: Vec<u32>,
    ways: usize,
    block_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl CacheArray {
    /// Creates an array with the given total capacity, associativity and
    /// block size.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways * block_bytes`
    /// or any parameter is zero.
    pub fn new(capacity_bytes: usize, ways: usize, block_bytes: usize) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && block_bytes > 0, "parameters must be non-zero");
        let blocks = capacity_bytes / block_bytes;
        assert!(blocks >= ways, "capacity too small for associativity");
        let num_sets = (blocks / ways).max(1);
        assert!(num_sets * ways < UNFILLED as usize, "too many lines to index with u32");
        CacheArray {
            lines: Vec::new(),
            start: vec![UNFILLED; num_sets],
            ways,
            block_bytes: block_bytes as u64,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn block_of(&self, addr: Addr) -> u64 {
        addr.as_u64() / self.block_bytes
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.start.len() as u64) as usize
    }

    /// The ways of `set`; empty while the set is unfilled.
    fn ways_of(&self, set: usize) -> &[Option<Line>] {
        match self.start[set] {
            UNFILLED => &[],
            first => &self.lines[first as usize..first as usize + self.ways],
        }
    }

    fn ways_of_mut(&mut self, set: usize) -> &mut [Option<Line>] {
        match self.start[set] {
            UNFILLED => &mut [],
            first => &mut self.lines[first as usize..first as usize + self.ways],
        }
    }

    /// The line holding `block`, if present.
    fn line_mut(&mut self, block: u64) -> Option<&mut Line> {
        let set = self.set_of(block);
        self.ways_of_mut(set).iter_mut().flatten().find(|l| l.block == block)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.start.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Looks up `addr`; on a hit updates LRU state (and dirtiness for writes)
    /// and returns true.
    pub fn access(&mut self, addr: Addr, write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.line_mut(self.block_of(addr)) {
            Some(line) => {
                line.last_used = tick;
                line.dirty |= write;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Returns true if `addr` is present, without touching LRU state.
    pub fn probe(&self, addr: Addr) -> bool {
        let block = self.block_of(addr);
        self.ways_of(self.set_of(block)).iter().flatten().any(|l| l.block == block)
    }

    /// Inserts `addr` (after a miss), evicting the LRU line of the set if the
    /// set is full. Returns the evicted line, if any.
    pub fn insert(&mut self, addr: Addr, dirty: bool) -> Option<EvictedLine> {
        self.tick += 1;
        let block = self.block_of(addr);
        let set = self.set_of(block);
        let line = Line { block, dirty, last_used: self.tick };
        if self.start[set] == UNFILLED {
            self.start[set] = self.lines.len() as u32;
            self.lines.resize(self.lines.len() + self.ways, None);
        }
        let ways = self.ways_of_mut(set);
        // Already present (racing insert): just update.
        if let Some(present) = ways.iter_mut().flatten().find(|l| l.block == block) {
            present.dirty |= dirty;
            present.last_used = line.last_used;
            return None;
        }
        // Free way?
        if let Some(slot) = ways.iter_mut().find(|w| w.is_none()) {
            *slot = Some(line);
            return None;
        }
        // Evict LRU.
        let lru = ways.iter_mut().flatten().min_by_key(|l| l.last_used).expect("set has ways");
        let victim = std::mem::replace(lru, line);
        Some(EvictedLine { addr: Addr::new(victim.block * self.block_bytes), dirty: victim.dirty })
    }

    /// Removes `addr` from the array if present; returns the removed line.
    pub fn invalidate(&mut self, addr: Addr) -> Option<EvictedLine> {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        let way = self.ways_of_mut(set).iter_mut().find(|w| w.is_some_and(|l| l.block == block))?;
        let line = way.take().expect("matched an occupied way");
        Some(EvictedLine { addr: Addr::new(line.block * self.block_bytes), dirty: line.dirty })
    }

    /// Marks `addr` dirty if present. Returns true if it was present.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        self.line_mut(self.block_of(addr)).map(|line| line.dirty = true).is_some()
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().flatten().count()
    }

    /// Serializes the array's dynamic state (lines, LRU tick, counters).
    /// Geometry is configuration and travels as code. An unfilled set
    /// renders as `ways` nulls, like a filled set whose lines all left.
    pub fn state_to_json(&self) -> Json {
        let line = |l: &Line| {
            Json::obj([
                ("block", Json::hex_u64(l.block)),
                ("dirty", Json::from(l.dirty)),
                ("last_used", Json::from(l.last_used)),
            ])
        };
        Json::obj([
            (
                "sets",
                Json::Arr(
                    (0..self.sets())
                        .map(|set| {
                            let ways = self.ways_of(set);
                            Json::Arr(
                                (0..self.ways)
                                    .map(|w| {
                                        ways.get(w)
                                            .and_then(Option::as_ref)
                                            .map_or(Json::Null, line)
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            ("tick", Json::from(self.tick)),
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
        ])
    }

    /// Restores dynamic state onto a freshly constructed array. Only sets
    /// that hold a line are filled.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed, its geometry
    /// (set count, ways per set) disagrees with this array's configuration,
    /// or a set holds a line no run could have put there: a block that maps
    /// to another set, the same block twice, or a `last_used` outside
    /// `1..=tick`.
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        let tick = doc.req_u64("tick")?;
        let sets = doc.req_array("sets")?;
        if sets.len() != self.sets() {
            return Err(JsonError::state(format!(
                "checkpoint has {} cache sets but the array is configured with {}",
                sets.len(),
                self.sets()
            )));
        }
        self.lines.clear();
        self.start.fill(UNFILLED);
        for (set, ways) in sets.iter().enumerate() {
            let ways = ways
                .as_array()
                .ok_or_else(|| JsonError::state("cache set is not an array of ways"))?;
            if ways.len() != self.ways {
                return Err(JsonError::state(format!(
                    "checkpoint set has {} ways but the array is configured with {}",
                    ways.len(),
                    self.ways
                )));
            }
            if ways.iter().all(|way| matches!(way, Json::Null)) {
                continue;
            }
            let first = self.lines.len();
            for doc in ways {
                let line = match doc {
                    Json::Null => None,
                    doc => Some(Line {
                        block: doc.req_hex_u64("block")?,
                        dirty: doc.req_bool("dirty")?,
                        last_used: doc.req_u64("last_used")?,
                    }),
                };
                if let Some(line) = line {
                    let home = self.set_of(line.block);
                    if home != set {
                        return Err(JsonError::state(format!(
                            "cache set {set} holds block {:#x}, which maps to set {home}",
                            line.block
                        )));
                    }
                    if self.lines[first..].iter().flatten().any(|l| l.block == line.block) {
                        return Err(JsonError::state(format!(
                            "cache set {set} holds block {:#x} twice",
                            line.block
                        )));
                    }
                    if line.last_used == 0 || line.last_used > tick {
                        return Err(JsonError::state(format!(
                            "cache set {set} holds a line last used at tick {}, outside \
                             1..={tick}",
                            line.last_used
                        )));
                    }
                }
                self.lines.push(line);
            }
            self.start[set] = first as u32;
        }
        self.tick = tick;
        self.hits = doc.req_u64("hits")?;
        self.misses = doc.req_u64("misses")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = CacheArray::new(1024, 4, 64);
        assert!(!c.access(Addr::new(0x100), false));
        c.insert(Addr::new(0x100), false);
        assert!(c.access(Addr::new(0x100), false));
        assert!(c.probe(Addr::new(0x13f)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_picks_least_recently_used() {
        // 4 blocks capacity, 2 ways, 64B blocks -> 2 sets.
        let mut c = CacheArray::new(256, 2, 64);
        // All these map to set 0: blocks 0, 2, 4 (even block indices).
        c.insert(Addr::new(0), false);
        c.insert(Addr::new(128), false);
        // Touch block 0 so block 2 (addr 128) becomes LRU.
        assert!(c.access(Addr::new(0), false));
        let evicted = c.insert(Addr::new(256), false).expect("must evict");
        assert_eq!(evicted.addr, Addr::new(128));
        assert!(!evicted.dirty);
        assert!(c.probe(Addr::new(0)));
        assert!(!c.probe(Addr::new(128)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = CacheArray::new(128, 1, 64);
        c.insert(Addr::new(0), false);
        assert!(c.access(Addr::new(0), true)); // dirty it
        let evicted = c.insert(Addr::new(128), false).expect("conflict evicts");
        assert!(evicted.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = CacheArray::new(1024, 4, 64);
        c.insert(Addr::new(0x40), true);
        let removed = c.invalidate(Addr::new(0x40)).expect("present");
        assert!(removed.dirty);
        assert!(!c.probe(Addr::new(0x40)));
        assert!(c.invalidate(Addr::new(0x40)).is_none());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn insert_existing_does_not_evict() {
        let mut c = CacheArray::new(128, 1, 64);
        c.insert(Addr::new(0), false);
        assert!(c.insert(Addr::new(0), true).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn mark_dirty_only_when_present() {
        let mut c = CacheArray::new(1024, 4, 64);
        assert!(!c.mark_dirty(Addr::new(0)));
        c.insert(Addr::new(0), false);
        assert!(c.mark_dirty(Addr::new(0)));
        let e = c.invalidate(Addr::new(0)).unwrap();
        assert!(e.dirty);
    }

    #[test]
    fn geometry_accessors() {
        let c = CacheArray::new(16 * 1024, 4, 64);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn untouched_sets_miss_and_render_as_empty_ways() {
        let mut c = CacheArray::new(256, 2, 64);
        assert!(!c.probe(Addr::new(64)));
        assert!(!c.access(Addr::new(64), true));
        assert!(c.invalidate(Addr::new(64)).is_none());
        assert!(!c.mark_dirty(Addr::new(64)));
        c.insert(Addr::new(0), false);
        assert_eq!(c.lines.len(), 2, "only set 0 is filled");
        let sets = c.state_to_json();
        assert_eq!(sets.req_array("sets").unwrap()[1], Json::Arr(vec![Json::Null, Json::Null]));
    }

    /// A two-set, two-way array state holding `(set, way, block, last_used)`
    /// lines at `tick`.
    fn state_with(tick: u64, lines: &[(usize, usize, u64, u64)]) -> Json {
        let mut sets = vec![vec![Json::Null, Json::Null]; 2];
        for &(set, way, block, last_used) in lines {
            sets[set][way] = Json::obj([
                ("block", Json::hex_u64(block)),
                ("dirty", Json::from(false)),
                ("last_used", Json::from(last_used)),
            ]);
        }
        Json::obj([
            ("sets", Json::arr(sets.into_iter().map(Json::Arr))),
            ("tick", Json::from(tick)),
            ("hits", Json::from(0u64)),
            ("misses", Json::from(0u64)),
        ])
    }

    #[test]
    fn load_state_rejects_lines_no_run_could_hold() {
        let cases: [(&str, Json, Option<&str>); 5] = [
            ("well formed", state_with(5, &[(0, 1, 2, 4), (1, 0, 3, 5)]), None),
            (
                "block in a set it does not map to",
                state_with(5, &[(0, 0, 1, 2)]),
                Some("cache set 0 holds block 0x1, which maps to set 1"),
            ),
            (
                "same block twice in a set",
                state_with(5, &[(1, 0, 3, 2), (1, 1, 3, 4)]),
                Some("cache set 1 holds block 0x3 twice"),
            ),
            (
                "last used at tick 0",
                state_with(5, &[(1, 1, 5, 0)]),
                Some("cache set 1 holds a line last used at tick 0, outside 1..=5"),
            ),
            (
                "last used after the restored tick",
                state_with(5, &[(0, 0, 4, 6)]),
                Some("cache set 0 holds a line last used at tick 6, outside 1..=5"),
            ),
        ];
        for (name, doc, expected) in cases {
            let mut c = CacheArray::new(256, 2, 64);
            match (c.load_state(&doc), expected) {
                (Ok(()), None) => assert_eq!(c.state_to_json(), doc, "{name}: round trip"),
                (Err(err), Some(expected)) => {
                    assert!(err.to_string().contains(expected), "{name}: got {err}")
                }
                (result, _) => panic!("{name}: unexpected {result:?}"),
            }
        }
    }

    /// The tag store the flat one replaced: one `Vec` of ways per set, all
    /// allocated up front. The pin test below drives both side by side.
    struct ReferenceArray {
        sets: Vec<Vec<Option<Line>>>,
        block_bytes: u64,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl ReferenceArray {
        fn new(capacity_bytes: usize, ways: usize, block_bytes: usize) -> Self {
            let num_sets = (capacity_bytes / block_bytes / ways).max(1);
            ReferenceArray {
                sets: vec![vec![None; ways]; num_sets],
                block_bytes: block_bytes as u64,
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn locate(&self, addr: Addr) -> (u64, usize) {
            let block = addr.as_u64() / self.block_bytes;
            (block, (block % self.sets.len() as u64) as usize)
        }

        fn access(&mut self, addr: Addr, write: bool) -> bool {
            self.tick += 1;
            let (block, set) = self.locate(addr);
            for way in self.sets[set].iter_mut().flatten() {
                if way.block == block {
                    way.last_used = self.tick;
                    way.dirty |= write;
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            false
        }

        fn probe(&self, addr: Addr) -> bool {
            let (block, set) = self.locate(addr);
            self.sets[set].iter().flatten().any(|l| l.block == block)
        }

        fn insert(&mut self, addr: Addr, dirty: bool) -> Option<EvictedLine> {
            self.tick += 1;
            let (block, set) = self.locate(addr);
            for way in self.sets[set].iter_mut().flatten() {
                if way.block == block {
                    way.dirty |= dirty;
                    way.last_used = self.tick;
                    return None;
                }
            }
            if let Some(slot) = self.sets[set].iter_mut().find(|w| w.is_none()) {
                *slot = Some(Line { block, dirty, last_used: self.tick });
                return None;
            }
            let lru_idx = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.map(|l| l.last_used).unwrap_or(0))
                .map(|(i, _)| i)
                .expect("set has ways");
            let victim = self.sets[set][lru_idx].expect("occupied");
            self.sets[set][lru_idx] = Some(Line { block, dirty, last_used: self.tick });
            Some(EvictedLine {
                addr: Addr::new(victim.block * self.block_bytes),
                dirty: victim.dirty,
            })
        }

        fn invalidate(&mut self, addr: Addr) -> Option<EvictedLine> {
            let (block, set) = self.locate(addr);
            for way in self.sets[set].iter_mut() {
                if let Some(line) = way {
                    if line.block == block {
                        let out = EvictedLine {
                            addr: Addr::new(line.block * self.block_bytes),
                            dirty: line.dirty,
                        };
                        *way = None;
                        return Some(out);
                    }
                }
            }
            None
        }

        fn mark_dirty(&mut self, addr: Addr) -> bool {
            let (block, set) = self.locate(addr);
            for way in self.sets[set].iter_mut().flatten() {
                if way.block == block {
                    way.dirty = true;
                    return true;
                }
            }
            false
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(|s| s.iter().flatten().count()).sum()
        }

        fn state_to_json(&self) -> Json {
            let line = |l: &Line| {
                Json::obj([
                    ("block", Json::hex_u64(l.block)),
                    ("dirty", Json::from(l.dirty)),
                    ("last_used", Json::from(l.last_used)),
                ])
            };
            Json::obj([
                (
                    "sets",
                    Json::arr(self.sets.iter().map(|set| {
                        Json::arr(set.iter().map(|way| way.as_ref().map_or(Json::Null, line)))
                    })),
                ),
                ("tick", Json::from(self.tick)),
                ("hits", Json::from(self.hits)),
                ("misses", Json::from(self.misses)),
            ])
        }

        fn load_state(&mut self, doc: &Json) {
            for (set, ways) in self.sets.iter_mut().zip(doc.req_array("sets").unwrap()) {
                for (way, doc) in set.iter_mut().zip(ways.as_array().unwrap()) {
                    *way = match doc {
                        Json::Null => None,
                        doc => Some(Line {
                            block: doc.req_hex_u64("block").unwrap(),
                            dirty: doc.req_bool("dirty").unwrap(),
                            last_used: doc.req_u64("last_used").unwrap(),
                        }),
                    };
                }
            }
            self.tick = doc.req_u64("tick").unwrap();
            self.hits = doc.req_u64("hits").unwrap();
            self.misses = doc.req_u64("misses").unwrap();
        }
    }

    #[test]
    fn flat_store_matches_the_per_set_reference() {
        // (capacity, ways): 1-way, the paper L1 and one 16-way bank of the
        // paper's 16-bank 16 MiB L2.
        for (seed, (capacity, ways)) in
            [(4 * 1024, 1), (16 * 1024, 4), (1024 * 1024, 16)].into_iter().enumerate()
        {
            let mut rng = ar_sim::SimRng::seed_from_u64(0xcac4e + seed as u64);
            let mut flat = CacheArray::new(capacity, ways, 64);
            let mut reference = ReferenceArray::new(capacity, ways, 64);
            let sets = flat.sets() as u64;
            // Half the traffic goes to eight hot sets, so they fill and evict;
            // the rest spreads over every set, most of which stay unfilled.
            let hot: Vec<u64> = (0..8).map(|_| rng.next_below(sets)).collect();
            let steps = 6_000;
            for step in 0..steps {
                let set =
                    if rng.chance(0.5) { hot[rng.index(hot.len())] } else { rng.next_below(sets) };
                let tag = rng.next_below(2 * ways as u64 + 1);
                let addr = Addr::new((tag * sets + set) * 64 + rng.next_below(64));
                let write = rng.chance(0.3);
                let context = || format!("seed {seed}, step {step}, {addr:?}");
                macro_rules! both {
                    ($method:ident($($arg:expr),*)) => {
                        assert_eq!(
                            flat.$method($($arg),*),
                            reference.$method($($arg),*),
                            "{}",
                            context()
                        )
                    };
                }
                match rng.next_below(5) {
                    0 => both!(access(addr, write)),
                    1 => both!(insert(addr, write)),
                    2 => both!(invalidate(addr)),
                    3 => both!(mark_dirty(addr)),
                    _ => both!(probe(addr)),
                }
                if step % 16 == 15 {
                    assert_eq!(flat.occupancy(), reference.occupancy(), "{}", context());
                }
                if step % 1_000 == 999 {
                    let state = flat.state_to_json();
                    assert_eq!(state, reference.state_to_json(), "{}", context());
                    if step == steps / 2 - 1 {
                        flat = CacheArray::new(capacity, ways, 64);
                        flat.load_state(&state).expect("a run's own state restores");
                        reference = ReferenceArray::new(capacity, ways, 64);
                        reference.load_state(&state);
                        assert_eq!(flat.state_to_json(), state, "{}", context());
                    }
                }
            }
            assert_eq!((flat.hits(), flat.misses()), (reference.hits, reference.misses));
        }
    }
}
