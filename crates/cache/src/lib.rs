//! Set-associative cache arrays for the TokenCMP coherence simulator.
//!
//! The protocols keep *stable* per-block coherence state in a [`SetAssoc`]
//! array (tags + state, true-LRU replacement) and transient (in-flight)
//! state in their own MSHR-like maps. The array is generic over the state
//! type so the token substrate and the directory protocol share it.
//!
//! The backing store is paged: pages allocate lazily on first touch, so
//! an idle 8 MB L2 bank in a 1024-core system costs a few hundred bytes
//! instead of megabytes, and a simulated system's footprint scales with
//! the *touched* working set rather than with aggregate cache capacity
//! ([`SetAssoc::resident_bytes`] reports the actual cost). Each page
//! keeps its tags apart from its line state, so a probe that misses
//! reads one word per way and no line state.

use std::fmt;
use std::mem::size_of;

use tokencmp_proto::Block;

/// What happened on an [`SetAssoc::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome<S> {
    /// The block was not present and a free way existed.
    Inserted,
    /// The block was already present; its previous state is returned.
    Replaced(S),
    /// The block was not present; the LRU victim was evicted to make room.
    Evicted(Block, S),
}

/// The tag of a free way. No resident block carries it, so a tag scan
/// needs no valid bit; [`SetAssoc::insert`] refuses `Block(EMPTY)`.
const EMPTY: u64 = u64::MAX;

/// An occupied way's line state (its block is the way's tag).
#[derive(Debug, Clone)]
struct LineSlot<S> {
    state: S,
    stamp: u64,
    /// This slot's position in the `live` list (swap-remove bookkeeping,
    /// kept inline so no per-slot side table needs preallocating).
    live_pos: u32,
}

/// Target slots per lazily-allocated page. Small enough that a sparse
/// 1024-core run touching a handful of sets per cache stays in the
/// kilobytes per cache; large enough that a hot cache allocates O(10)
/// pages rather than thousands.
const PAGE_SLOT_TARGET: usize = 2048;

/// A lazily-allocated page of `ways << page_shift` ways: way `i` is
/// `tags[i]` and `slots[i]`, and `tags[i] == EMPTY` exactly when
/// `slots[i]` is `None`. A set's tags are contiguous, so a probe reads
/// `ways` words (32 B at four ways) and touches a slot only on a match.
#[derive(Clone)]
struct Page<S> {
    tags: Box<[u64]>,
    slots: Box<[Option<LineSlot<S>>]>,
}

impl<S> Page<S> {
    fn new(ways: usize) -> Page<S> {
        Page {
            tags: vec![EMPTY; ways].into_boxed_slice(),
            slots: (0..ways).map(|_| None).collect(),
        }
    }

    /// The in-page offset of the way among `ways` tagged `block`, found
    /// by scanning tags alone. `Block(EMPTY)` finds a free way, whose
    /// slot is `None`, so every caller still reads it as absent.
    #[inline]
    fn find(&self, ways: std::ops::Range<usize>, block: Block) -> Option<usize> {
        let w = self.tags[ways.clone()].iter().position(|&t| t == block.0)?;
        Some(ways.start + w)
    }
}

/// A set-associative tag/state array with true-LRU replacement.
///
/// Set selection uses block-number bits above `index_shift`, so an L2 bank
/// (which only sees blocks whose low bits select it) can skip its bank bits.
/// Sets and sets per page are powers of two, so a block's page and its
/// set's place in the page are a mask and two shifts, and every lookup
/// scans the set's `ways` contiguous tags once.
///
/// # Example
///
/// ```
/// use tokencmp_cache::{InsertOutcome, SetAssoc};
/// use tokencmp_proto::Block;
///
/// let mut c: SetAssoc<u32> = SetAssoc::new(4, 2, 0);
/// assert_eq!(c.insert(Block(0), 10), InsertOutcome::Inserted);
/// assert_eq!(c.peek(Block(0)), Some(&10));
/// assert_eq!(c.insert(Block(0), 11), InsertOutcome::Replaced(10));
/// ```
#[derive(Clone)]
pub struct SetAssoc<S> {
    /// `sets - 1`: a block's set is `(block >> index_shift) & set_mask`.
    set_mask: u64,
    index_shift: u32,
    ways: u32,
    /// Log2 of the sets per page: set `s` lives in page `s >> page_shift`.
    page_shift: u32,
    /// Log2 of a page's stride in slot ids (`page << slot_shift | offset`,
    /// the form the live list stores): the smallest power of two that
    /// holds a page's slots.
    slot_shift: u32,
    /// Lazily-allocated pages of `ways << page_shift` ways each: a whole
    /// number of sets, so one set never straddles pages. `None` until a
    /// block first maps into the page; one pointer per entry keeps an
    /// untouched array's table small.
    pages: Vec<Option<Box<Page<S>>>>,
    stamp: u64,
    occupied: usize,
    /// Slot ids of the occupied slots, unordered. Together with the
    /// slots' inline `live_pos` this makes [`iter`](SetAssoc::iter)
    /// O(occupied) instead of O(sets × ways) — a census of a
    /// nearly-empty 8 MB L2 bank must not scan 32 k slots (the
    /// telemetry sampler takes censuses every sample period, and the
    /// conservation audit on every audit step).
    live: Vec<u32>,
}

impl<S> SetAssoc<S> {
    /// Creates an empty array of `sets × ways` lines. No page is
    /// allocated until lines are inserted.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize, index_shift: u32) -> SetAssoc<S> {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        // Power-of-two sets per page (dividing `sets` exactly), sized so
        // a page holds about PAGE_SLOT_TARGET slots.
        let sets_per_page = (PAGE_SLOT_TARGET / ways).next_power_of_two().clamp(1, sets);
        let slot_shift = (sets_per_page * ways).next_power_of_two().trailing_zeros();
        let n_pages = sets / sets_per_page;
        assert!(
            ((n_pages as u64) << slot_shift) < u64::from(u32::MAX),
            "array too large"
        );
        let mut pages = Vec::with_capacity(n_pages);
        pages.resize_with(n_pages, || None);
        SetAssoc {
            set_mask: sets as u64 - 1,
            index_shift,
            ways: ways as u32,
            page_shift: sets_per_page.trailing_zeros(),
            slot_shift,
            pages,
            stamp: 0,
            occupied: 0,
            live: Vec::new(),
        }
    }

    /// Slots per page.
    #[inline]
    fn page_slots(&self) -> usize {
        (self.ways as usize) << self.page_shift
    }

    /// The page holding `block`'s set, and the set's slots in that page.
    #[inline]
    fn locate(&self, block: Block) -> (usize, std::ops::Range<usize>) {
        let set = ((block.0 >> self.index_shift) & self.set_mask) as usize;
        let ways = self.ways as usize;
        let start = (set & ((1 << self.page_shift) - 1)) * ways;
        (set >> self.page_shift, start..start + ways)
    }

    /// The slot id of slot `offset` of page `page`.
    #[inline]
    fn slot_id(&self, page: usize, offset: usize) -> u32 {
        ((page << self.slot_shift) | offset) as u32
    }

    /// The page and in-page offset of slot id `id`.
    #[inline]
    fn unpack(&self, id: u32) -> (usize, usize) {
        let id = id as usize;
        (id >> self.slot_shift, id & ((1 << self.slot_shift) - 1))
    }

    /// The line holding `block`, if resident.
    #[inline]
    fn line(&self, block: Block) -> Option<&LineSlot<S>> {
        let (page, ways) = self.locate(block);
        let page = self.pages[page].as_deref()?;
        page.slots[page.find(ways, block)?].as_ref()
    }

    /// The line holding `block`, if resident, marked most-recently-used.
    #[inline]
    fn touch(&mut self, block: Block) -> Option<&mut LineSlot<S>> {
        let (page, ways) = self.locate(block);
        let page = self.pages[page].as_deref_mut()?;
        let line = page.slots[page.find(ways, block)?].as_mut()?;
        self.stamp += 1;
        line.stamp = self.stamp;
        Some(line)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways as usize
    }

    /// Number of occupied lines.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True if no lines are occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Bytes of heap + inline storage this array currently holds:
    /// the struct itself, the page table, every *allocated* page (its
    /// two slice headers, its tags and its slots), and the live-index
    /// capacity. The footprint regression suite holds this under budget
    /// for sparse 1024-core runs.
    pub fn resident_bytes(&self) -> usize {
        let way_bytes = size_of::<u64>() + size_of::<Option<LineSlot<S>>>();
        let page_bytes = size_of::<Page<S>>() + self.page_slots() * way_bytes;
        size_of::<Self>()
            + self.pages.capacity() * size_of::<Option<Box<Page<S>>>>()
            + self.pages.iter().flatten().count() * page_bytes
            + self.live.capacity() * size_of::<u32>()
    }

    /// Reads a line's state without updating LRU.
    pub fn peek(&self, block: Block) -> Option<&S> {
        self.line(block).map(|l| &l.state)
    }

    /// Mutable access to a line's state, marking it most-recently-used.
    pub fn get_mut(&mut self, block: Block) -> Option<&mut S> {
        self.touch(block).map(|l| &mut l.state)
    }

    /// True if the block is resident (no LRU update).
    pub fn contains(&self, block: Block) -> bool {
        self.line(block).is_some()
    }

    /// Inserts (or updates) a line, evicting the LRU line of the set if
    /// necessary. The inserted line becomes most-recently-used.
    ///
    /// # Panics
    ///
    /// Panics on `Block(u64::MAX)`, the free-way tag.
    pub fn insert(&mut self, block: Block, state: S) -> InsertOutcome<S> {
        assert!(
            block.0 != EMPTY,
            "block {EMPTY:#x} is reserved as the free-way tag"
        );
        self.stamp += 1;
        let stamp = self.stamp;
        let (page, ways) = self.locate(block);
        let id = self.slot_id(page, ways.start);
        let page_slots = self.page_slots();
        let Page { tags, slots } =
            &mut **self.pages[page].get_or_insert_with(|| Box::new(Page::new(page_slots)));
        // One pass over the tags: the block's own way, else the first
        // free way.
        let mut free = None;
        for (w, &tag) in tags[ways.clone()].iter().enumerate() {
            if tag == block.0 {
                let l = slots[ways.start + w].as_mut().expect("tagged way");
                l.stamp = stamp;
                return InsertOutcome::Replaced(std::mem::replace(&mut l.state, state));
            }
            if tag == EMPTY {
                free.get_or_insert(w);
            }
        }
        if let Some(w) = free {
            tags[ways.start + w] = block.0;
            slots[ways.start + w] = Some(LineSlot {
                state,
                stamp,
                live_pos: self.live.len() as u32,
            });
            self.occupied += 1;
            self.live.push(id + w as u32);
            return InsertOutcome::Inserted;
        }
        // A full set: the least recently used way's slot (and live-list
        // entry) pass to the new line.
        let start = ways.start;
        let (w, slot) = slots[ways]
            .iter_mut()
            .map(|s| s.as_mut().expect("full set"))
            .enumerate()
            .min_by_key(|(_, l)| l.stamp)
            .expect("ways > 0");
        let live_pos = slot.live_pos;
        let old = std::mem::replace(
            slot,
            LineSlot {
                state,
                stamp,
                live_pos,
            },
        );
        let victim = std::mem::replace(&mut tags[start + w], block.0);
        InsertOutcome::Evicted(Block(victim), old.state)
    }

    /// Removes a line, returning its state.
    pub fn remove(&mut self, block: Block) -> Option<S> {
        let (page, ways) = self.locate(block);
        let p = self.pages[page].as_deref_mut()?;
        let i = p.find(ways, block)?;
        let line = p.slots[i].take()?;
        p.tags[i] = EMPTY;
        self.occupied -= 1;
        // Swap-remove the slot from the live list.
        let last = self.live.pop().expect("live list non-empty");
        if last != self.slot_id(page, i) {
            self.live[line.live_pos as usize] = last;
            let (page, i) = self.unpack(last);
            let moved = self.pages[page].as_deref_mut().expect("live page").slots[i]
                .as_mut()
                .expect("live slot");
            moved.live_pos = line.live_pos;
        }
        Some(line.state)
    }

    /// Iterates occupied lines in arbitrary order. O(occupied), not
    /// O(sets × ways): censuses of sparse arrays are cheap.
    pub fn iter(&self) -> impl Iterator<Item = (Block, &S)> {
        self.live.iter().map(|&id| {
            let (page, offset) = self.unpack(id);
            let page = self.pages[page].as_deref().expect("live page");
            let line = page.slots[offset].as_ref().expect("live slot");
            (Block(page.tags[offset]), &line.state)
        })
    }
}

impl<S: fmt::Debug> fmt::Debug for SetAssoc<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssoc")
            .field("sets", &self.sets())
            .field("ways", &self.ways)
            .field("occupied", &self.occupied)
            .field("pages", &self.pages.iter().flatten().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut c: SetAssoc<&str> = SetAssoc::new(8, 2, 0);
        assert_eq!(c.insert(Block(3), "a"), InsertOutcome::Inserted);
        assert!(c.contains(Block(3)));
        assert_eq!(c.get_mut(Block(3)).copied(), Some("a"));
        assert_eq!(c.peek(Block(3)), Some(&"a"));
        assert_eq!(c.remove(Block(3)), Some("a"));
        assert!(!c.contains(Block(3)));
        assert!(c.is_empty());
    }

    #[test]
    fn evicts_lru_within_set() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, 0);
        c.insert(Block(1), 1);
        c.insert(Block(2), 2);
        c.get_mut(Block(1)); // block 2 becomes LRU
        match c.insert(Block(3), 3) {
            InsertOutcome::Evicted(b, s) => {
                assert_eq!(b, Block(2));
                assert_eq!(s, 2);
            }
            o => panic!("expected eviction, got {o:?}"),
        }
        assert!(c.contains(Block(1)));
        assert!(c.contains(Block(3)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c: SetAssoc<u32> = SetAssoc::new(4, 1, 0);
        for n in 0..4 {
            assert_eq!(c.insert(Block(n), n as u32), InsertOutcome::Inserted);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn index_shift_skips_bank_bits() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 1, 2);
        c.insert(Block(0b000), 0);
        assert_eq!(c.insert(Block(0b100), 1), InsertOutcome::Inserted);
        // 0b1000 shares a set with 0b000 (one way) and evicts it.
        match c.insert(Block(0b1000), 2) {
            InsertOutcome::Evicted(b, _) => assert_eq!(b, Block(0b000)),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn replace_updates_in_place() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2, 0);
        c.insert(Block(5), 1);
        assert_eq!(c.insert(Block(5), 2), InsertOutcome::Replaced(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(Block(5)), Some(&2));
    }

    #[test]
    fn get_mut_mutates() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2, 0);
        c.insert(Block(5), 1);
        *c.get_mut(Block(5)).unwrap() += 10;
        assert_eq!(c.peek(Block(5)), Some(&11));
        assert_eq!(c.get_mut(Block(6)), None);
    }

    #[test]
    fn iter_visits_all_occupied() {
        let mut c: SetAssoc<u32> = SetAssoc::new(4, 2, 0);
        for n in 0..6 {
            c.insert(Block(n), n as u32);
        }
        let mut got: Vec<u64> = c.iter().map(|(b, _)| b.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        for n in 0..6 {
            *c.get_mut(Block(n)).unwrap() += 100;
        }
        assert!(c.iter().all(|(b, &s)| s == b.0 as u32 + 100));
    }

    #[test]
    fn live_index_survives_eviction_and_churn() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, 0);
        c.insert(Block(1), 1);
        c.insert(Block(2), 2);
        assert!(matches!(c.insert(Block(3), 3), InsertOutcome::Evicted(..)));
        let mut got: Vec<u64> = c.iter().map(|(b, _)| b.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
        c.remove(Block(2));
        c.insert(Block(4), 4);
        let mut got: Vec<u64> = c.iter().map(|(b, _)| b.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![3, 4]);
        assert_eq!(c.iter().count(), c.len());
    }

    #[test]
    fn pages_allocate_lazily_and_footprint_tracks_touch() {
        // An L2-bank-sized array: 8192 sets × 4 ways = 32 k slots.
        let mut c: SetAssoc<u64> = SetAssoc::new(8192, 4, 0);
        let empty = c.resident_bytes();
        // Untouched: only the struct + page table + no pages.
        assert!(empty < 2_048, "empty array resident {empty} B");
        // One line touches exactly one page.
        c.insert(Block(0), 1);
        let one = c.resident_bytes();
        assert!(one > empty);
        // A second line in the same page region costs nothing new.
        c.insert(Block(1), 2);
        assert_eq!(c.resident_bytes(), one);
        // A line far away allocates a second page.
        c.insert(Block(8000), 3);
        assert!(c.resident_bytes() > one);
        // Full-array footprint stays the total-capacity bound.
        for n in 0..8192u64 {
            c.insert(Block(n), n);
        }
        let full = c.resident_bytes();
        assert!(full >= 32 * 1024 * std::mem::size_of::<Option<LineSlot<u64>>>() / 4);
    }

    #[test]
    fn one_page_resident_bytes_count_table_tags_and_slots() {
        // One pointer per page-table entry, however large the state.
        assert_eq!(size_of::<Option<Box<Page<[u8; 24]>>>>(), size_of::<usize>());
        let mut c: SetAssoc<u64> = SetAssoc::new(4, 2, 0);
        let table = size_of::<SetAssoc<u64>>() + size_of::<Option<Box<Page<u64>>>>();
        assert_eq!(c.resident_bytes(), table);
        c.insert(Block(0), 1);
        // 4 sets × 2 ways: one page of 8 ways, each a tag and a slot.
        let ways = 8;
        let page =
            size_of::<Page<u64>>() + ways * (size_of::<u64>() + size_of::<Option<LineSlot<u64>>>());
        let live = c.live.capacity() * size_of::<u32>();
        assert_eq!(c.resident_bytes(), table + page + live);
        // A way is its tag and its slot: no larger than one slot that
        // held the block inline, `Option<(block, state, stamp, live_pos)>`.
        let inline = size_of::<Option<(u64, u64, u64, u32)>>();
        assert!(size_of::<u64>() + size_of::<Option<LineSlot<u64>>>() <= inline);
    }

    #[test]
    #[should_panic(expected = "reserved as the free-way tag")]
    fn the_free_way_tag_is_refused_as_a_block() {
        let mut c: SetAssoc<u8> = SetAssoc::new(4, 2, 0);
        c.insert(Block(u64::MAX), 0);
    }

    #[test]
    fn probes_of_the_free_way_tag_find_nothing() {
        let mut c: SetAssoc<u8> = SetAssoc::new(1, 2, 0);
        c.insert(Block(1), 1);
        let free = Block(u64::MAX);
        assert!(!c.contains(free));
        assert_eq!(c.peek(free), None);
        assert_eq!(c.get_mut(free), None);
        assert_eq!(c.remove(free), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.iter().map(|(b, _)| b).collect::<Vec<_>>(), vec![Block(1)]);
    }

    #[test]
    fn tiny_arrays_use_a_single_page() {
        let mut c: SetAssoc<u8> = SetAssoc::new(2, 2, 0);
        c.insert(Block(0), 0);
        c.insert(Block(1), 1);
        assert_eq!(c.len(), 2);
        assert!(c.resident_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _: SetAssoc<u8> = SetAssoc::new(3, 1, 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_ways() {
        let _: SetAssoc<u8> = SetAssoc::new(4, 0, 0);
    }

    /// Checks the tag array against the slots: a way's tag is `EMPTY`
    /// exactly when its slot is, and `iter` lists exactly the tagged
    /// blocks, each once.
    fn check_tags<S>(sut: &SetAssoc<S>) {
        let mut tagged = Vec::new();
        for page in sut.pages.iter().flatten() {
            prop_assert_eq!(page.tags.len(), sut.page_slots());
            prop_assert_eq!(page.slots.len(), sut.page_slots());
            for (&tag, slot) in page.tags.iter().zip(page.slots.iter()) {
                prop_assert_eq!(tag == EMPTY, slot.is_none(), "tag {:#x}", tag);
                if tag != EMPTY {
                    tagged.push(tag);
                }
            }
        }
        tagged.sort_unstable();
        let mut listed: Vec<u64> = sut.iter().map(|(b, _)| b.0).collect();
        listed.sort_unstable();
        prop_assert_eq!(listed, tagged);
    }

    /// Replays `(op, block)` pairs on `sut` and on a naive per-set LRU
    /// model in which block `n` maps to set `set_of(n)`: op 0 inserts,
    /// 1 reads through `get_mut`, 2 removes, 3 peeks (no LRU update) and
    /// 4 writes through `get_mut`. Every insert's outcome, an eviction's
    /// block and state included, must be the model's, and the tag array
    /// must agree with the slots after every operation.
    fn replay_against_model(
        mut sut: SetAssoc<u64>,
        set_of: impl Fn(u64) -> u64,
        ops: &[(u8, u64)],
    ) {
        use std::collections::HashMap;
        let ways = sut.ways();
        // reference: per-set Vec<(block, state)> in LRU order (front = LRU)
        let mut model: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for &(op, n) in ops {
            let b = Block(n);
            let entry = model.entry(set_of(n)).or_default();
            let pos = entry.iter().position(|&(blk, _)| blk == n);
            match op {
                0 => {
                    let out = sut.insert(b, n + 1000);
                    let want = if let Some(pos) = pos {
                        let (_, old) = entry.remove(pos);
                        InsertOutcome::Replaced(old)
                    } else if entry.len() < ways {
                        InsertOutcome::Inserted
                    } else {
                        let (vb, vs) = entry.remove(0);
                        InsertOutcome::Evicted(Block(vb), vs)
                    };
                    entry.push((n, n + 1000));
                    prop_assert_eq!(out, want);
                }
                1 => {
                    let got = sut.get_mut(b).map(|s| *s);
                    let want = pos.map(|pos| {
                        let e = entry.remove(pos);
                        entry.push(e);
                        e.1
                    });
                    prop_assert_eq!(got, want);
                }
                2 => {
                    let got = sut.remove(b);
                    let want = pos.map(|pos| entry.remove(pos).1);
                    prop_assert_eq!(got, want);
                }
                3 => {
                    let want = pos.map(|pos| entry[pos].1);
                    prop_assert_eq!(sut.peek(b).copied(), want);
                    prop_assert_eq!(sut.contains(b), want.is_some());
                }
                _ => {
                    let got = sut.get_mut(b).map(|s| {
                        *s += 1;
                        *s
                    });
                    let want = pos.map(|pos| {
                        let mut e = entry.remove(pos);
                        e.1 += 1;
                        entry.push(e);
                        e.1
                    });
                    prop_assert_eq!(got, want);
                }
            }
            let model_len: usize = model.values().map(Vec::len).sum();
            prop_assert_eq!(sut.len(), model_len);
            // The O(occupied) live index agrees with the model's
            // resident set after every operation.
            let mut got: Vec<u64> = sut.iter().map(|(b, _)| b.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = model.values().flatten().map(|&(blk, _)| blk).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
            check_tags(&sut);
        }
    }

    proptest! {
        /// Model-based test: the array agrees with a naive per-set LRU
        /// model under arbitrary operation sequences on one page.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((0u8..5, 0u64..32), 1..200)) {
            let sut: SetAssoc<u64> = SetAssoc::new(4, 2, 0);
            replay_against_model(sut, |n| n % 4, &ops);
        }

        /// The same model on 8 pages of 512 sets × 4 ways with index
        /// shift 2: keys reach every page, the first and last set of
        /// each, and the two low bits the shift skips, so page, in-page
        /// offset and slot-id arithmetic are all compared with the model.
        #[test]
        fn matches_reference_model_across_pages(ops in proptest::collection::vec((0u8..5, 0u64..256), 1..400)) {
            let sut: SetAssoc<u64> = SetAssoc::new(4096, 4, 2);
            assert_eq!(sut.pages.len(), 8);
            // Key k: page k % 8, set 0 or 511 of it, one of 4 tags and
            // one of 4 values of the skipped bits.
            let block = |k: u64| {
                let set = (k % 8) * 512 + [0, 511][(k / 8 % 2) as usize];
                ((k / 16 % 4) << 14) | (set << 2) | (k / 64)
            };
            let ops: Vec<(u8, u64)> = ops.into_iter().map(|(op, k)| (op, block(k))).collect();
            replay_against_model(sut, |n| (n >> 2) & 4095, &ops);
        }
    }
}
